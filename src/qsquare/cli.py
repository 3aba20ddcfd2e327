"""Command-line front end: synthesis, verification, and cost comparison.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 verification
failure.  All commands are deterministic; identical invocations produce
byte-identical outputs.

The block battery (``verify --mode statevector-blocks`` or ``both``)
certifies each ``_BLOCKS`` block's Clifford+T expansion against the
basis engine's run of its macro netlist, the semantics every squarer
sweep checks with; no expected result is written here.  ``--report``
writes ``{"inputs_checked": ..., "mismatches": [...]}`` as compact JSON,
one ``json.dumps`` call with the separators ``to_json`` uses, whatever
shape its mismatches have.  A squarer width's report lists at most its
first 16 failing inputs; its stdout line counts them all, or says that
the sweep stopped at an error and counted none.

Each command loads the modules it runs, when it runs: ``verify``
imports ``sim`` and ``compare`` imports ``costs``, so ``synth`` loads
neither, ``verify`` never loads ``costs`` and ``compare`` never loads
``sim``.

``synth --format grid`` writes ``layout.arrange(n)`` and builds no
squarer.  ``synth`` to JSON or QASM and ``verify`` build each width's
squarer once per process, and ``verify`` the input and expected-square
planes its basis sweep checks against: they are pure functions of n,
and a process that runs many commands (a library caller of ``main``,
say) would otherwise rebuild them for each.  Sharing them is safe
because nothing can change them: a netlist's ops and header are
read-only (see ``ir``), so ``_drop_gate`` builds a new netlist
(``Netlist.without``), and the planes are kept as tuples.  The squarer
cache keeps the 13 widths used last: the 12 of ``BASIS_RANGE`` plus
one, so a ``synth`` between two ``verify 5..16`` evicts no verified
width; a 128-bit circuit holds about 2.6 MB.  The planes are cached
only for verified widths, so for at most 12.  ``compare`` builds each
width once per command and keeps no circuit: holding the circuits of a
long sweep would only raise its peak memory.  Its measurement shares
``ir``'s cache of macro shape costs, one 3-tuple per shape for the
process (122 after ``compare 5..64 --measured``), so a second sweep
expands no adder to count it.

``main`` suspends CPython's cyclic garbage collector while a command
runs, and turns it back on afterwards only if it was on when ``main``
was called, so a caller that turned it off keeps it off.  A command
allocates millions of container objects (ops, gate columns, the
writers' per-wire lists), and the collector would walk them again and
again: about a tenth of ``compare 5..64 --measured`` and a third of
``synth 512``.  It finds nothing to free, because no command builds a
reference cycle: a netlist, its ops and the emitters that lower it
refer only to objects that never refer back, so reference counting
frees them all.  ``tests/test_cli.py::
test_commands_restore_the_collector_and_leave_no_cycles`` runs every
command shape, failing ones included, and checks that the collector's
state is restored and that ``gc.collect()`` then finds nothing.
Library calls of ``synthesize_squarer``, ``expand`` and the rest keep
the collector as their caller has it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from . import blocks
from .ir import Netlist, expand, to_json, to_qasm
from .layout import arrange, dump_grid
from .synth import synthesize_squarer

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

BASIS_RANGE = (5, 16)


class _UsageError(Exception):
    pass


def _parse_n(text: str) -> int:
    # ASCII digits only: int() would also take "1_0", " 6" and other
    # scripts' digits, and run a width the user did not write
    if not (text.isascii() and text.isdigit()):
        raise _UsageError(f"width must be an integer in ASCII digits, got {text!r}")
    n = int(text)
    if n <= 4:
        raise _UsageError(f"input width must satisfy n > 4, got n={n}")
    return n


def _parse_range(text: str) -> range:
    lo, dots, hi = text.partition("..")
    if dots and not hi:
        raise _UsageError(f"width range {text!r} has no upper end")
    first = _parse_n(lo)
    last = _parse_n(hi) if dots else first
    if last < first:
        raise _UsageError(f"empty width range {text!r}")
    return range(first, last + 1)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---- synth -----------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    n = _parse_n(args.n)
    if args.expanded and args.format == "grid":
        raise _UsageError("--expanded lowers the netlist, which --format grid does not write")
    if args.format == "grid":  # the layout alone, no circuit
        _write(args.out, dump_grid(arrange(n)))
    elif args.format == "json":
        _write(args.out, to_json(_squarer(n), lower=args.expanded))
    else:  # qasm, always of the expansion
        _write(args.out, to_qasm(_squarer(n)))
    return EXIT_OK


# ---- verify ----------------------------------------------------------------

def _drop_gate(netlist: Netlist, k: int) -> Netlist:
    if not 0 <= k < len(netlist.gates):
        raise _UsageError(f"gate index {k} out of range at n={len(netlist.registers['A'])} "
                          f"(netlist has {len(netlist.gates)})")
    return netlist.without(k)


@functools.cache  # per process, bounded by BASIS_RANGE (module docstring)
def _square_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The n input planes (lane a holds a, as ``sim.lane_planes`` builds
    them) and the 2n planes of a*a, over every input a < 2**n.

    Built together, apart from any circuit, by doubling: the upper half
    of 2L lanes holds a + L, a new top input plane, and (a + L)**2 =
    a**2 + a*2L + L**2 for a < L = 2**k.  As a**2 < L**2, adding L**2
    only sets bit 2k; a*2L is rippled in."""
    square = [0] * (2 * n)
    a_planes: list[int] = []
    for k in range(n):
        lanes = 1 << k
        full = (1 << lanes) - 1
        upper = square[:]
        upper[2 * k] = full
        carry = 0
        for i in range(k + 1, 2 * n):
            b = a_planes[i - k - 1] if i <= 2 * k else 0
            if not (b or carry):
                break
            x = upper[i]
            s = x ^ b
            upper[i] = s ^ carry
            carry = (x & b) | (carry & s)
        square = [p | q << lanes for p, q in zip(square, upper)]
        a_planes = [p | p << lanes for p in a_planes] + [full << lanes]
    return tuple(a_planes), tuple(square)


# the 12 widths of BASIS_RANGE plus one (module docstring)
@functools.lru_cache(maxsize=BASIS_RANGE[1] - BASIS_RANGE[0] + 2)
def _squarer(n: int) -> Netlist:
    return synthesize_squarer(n)


def _verify_basis_one(netlist) -> dict:
    """Exhaustively simulate a squarer netlist, reading its input and
    product wires from registers A and P; returns the spec report dict
    plus n and, for a sweep that ran, ``failing``, its count of failing
    inputs (the report lists at most the first 16), or, for a sweep that
    raised and so counted none, ``stopped``, the error its one mismatch
    names.

    Only planes that differ from the reference carry data: each P and A
    plane is XORed with its expected plane once, garbage is the OR of
    the non-zero ancilla planes, and a reported lane's P and A are the
    expected values XOR its difference bits, read from small windows of
    the differences that start at the first reported lane."""
    from . import sim

    inputs, p_wires = netlist.registers["A"], netlist.registers["P"]
    n = len(inputs)
    lanes = 1 << n
    a_planes, square = _square_planes(n)
    try:
        result = sim.run_basis_sweep(netlist, dict(zip(inputs, a_planes)), lanes)
    except sim.SimulationError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return {"n": n, "inputs_checked": lanes, "stopped": error,
                "mismatches": [{"input": {"n": n}, "expected": "clean run", "got": error}]}
    planes = result.wires
    # (bit, plane of lanes where that bit is wrong), non-zero planes only
    p_diff = [(i, d) for i, (w, want) in enumerate(zip(p_wires, square))
              if (d := planes[w] ^ want)]
    a_diff = [(i, d) for i, (w, want) in enumerate(zip(inputs, a_planes))
              if (d := planes[w] ^ want)]
    keep = {*inputs, *p_wires}
    dirty = overflow = 0
    for w, plane in planes.items():
        if plane and w not in keep:
            dirty |= plane
    for carry in result.would_be_carries.values():
        if carry:
            overflow |= carry
    bad = dirty | overflow
    for _, d in p_diff + a_diff:
        bad |= d
    failing = bad.bit_count()
    first: list[int] = []  # the lowest 16 bad lanes
    while bad and len(first) < 16:
        low = bad & -bad
        bad ^= low
        first.append(low.bit_length() - 1)
    # cut every plane to the window of reported lanes, so reading a lane
    # shifts a small int
    lo = first[0] if first else 0
    window = (2 << (first[-1] - lo)) - 1 if first else 0
    p_diff, a_diff = ([(i, (d >> lo) & window) for i, d in diff] for diff in (p_diff, a_diff))
    dirty, overflow = (dirty >> lo) & window, (overflow >> lo) & window
    mismatches = []
    for a in first:
        k = a - lo
        mismatches.append({
            "input": {"n": n, "a": a},
            "expected": {"P": a * a, "A": a, "garbage": 0, "overflow": 0},
            "got": {"P": a * a ^ sum(((d >> k) & 1) << i for i, d in p_diff),
                    "A": a ^ sum(((d >> k) & 1) << i for i, d in a_diff),
                    "garbage": (dirty >> k) & 1, "overflow": (overflow >> k) & 1}})
    return {"n": n, "inputs_checked": lanes, "mismatches": mismatches, "failing": failing}


def _and_block(nl: Netlist, uncompute: bool) -> tuple[int, ...]:
    x, y = nl.alloc_register("xy", 2, "input")
    t = blocks.build_logical_and(nl, x, y)
    if uncompute:
        blocks.build_uncompute_and(nl, x, y, t)
    return x, y


def _adder_block(nl: Netlist, m: int, carry: bool) -> tuple[int, ...]:
    a, b = nl.alloc_register("a", m, "input"), nl.alloc_register("b", m, "input")
    blocks.build_adder_in_place(nl, a, b, carry)
    return a + b


# the block battery: each block's name, and the builder and its
# arguments that write it into a fresh netlist and return its input wires
_BLOCKS = (("logical-and", _and_block, False), ("and-uncompute", _and_block, True),
           *((f"adder-m{m}-{'carry' if carry else 'modular'}", _adder_block, m, carry)
             for m, carry in ((2, True), (2, False), (3, True), (3, False))))


def _verify_blocks() -> list[dict]:
    """Certify each block's Clifford+T expansion against its macro
    netlist on the basis engine, over every input."""
    from . import sim

    reports: list[dict] = []
    for name, build, *args in _BLOCKS:
        nl = Netlist()
        inputs = build(nl, *args)
        reports.append({"block": name,
                        **sim.verify_equivalence(nl, expand(nl), inputs)})
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    if args.mode == "statevector-blocks":
        if args.range is not None:
            raise _UsageError(f"--mode statevector-blocks verifies fixed blocks and "
                              f"takes no width, got {args.range!r}")
    elif args.range is None:
        raise _UsageError(f"--mode {args.mode} needs a width or range, e.g. 6 or 5..8")
    else:
        ns = _parse_range(args.range)
        if ns[0] < BASIS_RANGE[0] or ns[-1] > BASIS_RANGE[1]:
            raise _UsageError(
                f"basis-exhaustive range must lie within "
                f"{BASIS_RANGE[0]}..{BASIS_RANGE[1]}, got {args.range}")
    mutate: int | None = None
    if args.mutate is not None:
        head, _, idx = args.mutate.partition(":")
        if head != "drop-gate" or not (idx.isascii() and idx.isdigit()):
            raise _UsageError(f"--mutate expects drop-gate:<index>, got {args.mutate!r}")
        mutate = int(idx)
        if args.mode == "statevector-blocks":
            raise _UsageError("--mutate corrupts the squarer netlist, which "
                              "--mode statevector-blocks does not verify")

    runs: list[dict] = []
    ok = True
    if args.mode in ("basis-exhaustive", "both"):
        for n in ns:
            netlist = _squarer(n)
            runs.append(_verify_basis_one(
                netlist if mutate is None else _drop_gate(netlist, mutate)))
    if args.mode in ("statevector-blocks", "both"):
        runs.extend(_verify_blocks())

    total = sum(r["inputs_checked"] for r in runs)
    mismatches = [m for r in runs for m in r["mismatches"]]
    if args.report is not None:
        _write(args.report, json.dumps({"inputs_checked": total, "mismatches": mismatches},
                                       separators=(",", ":")) + "\n")
    for r in runs:
        label = r.get("block", f"n={r.get('n')}")
        if "stopped" in r:  # a sweep that raised counted no failing input
            print(f"verify {label}: sweep stopped by {r['stopped']}")
            continue
        listed = len(r["mismatches"])
        failing = r.get("failing", listed)
        state = "ok" if not failing else f"{failing} mismatch(es)"
        if failing > listed:
            state += f", report lists the first {listed}"
        print(f"verify {label}: {r['inputs_checked']} inputs, {state}")
    if mismatches:
        first = mismatches[0]
        print(f"first failure: input={first['input']} expected={first['expected']} "
              f"got={first['got']}", file=sys.stderr)
        ok = False
    return EXIT_OK if ok else EXIT_VERIFY


# ---- compare ---------------------------------------------------------------

def cmd_compare(args: argparse.Namespace) -> int:
    from . import costs

    designs = tuple(d.strip() for d in args.designs.split(","))
    for i, d in enumerate(designs):
        if d != "proposed" and d not in costs.BASELINES:
            raise _UsageError(f"unknown design {d!r}; known: proposed, "
                              + ", ".join(costs.BASELINES))
        if d in designs[:i]:
            raise _UsageError(f"design {d!r} named twice in --designs")
    if args.measured and "proposed" not in designs:
        raise _UsageError("--measured measures the proposed design, which "
                          "--designs leaves out")
    if args.measured and args.range is None:
        raise _UsageError("--measured measures each width of a range, and no "
                          "width was given to measure")
    if args.csv is not None and args.range is None:
        raise _UsageError("--csv writes each width's rows, and no width was given to write")
    ns = _parse_range(args.range) if args.range is not None else []
    # the CSV lists the proposed design first, each table as --designs orders it
    csv_order = sorted(designs, key=lambda d: d != "proposed")
    rows: list[costs.CostRow] = []
    out: list[str] = []
    for n in ns:
        width = [row for d in csv_order for row in
                 (costs.reconcile(synthesize_squarer(n)) if args.measured and d == "proposed"
                  else costs.closed_form_rows(d, n))]
        if args.measured:
            t_row = width[0]  # the proposed design's t_count, first of METRICS
            out.append(
                f"n={n}: {costs.carry_less_stages(n)} carry-less stage(s); "
                f"T-count delta {t_row.delta:+d} "
                f"(formula {costs.built_metrics(n).t_count - t_row.closed_form:+d})")
        rows += width
        out.append(costs.comparison_table(n, designs, width))
    if args.ratios:
        out.append(costs.ratios_table())
    if args.csv is not None:
        _write(args.csv, costs.rows_to_csv(rows))
    sys.stdout.write("\n".join(out))
    return EXIT_OK


# ---- entry point -------------------------------------------------------------

@functools.cache  # built once per process: every main call parses with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsq",
        description="Synthesize, verify, and cost garbage-free Clifford+T "
                    "integer squaring circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize one circuit and write it out")
    p.add_argument("n", help="input width in bits (> 4)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "qasm", "grid"), default="json")
    p.add_argument("--expanded", action="store_true",
                   help="lower macros to Clifford+T primitives (json only; "
                        "qasm always expands)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="simulate circuits against the squaring oracle")
    p.add_argument("range", nargs="?", default=None,
                   help="width or range, e.g. 6 or 5..8; basis-exhaustive and both "
                        "need one, statevector-blocks takes none")
    p.add_argument("--mode", choices=("basis-exhaustive", "statevector-blocks", "both"),
                   default="basis-exhaustive",
                   help="basis-exhaustive sweeps each squarer over every input; "
                        "statevector-blocks certifies each block's Clifford+T "
                        "expansion against the basis engine; both runs the two")
    p.add_argument("--report", default=None,
                   help="write the report here, as compact JSON (json.dumps)")
    p.add_argument("--mutate", default=None, metavar="drop-gate:K",
                   help="corrupt the netlist before verification (sanity check)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="closed-form and measured cost comparison")
    p.add_argument("range", nargs="?", default=None, help="width or range")
    p.add_argument("--designs", default="proposed,thapliyal,nagamani-osu")
    p.add_argument("--csv", default=None, help="write CSV rows here")
    p.add_argument("--ratios", action="store_true",
                   help="include asymptotic reduction percentages")
    p.add_argument("--measured", action="store_true",
                   help="synthesize and reconcile measured counts")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "compare" and args.range is None and not args.ratios:
        parser.error("compare needs a width range or --ratios")
    enabled = gc.isenabled()
    gc.disable()  # no command builds a reference cycle: see the module docstring
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"qsq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qsq: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
