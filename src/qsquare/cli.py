"""Command-line front end: synthesis, verification, and cost comparison.

The CLI only parses, caches and prints; ``synthesize_squarer``, the
writers of ``ir``, ``sim.check_squarer``, ``sim.check_blocks`` and
``costs`` do each command's work.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 verification
failure.  All commands are deterministic; identical invocations produce
byte-identical outputs.

``--report`` writes ``{"inputs_checked": ..., "mismatches": [...]}`` as
compact JSON, one ``json.dumps`` call with the separators ``to_json``
uses, whatever shape its mismatches have.  A squarer width's report
lists at most its first 16 failing inputs; its stdout line counts them
all, or says that the sweep stopped at an error and counted none.

Each command loads the modules it runs, when it runs: ``verify``
imports ``sim`` and ``compare`` imports ``costs``, so ``synth`` loads
neither, ``verify`` never loads ``costs`` and ``compare`` never loads
``sim``.

``synth --format grid`` writes ``layout.arrange(n)`` and builds no
squarer.  ``synth`` to JSON or QASM and ``verify`` build each width's
squarer once per process: it is a pure function of n, and a process
that runs many commands (a library caller of ``main``, say) would
otherwise rebuild it for each.  Sharing it is safe because nothing can
change it: a netlist's ops and header are read-only (see ``ir``), so
``_drop_gate`` builds a new netlist (``Netlist.without``).  The squarer
cache keeps the 13 widths used last: the 12 of ``BASIS_RANGE`` plus
one, so a ``synth`` between two ``verify 5..16`` evicts no verified
width; a 128-bit circuit holds about 2.6 MB.  ``compare`` builds each
width once per command and keeps no circuit: holding the circuits of a
long sweep would only raise its peak memory.

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

from .ir import Netlist, to_json, to_qasm
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


# the 12 widths of BASIS_RANGE plus one (module docstring)
@functools.lru_cache(maxsize=BASIS_RANGE[1] - BASIS_RANGE[0] + 2)
def _squarer(n: int) -> Netlist:
    return synthesize_squarer(n)


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

    from . import sim

    runs: list[dict] = []
    ok = True
    if args.mode in ("basis-exhaustive", "both"):
        for n in ns:
            netlist = _squarer(n)
            runs.append(sim.check_squarer(
                netlist if mutate is None else _drop_gate(netlist, mutate)))
    if args.mode in ("statevector-blocks", "both"):
        runs.extend(sim.check_blocks())

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
