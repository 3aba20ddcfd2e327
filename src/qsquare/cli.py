"""Command-line front end: synthesis, verification, and cost comparison.

Exit codes: 0 success, 1 I/O failure, 2 usage error, 3 verification
failure.  All commands are deterministic; identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import blocks, sim
from .ir import expand, to_json, to_qasm
from .layout import dump_grid
from .costs import (
    BASELINES,
    baseline_rows,
    built_metrics,
    carry_less_stages,
    comparison_table,
    proposed_costs,
    ratios_table,
    reconcile,
    report_rows,
    rows_to_csv,
)
from .synth import synthesize_squarer

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3

BASIS_RANGE = (5, 16)


class _UsageError(Exception):
    pass


def _parse_n(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise _UsageError(f"width must be an integer, got {text!r}")
    if n <= 4:
        raise _UsageError(f"input width must satisfy n > 4, got n={n}")
    return n


def _parse_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    first = _parse_n(lo)
    last = _parse_n(hi) if hi else first
    if last < first:
        raise _UsageError(f"empty width range {text!r}")
    return list(range(first, last + 1))


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---- synth -----------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    n = _parse_n(args.n)
    circuit = synthesize_squarer(n)
    if args.format == "grid":
        _write(args.out, dump_grid(circuit.grid))
    elif args.format == "json":
        nl = expand(circuit.netlist) if args.expanded else circuit.netlist
        _write(args.out, to_json(nl))
    else:  # qasm needs primitives only
        _write(args.out, to_qasm(expand(circuit.netlist)))
    return EXIT_OK


# ---- verify ----------------------------------------------------------------

def _drop_gate(netlist, k: int):
    if not 0 <= k < len(netlist.gates):
        raise _UsageError(f"gate index {k} out of range (netlist has {len(netlist.gates)})")
    out = sim.Netlist()
    out.wire_count = netlist.wire_count
    out.cbit_count = netlist.cbit_count
    out.registers = dict(netlist.registers)
    out.gates = netlist.gates[:k] + netlist.gates[k + 1:]
    return out


def _square_planes(n: int) -> list[int]:
    """The 2n planes of a*a over every input a < 2**n (lane a holds a*a).

    Built apart from any circuit, by doubling: the upper half of 2L lanes
    holds (a + L)**2 = a**2 + a*2L + L**2 for a < L = 2**k.  As
    a**2 < L**2, adding L**2 only sets bit 2k; a*2L is rippled in."""
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
    return square


def _lane_value(planes: list[int], lane: int) -> int:
    return sum(((p >> lane) & 1) << i for i, p in enumerate(planes))


def _verify_basis_one(netlist) -> dict:
    """Exhaustively simulate a squarer netlist, reading its input and
    product wires from registers A and P; returns the spec report dict
    plus n."""
    inputs, p_wires = netlist.registers["A"], netlist.registers["P"]
    n = len(inputs)
    lanes = 1 << n
    a_planes = sim.lane_planes(n)
    try:
        result = sim.run_basis_sweep(netlist, dict(zip(inputs, a_planes)), lanes)
    except sim.SimulationError as exc:
        return {"n": n, "inputs_checked": lanes,
                "mismatches": [{"input": {"n": n}, "expected": "clean run",
                                "got": f"{type(exc).__name__}: {exc}"}]}
    p_planes = [result.wires[w] for w in p_wires]
    a_back = [result.wires[w] for w in inputs]
    keep = set(inputs) | set(p_wires)
    dirty = 0
    for w in range(netlist.wire_count):
        if w not in keep:
            dirty |= result.wires[w]
    overflow = 0
    for carry in result.would_be_carries.values():
        overflow |= carry
    bad = dirty | overflow
    for got, want in zip(p_planes + a_back, _square_planes(n) + a_planes):
        bad |= got ^ want
    first: list[int] = []  # the lowest 16 bad lanes
    while bad and len(first) < 16:
        low = bad & -bad
        bad ^= low
        first.append(low.bit_length() - 1)
    # cut the planes to the reported lanes, so reading a lane shifts a small int
    upto = (2 << first[-1]) - 1 if first else 0
    p_planes, a_back = ([p & upto for p in planes] for planes in (p_planes, a_back))
    dirty, overflow = dirty & upto, overflow & upto
    mismatches = [{
        "input": {"n": n, "a": a},
        "expected": {"P": a * a, "A": a, "garbage": 0, "overflow": 0},
        "got": {"P": _lane_value(p_planes, a), "A": _lane_value(a_back, a),
                "garbage": (dirty >> a) & 1, "overflow": (overflow >> a) & 1},
    } for a in first]
    return {"n": n, "inputs_checked": lanes, "mismatches": mismatches}


def _verify_blocks() -> list[dict]:
    """Statevector battery over the Clifford+T expansions of the blocks."""
    reports: list[dict] = []

    nl = sim.Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    blocks.build_logical_and(nl, x, y)
    rep = sim.verify_equivalence(
        expand(nl), (x, y),
        lambda bits: {2: bits[x] & bits[y], x: bits[x], y: bits[y]})
    reports.append({"block": "logical-and", **rep.to_json_dict()})

    nl = sim.Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = blocks.build_logical_and(nl, x, y)
    blocks.build_uncompute_and(nl, x, y, t)
    rep = sim.verify_equivalence(
        expand(nl), (x, y),
        lambda bits: {t: 0, x: bits[x], y: bits[y]})
    reports.append({"block": "and-uncompute", **rep.to_json_dict()})

    for m, carry in ((2, True), (2, False), (3, True), (3, False)):
        nl = sim.Netlist()
        a = nl.alloc_register("a", m, "input")
        b = nl.alloc_register("b", m, "input")
        cw = blocks.build_adder_in_place(nl, a, b, carry)

        def ref(bits, a=a, b=b, cw=cw, m=m, carry=carry):
            av = sum(bits[w] << i for i, w in enumerate(a))
            bv = sum(bits[w] << i for i, w in enumerate(b))
            s = (av + bv) % (1 << m) if not carry else av + bv
            want = {w: (s >> i) & 1 for i, w in enumerate(b)}
            want.update({w: bits[w] for w in a})
            if carry:
                want[cw] = (s >> m) & 1
            return want

        rep = sim.verify_equivalence(expand(nl), tuple(a) + tuple(b), ref)
        reports.append({"block": f"adder-m{m}-{'carry' if carry else 'modular'}",
                        **rep.to_json_dict()})
    return reports


def cmd_verify(args: argparse.Namespace) -> int:
    ns = _parse_range(args.range)
    if args.mode in ("basis-exhaustive", "both"):
        if ns[0] < BASIS_RANGE[0] or ns[-1] > BASIS_RANGE[1]:
            raise _UsageError(
                f"basis-exhaustive range must lie within "
                f"{BASIS_RANGE[0]}..{BASIS_RANGE[1]}, got {args.range}")
    mutate: int | None = None
    if args.mutate is not None:
        head, _, idx = args.mutate.partition(":")
        if head != "drop-gate" or not idx.isdigit():
            raise _UsageError(f"--mutate expects drop-gate:<index>, got {args.mutate!r}")
        mutate = int(idx)
        if args.mode == "statevector-blocks":
            raise _UsageError("--mutate corrupts the squarer netlist, which "
                              "--mode statevector-blocks does not verify")

    runs: list[dict] = []
    ok = True
    if args.mode in ("basis-exhaustive", "both"):
        for n in ns:
            netlist = synthesize_squarer(n).netlist
            runs.append(_verify_basis_one(
                netlist if mutate is None else _drop_gate(netlist, mutate)))
    if args.mode in ("statevector-blocks", "both"):
        runs.extend(_verify_blocks())

    total = sum(r["inputs_checked"] for r in runs)
    mismatches = [m for r in runs for m in r["mismatches"]]
    report = {"inputs_checked": total, "mismatches": mismatches}
    if args.report:
        _write(args.report, json.dumps(report, indent=2) + "\n")
    for r in runs:
        label = r.get("block", f"n={r.get('n')}")
        state = "ok" if not r["mismatches"] else f"{len(r['mismatches'])} mismatch(es)"
        print(f"verify {label}: {r['inputs_checked']} inputs, {state}")
    if mismatches:
        first = mismatches[0]
        print(f"first failure: input={first['input']} expected={first['expected']} "
              f"got={first['got']}", file=sys.stderr)
        ok = False
    return EXIT_OK if ok else EXIT_VERIFY


# ---- compare ---------------------------------------------------------------

def cmd_compare(args: argparse.Namespace) -> int:
    designs = tuple(d.strip() for d in args.designs.split(","))
    for d in designs:
        if d != "proposed" and d not in BASELINES:
            raise _UsageError(f"unknown design {d!r}; known: proposed, "
                              + ", ".join(BASELINES))
    ns = _parse_range(args.range) if args.range else []
    rows: list[tuple] = []
    out: list[str] = []
    for n in ns:
        report = None
        if "proposed" in designs:
            report = (reconcile(synthesize_squarer(n)) if args.measured
                      else proposed_costs(n))
            rows.extend(report_rows(report))
            if args.measured:
                t_line = report.metrics["t_count"]
                out.append(
                    f"n={n}: {carry_less_stages(n)} carry-less stage(s); "
                    f"T-count delta {t_line.delta:+d} "
                    f"(formula {built_metrics(n).t_count - t_line.closed_form:+d})")
        for d in designs:
            if d != "proposed":
                rows.extend(baseline_rows(d, n))
        out.append(comparison_table(n, designs, report))
    if args.ratios:
        out.append(ratios_table())
    if args.csv:
        _write(args.csv, rows_to_csv(rows))
    sys.stdout.write("\n".join(out))
    return EXIT_OK


# ---- entry point -------------------------------------------------------------

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
    p.add_argument("range", help="width or range, e.g. 6 or 5..8")
    p.add_argument("--mode", choices=("basis-exhaustive", "statevector-blocks", "both"),
                   default="basis-exhaustive")
    p.add_argument("--report", default=None, help="write the JSON report here")
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
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"qsq: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"qsq: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
