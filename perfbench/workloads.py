"""The benchmark's three qsq workloads and the checks on their outputs.

A workload is built for a scratch directory ``tmp``; its commands name
their output files relative to it, because the worker runs there.

Every check compares an output with a reference computed here: the
paper's closed-form polynomials, the exact offsets between those forms
and the built circuit, an independent parse of the exported files, an
independent ASAP layer count, and the rule that dropping gate K breaks
exactly the widths where gate K is not a ``prep0``.  Nothing here
imports ``qsquare``.

Workloads (why each was chosen):

costs-sweep
    ``compare 5..64 --measured``: the reconcile path (expand, both ASAP
    schedules, gate counting) at every width, with no simulation and no
    serialisation.
export-128
    ``synth 128 --format json --expanded`` then ``--format qasm``: the
    largest circuit the CLI writes; serialisation dominates, and it is
    the only workload where output size and peak memory move.
verify-exhaustive
    ``verify 5..16 --mode both`` and ``--mutate drop-gate:K`` runs for
    every K in 0..35, in an order drawn from the seed: the basis sweep
    and statevector engines, the macro-level JSON round trip, and the
    failure-reporting path beside the passing one.  Every K runs because
    report sizes differ up to 6x between mutants, so a seeded subset
    would make the output size depend on the seed.
"""

from __future__ import annotations

import csv
import json
import random
import re
from pathlib import Path

# Inputs the statevector block battery of ``verify --mode both`` checks:
# two AND blocks over 2 inputs, then carry and modular adders with
# m = 2 and m = 3 over 2m inputs each.
BLOCK_BATTERY_INPUTS = 2 * 2**2 + 2 * 2**4 + 2 * 2**6
MUTANT_GATE_RANGE = 36  # gates in the n=5 macro netlist, the smallest verified

COST_METRICS = ("t_count", "t_depth", "cnot_count", "cnot_depth", "qubits")


# ---- references ----------------------------------------------------------

def proposed_closed_form(n: int) -> dict[str, int]:
    """The paper's closed-form costs of the proposed squarer (n > 4)."""
    if n % 2 == 0:
        t = 5 * n * n - 4 * n - 4
        qubits = (3 * n * n + 2 * n - 4) // 2
        cnot = (24 * n * n - 23 * n - 28) // 2
        cnot_depth = 8 * n * n - 7 * n - 10
    else:
        t = 5 * n * n - 6 * n - 3
        qubits = (3 * n * n - 3) // 2
        cnot = (24 * n * n - 35 * n - 13) // 2
        cnot_depth = 8 * n * n - 11 * n - 5
    return {"t_count": t, "t_depth": t // 2, "cnot_count": cnot,
            "cnot_depth": cnot_depth, "qubits": qubits, "kq_t": qubits * (t // 2)}


def baseline_closed_form(design: str, n: int) -> dict[str, int]:
    """The published closed forms of the two baseline squarers."""
    if design == "thapliyal":
        qubits, t_depth = n * n + 2 * n + 1, 5 * n * n - 3 * n - 2
        vals = {"t_count": 15 * n * n - 17 * n + 2, "t_depth": t_depth,
                "cnot_count": 17 * n * n - 23 * n + 8,
                "cnot_depth": 14 * n * n - 14 * n + 2}
    else:  # nagamani-osu
        qubits, t_depth = (n * n + 5 * n + 4) // 2, 8 * n * n - 6 * n - 8
        vals = {"t_count": 22 * n * n - 24 * n - 12, "t_depth": t_depth,
                "cnot_count": 24 * n * n - 52 * n - 6,
                "cnot_depth": 21 * n * n - 21 * n - 12}
    return {**vals, "qubits": qubits, "kq_t": qubits * t_depth}


def built_counts(n: int) -> dict[str, int]:
    """T, CNOT and qubit counts of the circuit qsq builds: the closed form
    shifted by the offsets observed at every width checked (5..128)."""
    cf = proposed_closed_form(n)
    half = n // 2
    return {"t_count": cf["t_count"] - 4 * (half - 1),
            "cnot_count": cf["cnot_count"] - (6 * half - 9),
            "qubits": cf["qubits"] + (n - 1) // 2}


_PSEUDO = frozenset({"prep0", "prepT"})
_T_KINDS = frozenset({"t", "tdg"})


def asap_depths(gates) -> tuple[int, int]:
    """(T-depth, CNOT-depth) of a primitive gate list by greedy ASAP layering.

    Gates keep their order on each wire.  Preparations take no layer.  A
    cx may join the layer of an earlier cx with the same control when
    nothing touched that control in between and its target is free by
    then (one multi-target fan-out).  A classically controlled gate comes
    after the measurement that writes its bit.
    """
    last: dict[int, int] = {}
    fanout: dict[int, int] = {}
    measured: dict[int, int] = {}
    t_layers: set[int] = set()
    cx_layers: set[int] = set()
    for kind, wires, cbit in gates:
        if kind in _PSEUDO:
            continue
        if kind == "cx":
            c, tg = wires
            open_layer = fanout.get(c)
            if open_layer is not None and last.get(tg, 0) < open_layer:
                layer = open_layer
            else:
                layer = max(last.get(c, 0), last.get(tg, 0)) + 1
            last[c] = max(last.get(c, 0), layer)
            last[tg] = layer
            fanout[c] = layer
            fanout.pop(tg, None)
            cx_layers.add(layer)
            continue
        layer = 1 + max(last.get(w, 0) for w in wires)
        if kind == "ccz_classical":
            layer = max(layer, measured.get(cbit, 0) + 1)
        for w in wires:
            last[w] = layer
            fanout.pop(w, None)
        if kind == "mx":
            measured[cbit] = layer
        elif kind in _T_KINDS:
            t_layers.add(layer)
    return len(t_layers), len(cx_layers)


# ---- parsers -------------------------------------------------------------

_QUBIT = re.compile(r"q\[(\d+)\]")
_CBIT = re.compile(r"c\[(\d+)\]")


def parse_json_netlist(path: Path) -> tuple[int, list[tuple]]:
    """(wire count, [(kind, wires, cbit)]) read with the json module."""
    data = json.loads(path.read_text(encoding="utf-8"))
    gates = [(g["kind"], tuple(g["wires"]), g.get("cbit")) for g in data["gates"]]
    return int(data["wires"]), gates


def parse_qasm(path: Path) -> tuple[int, list[tuple]]:
    """(wire count, [(kind, wires, cbit)]) read line by line."""
    wires = -1
    gates: list[tuple] = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("//") or line.startswith("creg "):
                continue
            if line.startswith("qreg "):
                wires = int(_QUBIT.search(line).group(1))
                continue
            kind, _, rest = line.partition(" ")
            cbits = _CBIT.findall(rest)
            gates.append((kind, tuple(int(q) for q in _QUBIT.findall(rest)),
                          int(cbits[0]) if cbits else None))
    return wires, gates


def circuit_costs(wires: int, gates: list[tuple]) -> dict[str, int]:
    """The five cost metrics of a parsed primitive circuit, plus its count
    of macro gates (which a primitive export must not hold)."""
    kinds: dict[str, int] = {}
    for kind, _, _ in gates:
        kinds[kind] = kinds.get(kind, 0) + 1
    t_depth, cnot_depth = asap_depths(gates)
    return {"t_count": kinds.get("t", 0) + kinds.get("tdg", 0), "t_depth": t_depth,
            "cnot_count": kinds.get("cx", 0), "cnot_depth": cnot_depth,
            "qubits": wires,
            "macros": sum(v for k, v in kinds.items() if k.startswith("macro_"))}


def cost_problems(n: int, costs: dict[str, int]) -> list[str]:
    """Differences between an exported circuit's costs and the references."""
    problems = []
    if costs["macros"]:
        problems.append(f"n={n}: {costs['macros']} macro gates in a primitive export")
    for metric, want in built_counts(n).items():
        if costs[metric] != want:
            problems.append(f"n={n}: {metric} {costs[metric]}, expected {want}")
    closed = proposed_closed_form(n)
    for metric in ("t_depth", "cnot_depth"):
        if not 0 < costs[metric] <= closed[metric]:
            problems.append(f"n={n}: {metric} {costs[metric]} outside 1..{closed[metric]}")
    return problems


# ---- workloads -----------------------------------------------------------

class Verdict:
    """Outcome of checking one repetition: failed commands with the first
    reason for each, the work done, and the circuit cost metrics."""

    def __init__(self) -> None:
        self.failures: dict[int, str] = {}
        self.work = 0
        self.costs: dict[str, int] = {}

    def fail(self, command: int, reason: str) -> None:
        self.failures.setdefault(command, reason)


def _expect_exit(verdict: Verdict, rcs: list, command: int, want: int) -> None:
    if rcs[command] != want:
        verdict.fail(command, f"exit code {rcs[command]}, expected {want}")


class CostsSweep:
    """``compare LO..HI --measured --csv``; work is widths reconciled."""

    name = "costs-sweep"

    def __init__(self, tmp: Path, seed: int, lo: int = 5, hi: int = 64) -> None:
        self.lo, self.hi = lo, hi
        self.csv = tmp / "costs.csv"
        self.commands = [["compare", f"{lo}..{hi}", "--measured", "--csv", self.csv.name]]
        self.outputs = {self.csv: 0}
        self.refs: list[list[str]] = []

    def check(self, rcs: list) -> Verdict:
        v = Verdict()
        v.work = self.hi - self.lo + 1
        _expect_exit(v, rcs, 0, 0)
        if not self.csv.is_file():
            v.fail(0, "no CSV written")
            return v
        with self.csv.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        try:
            table = {(int(r["n"]), r["design"], r["metric"]): r for r in rows}
        except (KeyError, ValueError) as exc:
            v.fail(0, f"CSV unreadable ({exc!r})")
            return v
        if len(table) != len(rows) or len(rows) != (self.hi - self.lo + 1) * 3 * 6:
            v.fail(0, f"{len(rows)} CSV rows, {len(table)} distinct")
        for n in range(self.lo, self.hi + 1):
            closed = {"proposed": proposed_closed_form(n),
                      "thapliyal": baseline_closed_form("thapliyal", n),
                      "nagamani-osu": baseline_closed_form("nagamani-osu", n)}
            try:
                for design, metrics in closed.items():
                    for metric, want in metrics.items():
                        got = int(table[(n, design, metric)]["closed_form"])
                        if got != want:
                            v.fail(0, f"n={n} {design} {metric}: closed form {got}, "
                                      f"expected {want}")
                measured = {m: int(table[(n, "proposed", m)]["measured"])
                            for m in closed["proposed"]}
                deltas = {m: int(table[(n, "proposed", m)]["delta"])
                          for m in closed["proposed"]}
            except (KeyError, ValueError) as exc:
                v.fail(0, f"n={n}: row missing or unreadable ({exc!r})")
                continue
            for metric, want in built_counts(n).items():
                if measured[metric] != want:
                    v.fail(0, f"n={n}: measured {metric} {measured[metric]}, expected {want}")
            for metric in ("t_depth", "cnot_depth"):
                if not 0 < measured[metric] <= closed["proposed"][metric]:
                    v.fail(0, f"n={n}: measured {metric} {measured[metric]} above "
                              f"the sequential {closed['proposed'][metric]}")
            if measured["kq_t"] != measured["qubits"] * measured["t_depth"]:
                v.fail(0, f"n={n}: measured kq_t is not qubits x t_depth")
            for metric, d in deltas.items():
                if d != measured[metric] - closed["proposed"][metric]:
                    v.fail(0, f"n={n}: {metric} delta {d} is not measured - closed form")
            if n == self.hi:
                v.costs = {m: measured[m] for m in COST_METRICS}
        return v


class Export:
    """``synth N --format json --expanded`` then ``synth N --format qasm``;
    work is primitive gate records written."""

    name = "export-128"

    def __init__(self, tmp: Path, seed: int, n: int = 128) -> None:
        self.n = n
        self.json = tmp / f"squarer{n}.json"
        self.qasm = tmp / f"squarer{n}.qasm"
        self.commands = [
            ["synth", str(n), "--format", "json", "--expanded", "--out", self.json.name],
            ["synth", str(n), "--format", "qasm", "--out", self.qasm.name],
        ]
        self.outputs = {self.json: 0, self.qasm: 1}
        self.refs: list[list[str]] = []

    def check(self, rcs: list) -> Verdict:
        v = Verdict()
        parsed = {}
        for command, (path, parse) in enumerate(((self.json, parse_json_netlist),
                                                 (self.qasm, parse_qasm))):
            _expect_exit(v, rcs, command, 0)
            try:
                parsed[command] = parse(path)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                v.fail(command, f"{path.name} unreadable ({exc!r})")
        if len(parsed) < 2:
            return v
        v.work = len(parsed[0][1]) + len(parsed[1][1])
        if parsed[0] != parsed[1]:
            for command in (0, 1):
                v.fail(command, "JSON and QASM describe different circuits")
            return v
        costs = circuit_costs(*parsed[0])
        for problem in cost_problems(self.n, costs):
            for command in (0, 1):
                v.fail(command, problem)
        v.costs = {m: costs[m] for m in COST_METRICS}
        return v


class VerifyExhaustive:
    """``verify LO..HI --mode both`` plus ``--mutate drop-gate:K`` runs
    for ``mutants`` values of K drawn by the seed (all of them by
    default); work is basis inputs checked.

    A mutant must fail at exactly the widths where gate K is not a
    ``prep0`` (dropping a preparation of a wire that is already 0 changes
    nothing), read from the macro-level ``synth n --format json``.
    Costs are those of the widest circuit verified, from an exported
    ``synth HI --format qasm``.
    """

    name = "verify-exhaustive"

    def __init__(self, tmp: Path, seed: int, lo: int = 5, hi: int = 16,
                 mutants: int = MUTANT_GATE_RANGE) -> None:
        self.lo, self.hi = lo, hi
        self.ks = random.Random(seed).sample(range(MUTANT_GATE_RANGE), mutants)
        rng = f"{lo}..{hi}"
        self.reports = [tmp / "verify.json"] + [tmp / f"mutant{k}.json" for k in self.ks]
        self.commands = [["verify", rng, "--mode", "both", "--report", self.reports[0].name]]
        self.commands += [["verify", rng, "--mutate", f"drop-gate:{k}", "--report", p.name]
                          for k, p in zip(self.ks, self.reports[1:])]
        self.outputs = {p: i for i, p in enumerate(self.reports)}
        self.ref_json = {n: tmp / f"ref{n}.json" for n in range(lo, hi + 1)}
        self.ref_qasm = tmp / f"ref{hi}.qasm"
        self.refs = [["synth", str(n), "--format", "json", "--out", p.name]
                     for n, p in self.ref_json.items()]
        self.refs.append(["synth", str(hi), "--format", "qasm", "--out", self.ref_qasm.name])
        self._expected: dict[int, set[int]] | None = None
        self._ref_problems: list[str] = []
        self.costs: dict[str, int] = {}

    def _load_refs(self) -> None:
        try:
            kinds = {n: [g["kind"] for g in json.loads(p.read_text())["gates"]]
                     for n, p in self.ref_json.items()}
            self._expected = {k: {n for n, gate_kinds in kinds.items()
                                  if gate_kinds[k] != "prep0"} for k in self.ks}
            costs = circuit_costs(*parse_qasm(self.ref_qasm))
        except (OSError, ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            self._expected = {}
            self._ref_problems = [f"reference unreadable ({exc!r})"]
            return
        self._ref_problems = cost_problems(self.hi, costs)
        self.costs = {m: costs[m] for m in COST_METRICS}

    def check(self, rcs: list) -> Verdict:
        if self._expected is None:
            self._load_refs()
        v = Verdict()
        if self._ref_problems:
            for command in range(len(self.commands)):
                v.fail(command, self._ref_problems[0])
            return v
        v.costs = dict(self.costs)
        basis = sum(2**n for n in range(self.lo, self.hi + 1))
        for command, path in enumerate(self.reports):
            try:
                report = json.loads(path.read_text(encoding="utf-8"))
                failed_ns = {m["input"]["n"] for m in report["mismatches"]}
                checked = int(report["inputs_checked"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                v.fail(command, f"{path.name} unreadable ({exc!r})")
                continue
            v.work += checked
            if command == 0:
                _expect_exit(v, rcs, 0, 0)
                want_ns, want_checked = set(), basis + BLOCK_BATTERY_INPUTS
            else:
                want_ns, want_checked = self._expected[self.ks[command - 1]], basis
                _expect_exit(v, rcs, command, 3 if want_ns else 0)
            if want_ns - failed_ns:
                v.fail(command, f"mutant undetected at n={sorted(want_ns - failed_ns)}")
            if failed_ns - want_ns:
                v.fail(command, f"failures reported at n={sorted(failed_ns - want_ns)}")
            if checked != want_checked:
                v.fail(command, f"inputs_checked {checked}, expected {want_checked}")
        return v


WORKLOADS = {w.name: w for w in (CostsSweep, Export, VerifyExhaustive)}
