"""Two verification engines for netlists.

The basis engine evaluates macro-level netlists (X, CNOT, preparations,
and the three macro ops) under classical reversible semantics.  It
deliberately refuses expanded Clifford+T gates: macro semantics are the
verification contract for whole circuits, and the statevector engine
certifies at small width that each block's Clifford+T expansion agrees
with its macro semantics.  There is one basis engine: it sweeps many
basis inputs at once, one bool numpy lane per input, and a single input
is the one-lane case.  In-place additions ripple a carry through the
lanes bit by bit, so adders of any width are exact.

The statevector engine applies exact unitaries over at most 12 wires,
with X-basis measurement handled by branch exploration (or a forced
outcome for deterministic replay) and classically controlled CZ applied
per branch.  Measured wires are consumed: the post-measurement ancilla
is reset to |0> before execution continues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .ir import AddInPlace, Gate, LogicalAnd, Netlist, UncomputeAnd

STATEVECTOR_WIRE_LIMIT = 12
NORM_TOL = 1e-9
AMP_TOL = 1e-9


class SimulationError(Exception):
    """Base for simulation failures."""


class NonClassicalGateError(SimulationError):
    """Basis mode met a gate without classical reversible semantics."""


class UncomputeMisuseError(SimulationError):
    """Uncompute-AND applied to a wire not holding x AND y."""


class WireBudgetError(SimulationError):
    """Netlist too wide for exact statevector simulation."""


class NormDriftError(SimulationError):
    """Statevector norm drifted beyond tolerance."""


# ---- basis-state engine ----------------------------------------------------

@dataclass
class BasisResult:
    """Final wire values plus the would-be carry bit of every carry-less
    in-place addition (gate index -> bit), used by no-overflow checks."""

    wires: dict[int, int]
    would_be_carries: dict[int, int] = field(default_factory=dict)


def run_basis(netlist: Netlist, inputs: Mapping[int, int]) -> BasisResult:
    """One basis input: the one-lane case of ``run_basis_sweep``."""
    res = run_basis_sweep(netlist, {w: [v & 1] for w, v in inputs.items()}, 1)
    return BasisResult({w: int(lane[0]) for w, lane in res.wires.items()},
                       {idx: int(c[0]) for idx, c in res.would_be_carries.items()})


@dataclass
class SweepResult:
    """Vectorized basis run: ``wires[w]`` is a bool lane array, and
    ``would_be_carries[gate_index]`` the per-lane dropped carry bits."""

    wires: dict[int, np.ndarray]
    would_be_carries: dict[int, np.ndarray]
    lanes: int


def run_basis_sweep(netlist: Netlist, inputs: Mapping[int, np.ndarray],
                    lanes: int) -> SweepResult:
    """Classical reversible evaluation of a macro-level netlist over many
    basis inputs at once (one lane per input).

    Unassigned wires start at 0.  Expanded Clifford+T gates are
    rejected; run the unexpanded netlist or use the statevector engine.
    """
    bits = np.zeros((netlist.wire_count, lanes), dtype=bool)
    for w, lane in inputs.items():
        bits[w] = np.asarray(lane, dtype=bool)
    carries: dict[int, np.ndarray] = {}
    for idx, op in enumerate(netlist.gates):
        if isinstance(op, Gate):
            if op.kind == "x":
                bits[op.wires[0]] ^= True
            elif op.kind == "cx":
                bits[op.wires[1]] ^= bits[op.wires[0]]
            elif op.kind == "prep0":
                if bits[op.wires[0]].any():
                    raise SimulationError(
                        f"prep0 on non-zero wire {op.wires[0]} at gate {idx}")
            else:
                raise NonClassicalGateError(
                    f"non-classical gate {op.kind!r} in basis mode at gate {idx}")
        elif isinstance(op, LogicalAnd):
            if bits[op.target].any():
                raise SimulationError(
                    f"logical-AND target wire {op.target} not fresh at gate {idx}")
            bits[op.target] = bits[op.x] & bits[op.y]
        elif isinstance(op, UncomputeAnd):
            bad = bits[op.target] != (bits[op.x] & bits[op.y])
            if bad.any():
                raise UncomputeMisuseError(
                    f"uncompute-misuse at gate {idx}, first lane {int(np.argmax(bad))}")
            bits[op.target] = False
        elif isinstance(op, AddInPlace):
            # ripple carry, one bit position at a time: no width limit
            carry = np.zeros(lanes, dtype=bool)
            for wa, wb in zip(op.a_wires, op.b_wires):
                a, b = bits[wa], bits[wb]
                carry, bits[wb] = (a & b) | (carry & (a ^ b)), a ^ b ^ carry
            if op.carry_out is not None:
                if bits[op.carry_out].any():
                    raise SimulationError(f"carry-out wire {op.carry_out} not fresh")
                bits[op.carry_out] = carry
            else:
                carries[idx] = carry
    return SweepResult({w: bits[w] for w in range(netlist.wire_count)}, carries, lanes)


def pack_wires(result_wires: Mapping[int, int], wires: Iterable[int]) -> int:
    """Little-endian integer read off the given wires."""
    return sum((result_wires[w] & 1) << i for i, w in enumerate(wires))


# ---- statevector engine -----------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_GATES_1Q = {
    "h": _H,
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
}


@dataclass
class Branch:
    """One measurement branch: exact state (2^w amplitudes, wire 0 on the
    most significant axis), classical bits, and the branch probability."""

    state: np.ndarray
    cbits: dict[int, int]
    probability: float

    def wire_bits(self, tol: float = AMP_TOL) -> dict[int, int]:
        """Read the state as a computational basis assignment; raises if
        the state is not a basis vector (up to global phase)."""
        flat = self.state.reshape(-1)
        k = int(np.argmax(np.abs(flat)))
        if abs(abs(flat[k]) - 1.0) > math.sqrt(tol):
            raise SimulationError("state is not a computational basis vector")
        w = int(round(math.log2(flat.size)))
        return {i: (k >> (w - 1 - i)) & 1 for i in range(w)}


def _apply_1q(state: np.ndarray, mat: np.ndarray, wire: int) -> np.ndarray:
    state = np.moveaxis(state, wire, -1)
    state = state @ mat.T
    return np.moveaxis(state, -1, wire)


def _apply_cx(state: np.ndarray, control: int, target: int) -> np.ndarray:
    state = state.copy()
    idx0: list = [slice(None)] * state.ndim
    idx0[control] = 1
    idx1 = list(idx0)
    idx0[target] = 0
    idx1[target] = 1
    state[tuple(idx0)], state[tuple(idx1)] = (
        state[tuple(idx1)].copy(), state[tuple(idx0)].copy())
    return state


def _apply_cz(state: np.ndarray, a: int, b: int) -> np.ndarray:
    state = state.copy()
    idx: list = [slice(None)] * state.ndim
    idx[a] = 1
    idx[b] = 1
    state[tuple(idx)] *= -1
    return state


def _check_norm(state: np.ndarray) -> None:
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > NORM_TOL:
        raise NormDriftError(f"statevector norm drifted to {norm}")


def _initial_state(wire_count: int, initial: Mapping[int, object] | None) -> np.ndarray:
    initial = initial or {}
    vecs = []
    for w in range(wire_count):
        spec = initial.get(w, 0)
        if spec in (0, "0", "zero"):
            vecs.append(np.array([1, 0], dtype=complex))
        elif spec in (1, "1"):
            vecs.append(np.array([0, 1], dtype=complex))
        elif spec in ("T", "magicT"):
            vecs.append(np.array([1, np.exp(1j * math.pi / 4)], dtype=complex) / math.sqrt(2))
        else:
            raise ValueError(f"unknown initial spec {spec!r} for wire {w}")
    state = vecs[0]
    for v in vecs[1:]:
        state = np.tensordot(state, v, axes=0)
    return state.reshape((2,) * wire_count)


def _measure_x(state: np.ndarray, wire: int, outcome: int) -> tuple[np.ndarray, float]:
    """Project onto |+> (outcome 0) or |-> (outcome 1), renormalize, and
    reset the measured wire to |0>.  Returns (state, branch probability)."""
    plus = np.take(state, 0, axis=wire) + (1 if outcome == 0 else -1) * np.take(state, 1, axis=wire)
    plus = plus / math.sqrt(2)
    prob = float(np.sum(np.abs(plus) ** 2))
    if prob < 1e-12:
        return plus, 0.0
    rest = plus / math.sqrt(prob)
    out = np.zeros(state.shape, dtype=complex)
    idx: list = [slice(None)] * state.ndim
    idx[wire] = 0
    out[tuple(idx)] = rest
    return out, prob


def run_statevector(netlist: Netlist, initial: Mapping[int, object] | None = None,
                    branch: str = "explore") -> list[Branch]:
    """Exact simulation of a fully expanded netlist of at most 12 wires.

    ``initial`` maps wires to 0, 1 or "T" (default 0).  ``branch`` is
    "explore" (follow every measurement outcome; returns one Branch per
    surviving combination), "forced-0" or "forced-1".
    """
    if netlist.has_macros:
        raise SimulationError("statevector mode needs a fully expanded netlist")
    w = netlist.wire_count
    if w > STATEVECTOR_WIRE_LIMIT:
        raise WireBudgetError(f"{w} wires exceed the {STATEVECTOR_WIRE_LIMIT}-wire limit")
    if branch not in ("explore", "forced-0", "forced-1"):
        raise ValueError(f"unknown branch policy {branch!r}")

    branches = [Branch(_initial_state(w, initial), {}, 1.0)]
    for op in netlist.gates:
        nxt: list[Branch] = []
        for br in branches:
            state = br.state
            if op.kind in _GATES_1Q:
                state = _apply_1q(state, _GATES_1Q[op.kind], op.wires[0])
            elif op.kind == "cx":
                state = _apply_cx(state, *op.wires)
            elif op.kind == "cz":
                state = _apply_cz(state, *op.wires)
            elif op.kind == "ccz_classical":
                if br.cbits[op.cbit]:
                    state = _apply_cz(state, *op.wires)
            elif op.kind == "prep0":
                mass = float(np.sum(np.abs(np.take(state, 1, axis=op.wires[0])) ** 2))
                if mass > AMP_TOL:
                    raise SimulationError(f"prep0 on non-|0> wire {op.wires[0]}")
            elif op.kind == "prepT":
                mass = float(np.sum(np.abs(np.take(state, 1, axis=op.wires[0])) ** 2))
                if mass > AMP_TOL:
                    raise SimulationError(f"prepT on non-|0> wire {op.wires[0]}")
                state = _apply_1q(state, _GATES_1Q["h"], op.wires[0])
                state = _apply_1q(state, _GATES_1Q["t"], op.wires[0])
            elif op.kind == "mx":
                outcomes = (0, 1) if branch == "explore" else (int(branch[-1]),)
                for outcome in outcomes:
                    post, prob = _measure_x(state, op.wires[0], outcome)
                    if prob == 0.0:
                        if branch != "explore":
                            raise SimulationError(
                                f"forced outcome {outcome} has zero amplitude")
                        continue
                    _check_norm(post)
                    nxt.append(Branch(post, {**br.cbits, op.cbit: outcome},
                                      br.probability * prob))
                continue
            else:
                raise SimulationError(f"gate {op.kind!r} not supported in statevector mode")
            _check_norm(state)
            nxt.append(Branch(state, br.cbits, br.probability))
        branches = nxt
    return branches


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = AMP_TOL) -> bool:
    """Amplitude-wise equality after fixing the global phase of each state
    by its first nonzero amplitude."""
    a = np.asarray(a, dtype=complex).reshape(-1)
    b = np.asarray(b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        return False

    def fix(v: np.ndarray) -> np.ndarray:
        nz = np.flatnonzero(np.abs(v) > tol)
        if nz.size == 0:
            return v
        ref = v[nz[0]]
        return v * (abs(ref) / ref)

    return bool(np.allclose(fix(a), fix(b), atol=tol, rtol=0))


def basis_state(wire_bits: Mapping[int, int], wire_count: int) -> np.ndarray:
    """Computational basis statevector with the given wire values."""
    state = np.zeros((2,) * wire_count, dtype=complex)
    state[tuple(wire_bits.get(w, 0) & 1 for w in range(wire_count))] = 1.0
    return state


# ---- equivalence checking ---------------------------------------------------

@dataclass
class EquivalenceReport:
    """Exhaustive comparison outcome; serializes to
    {"inputs_checked": N, "mismatches": [...]}."""

    inputs_checked: int
    mismatches: list[dict]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {"inputs_checked": self.inputs_checked, "mismatches": self.mismatches}


def verify_equivalence(netlist: Netlist, input_wires, reference: Callable) -> EquivalenceReport:
    """Compare a netlist against a reference over all basis inputs.

    ``reference`` maps a dict {input wire: bit} to the expected final
    bits {wire: bit} (only the wires it mentions are checked).  Macro
    netlists run on the basis engine, all inputs in one sweep; expanded
    netlists run on the statevector engine, and every measurement branch
    must reproduce the expected basis state.
    """
    input_wires = tuple(input_wires)
    use_statevector = any(
        isinstance(op, Gate) and op.kind not in ("x", "cx", "prep0")
        for op in netlist.gates)

    mismatches: list[dict] = []
    total = 1 << len(input_wires)
    values = np.arange(total)
    sweep = None if use_statevector else run_basis_sweep(
        netlist, {w: (values >> i) & 1 for i, w in enumerate(input_wires)}, total)
    for value in range(total):
        assignment = {w: (value >> i) & 1 for i, w in enumerate(input_wires)}
        expected = reference(dict(assignment))
        if use_statevector:
            got: dict[int, int] | None = None
            for br in run_statevector(netlist, initial=assignment, branch="explore"):
                bits = br.wire_bits()
                got = bits if got is None else got
                bad = {w: bits[w] for w in expected if bits[w] != expected[w]}
                if bad or bits != got:
                    mismatches.append({"input": assignment, "expected": dict(expected),
                                       "got": bits})
                    break
        else:
            got = {w: int(sweep.wires[w][value]) for w in expected}
            if got != expected:
                mismatches.append({"input": assignment, "expected": dict(expected),
                                   "got": got})
    return EquivalenceReport(total, mismatches)
