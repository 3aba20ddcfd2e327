"""Two verification engines for netlists.

The basis engine evaluates macro-level netlists (X, CNOT, preparations,
and the three macro ops) under classical reversible semantics.  It
deliberately refuses expanded Clifford+T gates: macro semantics are the
verification contract, and the statevector engine certifies that the
Clifford+T expansion, of one block or of the whole circuit, agrees with
them, phase included.  There is one basis engine, and it is bit-sliced:
each wire is one Python int, its bit plane, whose bit k is the wire's
value for input k (lane k), so one ``^`` or ``&`` moves every input
through a gate at once.  A single input is the one-lane case, and
``lane_planes`` builds the planes of an exhaustive sweep.  In-place
additions ripple a carry plane bit position by bit position, so adders
of any width are exact.

The statevector engine runs expanded Clifford+T netlists of any width
on a sparse state: a dict from basis bitmask (bit w = wire w) to
amplitude.  Gidney's temporary AND and its measurement-based uncompute
keep only a few terms alive, so the whole expanded squarer stays small;
a state of more than ``MAX_TERMS`` terms raises rather than exhausting
memory.  It walks the netlist's gate columns (``Netlist.columns``)
rather than building a ``Gate`` per gate and input.  X-basis
measurement is handled by branch exploration (or a forced outcome for
deterministic replay) and classically controlled CZ is applied per
branch.  Measured wires are consumed: the
post-measurement ancilla is reset to |0> before execution continues.
Equivalence checks on expanded netlists compare phase too: every branch
must end in the expected basis state with amplitude 1.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Mapping, NamedTuple

from .ir import AddInPlace, Gate, LogicalAnd, Netlist, UncomputeAnd, _same_type_eq, _same_type_ne

MAX_TERMS = 1 << 12  # as many amplitudes as a dense 12-wire state holds
NORM_TOL = 1e-9
AMP_TOL = 1e-9


class SimulationError(Exception):
    """Base for simulation failures."""


class NonClassicalGateError(SimulationError):
    """Basis mode met a gate without classical reversible semantics."""


class UncomputeMisuseError(SimulationError):
    """Uncompute-AND applied to a wire not holding x AND y."""


class TermBudgetError(SimulationError):
    """Statevector grew past ``MAX_TERMS`` nonzero amplitudes."""


class NormDriftError(SimulationError):
    """Statevector norm drifted beyond tolerance."""


# ---- basis-state engine ----------------------------------------------------

class SweepResult(NamedTuple):
    """Bit-plane basis run: ``wires[w]`` is wire w's plane, a non-negative
    int whose bit k is the wire's value in lane k, and
    ``would_be_carries[gate_index]`` the plane of carries dropped by that
    carry-less addition."""

    wires: dict[int, int]
    would_be_carries: dict[int, int]
    lanes: int

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


def lane_planes(n: int) -> list[int]:
    """The n input planes of the exhaustive sweep: lane k holds input k,
    for all 2**n inputs (plane i is bit i of the lane index).

    Built by doubling: the planes of 2L lanes are those of L lanes, each
    repeated in the upper half, plus a new top plane set in the upper half.
    """
    planes: list[int] = []
    for k in range(n):
        lanes = 1 << k
        planes = [p | p << lanes for p in planes] + [((1 << lanes) - 1) << lanes]
    return planes


def run_basis_sweep(netlist: Netlist, inputs: Mapping[int, int],
                    lanes: int) -> SweepResult:
    """Classical reversible evaluation of a macro-level netlist over many
    basis inputs at once, bit-sliced: ``inputs`` maps a wire to its plane
    (bit k = the wire's value in lane k), and every gate acts on all
    lanes with one or a few int operations.  One lane is one basis input.

    Unassigned wires start at 0.  Expanded Clifford+T gates are
    rejected; run the unexpanded netlist or use the statevector engine.
    """
    full = (1 << lanes) - 1
    bits = [0] * netlist.wire_count
    for w, plane in inputs.items():
        if not 0 <= plane <= full:
            raise ValueError(f"plane of wire {w} does not fit in {lanes} lanes")
        bits[w] = plane
    carries: dict[int, int] = {}
    for idx, op in enumerate(netlist.gates):
        if isinstance(op, Gate):
            if op.kind == "cx":
                bits[op.wires[1]] ^= bits[op.wires[0]]
            elif op.kind == "x":
                bits[op.wires[0]] ^= full
            elif op.kind == "prep0":
                if bits[op.wires[0]]:
                    raise SimulationError(
                        f"prep0 on non-zero wire {op.wires[0]} at gate {idx}")
            else:
                raise NonClassicalGateError(
                    f"non-classical gate {op.kind!r} in basis mode at gate {idx}")
        elif isinstance(op, LogicalAnd):
            if bits[op.target]:
                raise SimulationError(
                    f"logical-AND target wire {op.target} not fresh at gate {idx}")
            bits[op.target] = bits[op.x] & bits[op.y]
        elif isinstance(op, UncomputeAnd):
            bad = bits[op.target] ^ (bits[op.x] & bits[op.y])
            if bad:
                raise UncomputeMisuseError(
                    f"uncompute-misuse at gate {idx}, "
                    f"first lane {(bad & -bad).bit_length() - 1}")
            bits[op.target] = 0
        elif isinstance(op, AddInPlace):
            # ripple carry over whole planes, one bit position at a time
            carry = 0
            for wa, wb in zip(op.a_wires, op.b_wires):
                a, b = bits[wa], bits[wb]
                s = a ^ b
                bits[wb] = s ^ carry
                carry = (a & b) | (carry & s)
            if op.carry_out is not None:
                if bits[op.carry_out]:
                    raise SimulationError(f"carry-out wire {op.carry_out} not fresh")
                bits[op.carry_out] = carry
            else:
                carries[idx] = carry
    return SweepResult(dict(enumerate(bits)), carries, lanes)


# ---- statevector engine -----------------------------------------------------

_SQRT_HALF = math.sqrt(0.5)
_PHASES = {"z": -1, "s": 1j, "sdg": -1j,
           "t": cmath.exp(1j * math.pi / 4), "tdg": cmath.exp(-1j * math.pi / 4)}
_RESIDUE = 1e-12  # amplitudes this small are rounding left by exact cancellation


class Branch(NamedTuple):
    """One measurement branch: the sparse state (basis bitmask, bit w =
    wire w -> amplitude), classical bits, and the branch probability."""

    state: dict[int, complex]
    cbits: dict[int, int]
    probability: float

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    def wire_bits(self, wire_count: int) -> dict[int, int]:
        """Read the state as a computational basis assignment of
        ``wire_count`` wires; raises unless exactly one term is left."""
        if len(self.state) != 1:
            raise SimulationError("state is not a computational basis vector")
        (mask,) = self.state
        return {w: (mask >> w) & 1 for w in range(wire_count)}


def _apply(state: dict[int, complex], kind: str, w0: int, w1: int = -1) -> dict[int, complex]:
    """One unitary gate (h, x, z, s, sdg, t, tdg, cx, cz) on a sparse
    state; ``w1`` is the second wire of cx and cz."""
    bit = 1 << w0
    if kind == "x":
        return {m ^ bit: a for m, a in state.items()}
    if kind == "cx":
        target = 1 << w1
        return {m ^ target if m & bit else m: a for m, a in state.items()}
    if kind == "cz":
        both = bit | 1 << w1
        return {m: -a if m & both == both else a for m, a in state.items()}
    if kind == "h":
        out: dict[int, complex] = {}
        for m, a in state.items():
            a *= _SQRT_HALF
            low = m & ~bit
            out[low] = out.get(low, 0) + a
            out[low | bit] = out.get(low | bit, 0) + (-a if m & bit else a)
        return {m: a for m, a in out.items() if abs(a) > _RESIDUE}
    if kind in _PHASES:
        phase = _PHASES[kind]
        return {m: a * phase if m & bit else a for m, a in state.items()}
    raise SimulationError(f"gate {kind!r} not supported in statevector mode")


def _check(state: dict[int, complex]) -> None:
    if len(state) > MAX_TERMS:
        raise TermBudgetError(f"{len(state)} basis terms exceed the {MAX_TERMS}-term limit")
    norm = math.sqrt(sum(abs(a) ** 2 for a in state.values()))
    if abs(norm - 1.0) > NORM_TOL:
        raise NormDriftError(f"statevector norm drifted to {norm}")


def _initial_state(wire_count: int, initial: Mapping[int, object] | None) -> dict[int, complex]:
    initial = initial or {}
    state: dict[int, complex] = {0: 1}
    for w in range(wire_count):
        spec = initial.get(w, 0)
        if spec == 1:
            state = _apply(state, "x", w)
        elif spec == "T":
            state = _apply(_apply(state, "h", w), "t", w)
        elif spec != 0:
            raise ValueError(f"unknown initial spec {spec!r} for wire {w}")
    _check(state)
    return state


def _measure_x(state: dict[int, complex], wire: int,
               outcome: int) -> tuple[dict[int, complex], float]:
    """Project onto |+> (outcome 0) or |-> (outcome 1), renormalize, and
    reset the measured wire to |0>.  Returns (state, branch probability).

    H maps |+>, |-> to |0>, |1>, so this is H, then a computational-basis
    projection onto ``outcome``."""
    kept = {m & ~(1 << wire): a for m, a in _apply(state, "h", wire).items()
            if (m >> wire) & 1 == outcome}
    prob = sum(abs(a) ** 2 for a in kept.values())
    if prob < 1e-12:
        return {}, 0.0
    scale = 1 / math.sqrt(prob)
    return {m: a * scale for m, a in kept.items()}, prob


def run_statevector(netlist: Netlist, initial: Mapping[int, object] | None = None,
                    branch: str = "explore") -> list[Branch]:
    """Exact simulation of a fully expanded netlist on a sparse state.

    ``initial`` maps wires to 0, 1 or "T" (default 0).  ``branch`` is
    "explore" (follow every measurement outcome; returns one Branch per
    surviving combination), "forced-0" or "forced-1".  Raises
    ``TermBudgetError`` once a state holds more than ``MAX_TERMS`` terms.
    """
    if netlist.has_macros:
        raise SimulationError("statevector mode needs a fully expanded netlist")
    if branch not in ("explore", "forced-0", "forced-1"):
        raise ValueError(f"unknown branch policy {branch!r}")

    branches = [Branch(_initial_state(netlist.wire_count, initial), {}, 1.0)]
    for kind, w0, w1, cbit in netlist.columns().rows():
        nxt: list[Branch] = []
        for br in branches:
            state = br.state
            if kind in ("prep0", "prepT"):
                if sum(abs(a) ** 2 for m, a in state.items() if (m >> w0) & 1) > AMP_TOL:
                    raise SimulationError(f"{kind} on non-|0> wire {w0}")
                if kind == "prepT":
                    state = _apply(_apply(state, "h", w0), "t", w0)
            elif kind == "ccz_classical":
                if br.cbits[cbit]:
                    state = _apply(state, "cz", w0, w1)
            elif kind == "mx":
                outcomes = (0, 1) if branch == "explore" else (int(branch[-1]),)
                for outcome in outcomes:
                    post, prob = _measure_x(state, w0, outcome)
                    if prob == 0.0:
                        if branch != "explore":
                            raise SimulationError(
                                f"forced outcome {outcome} has zero amplitude")
                        continue
                    _check(post)
                    nxt.append(Branch(post, {**br.cbits, cbit: outcome},
                                      br.probability * prob))
                continue
            else:
                state = _apply(state, kind, w0, w1)
            _check(state)
            nxt.append(Branch(state, br.cbits, br.probability))
        branches = nxt
    return branches


def states_equal(a: Mapping[int, complex], b: Mapping[int, complex],
                 tol: float = AMP_TOL) -> bool:
    """Amplitude-wise equality of two sparse states after fixing the
    global phase of each by its nonzero amplitude of lowest bitmask."""

    def fix(v: Mapping[int, complex]) -> dict[int, complex]:
        v = {m: a for m, a in v.items() if abs(a) > tol}
        if not v:
            return v
        ref = v[min(v)]
        return {m: a * (abs(ref) / ref) for m, a in v.items()}

    fa, fb = fix(a), fix(b)
    return all(abs(fa.get(m, 0) - fb.get(m, 0)) <= tol for m in fa.keys() | fb.keys())


def basis_state(wire_bits: Mapping[int, int]) -> dict[int, complex]:
    """Sparse computational basis state with the given wire values."""
    return {sum((v & 1) << w for w, v in wire_bits.items()): 1}


# ---- equivalence checking ---------------------------------------------------

class EquivalenceReport(NamedTuple):
    """Exhaustive comparison outcome; serializes to
    {"inputs_checked": N, "mismatches": [...]}."""

    inputs_checked: int
    mismatches: list[dict]

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

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
    must reproduce the expected basis state with amplitude 1, so a wrong
    phase is a mismatch too.
    """
    input_wires = tuple(input_wires)
    use_statevector = any(
        isinstance(op, Gate) and op.kind not in ("x", "cx", "prep0")
        for op in netlist.gates)

    mismatches: list[dict] = []
    total = 1 << len(input_wires)
    sweep = None if use_statevector else run_basis_sweep(
        netlist, dict(zip(input_wires, lane_planes(len(input_wires)))), total)
    for value in range(total):
        assignment = {w: (value >> i) & 1 for i, w in enumerate(input_wires)}
        expected = reference(dict(assignment))
        if use_statevector:
            got: dict[int, int] | None = None
            for br in run_statevector(netlist, initial=assignment, branch="explore"):
                bits = br.wire_bits(netlist.wire_count)
                (amplitude,) = br.state.values()
                got = bits if got is None else got
                if (any(bits[w] != v for w, v in expected.items()) or bits != got
                        or abs(amplitude - 1) > AMP_TOL):
                    mismatches.append({"input": assignment, "expected": dict(expected),
                                       "got": {**bits, "amplitude": f"{amplitude:.6g}"}})
                    break
        else:
            got = {w: (sweep.wires[w] >> value) & 1 for w in expected}
            if got != expected:
                mismatches.append({"input": assignment, "expected": dict(expected),
                                   "got": got})
    return EquivalenceReport(total, mismatches)
