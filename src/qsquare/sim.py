"""Two verification engines for netlists, and the checks of the
squarer and its blocks that ``qsq verify`` runs on them.

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
of any width are exact, and spend an operation only where a plane can
change (``run_basis_sweep``).

The statevector engine runs expanded Clifford+T netlists of any width
exactly, on a sparse state: a dict from basis bitmask (bit w = wire w)
to an amplitude of Z[ω, 1/√2], ω = e^(iπ/4), which is (a + bω + cω² +
dω³)/√2^k, stored as the integer tuple (a, b, c, d).  The state shares
one k, implied by its tuples (their squared norms sum to 2^k), and
keeps it least, so the form is canonical: a one-term state holds a unit
ω^j, and ``state == basis_state(bits)`` tests for amplitude exactly 1.
Phase gates rotate a tuple and h adds two.  An X-basis measurement
follows every outcome (or a forced one), resets its wire to |0>, and
raises unless the outcome's probability is a power of 1/2, which it is
throughout Gidney's uncompute; the classically controlled CZ then acts
per branch.  Gidney's temporary AND keeps only a few terms alive, and a
state of more than ``MAX_TERMS`` terms raises.  ``_runnable`` refuses,
before any gate acts, a netlist with a macro left; ``_evolve``, the one
gate loop, runs the ``Gate`` tuples it returns.

Neither engine checks an op again: ``Netlist.append`` is the one way an
op enters a netlist (see ``ir``), so every op is of one of its four
types, and every gate has its kind's arity, wires in 0..wire_count-1
and, for a ``ccz_classical``, a cbit an earlier ``mx`` wrote.

``verify_equivalence`` certifies an expansion against one basis sweep
of its macro netlist, phase included: each branch must end in its
lane's basis state with amplitude exactly 1; its report is the dict
that ``--report`` writes.  It first runs ``_evolve`` once on a
superposition of every input, each basis input tagged with its lane
number in the bits from ``wire_count`` up, above every wire that
``append`` lets a gate name, so lanes never interfere.  When every
branch ends in exactly the tagged superposition of the lanes' reference
states, every input is certified, as each lane's own run would end in
its state with amplitude exactly 1.  On any other state, or any
``SimulationError`` (a superposition past ``MAX_TERMS`` among them),
that run concludes nothing, and each input runs on its own through
``run_statevector`` to write the report.

``check_squarer`` sweeps a squarer netlist, through its registers A
and P, against the planes of a and a*a (``_square_planes``, tuples
cached for the 12 widths used last, as many as the CLI's
``BASIS_RANGE``).  ``check_blocks`` certifies each ``_BLOCKS`` block's
expansion against the basis run of its macro netlist, so no expected
result is written here.
"""

from __future__ import annotations

import functools
from typing import Mapping, NamedTuple

from . import blocks
from .ir import Gate, LogicalAnd, Netlist, UncomputeAnd, _same_type_eq, _same_type_ne, expand

MAX_TERMS = 1 << 12  # as many amplitudes as a dense 12-wire state holds


class SimulationError(Exception):
    """Base for simulation failures."""


class NonClassicalGateError(SimulationError):
    """Basis mode met a gate without classical reversible semantics."""


class UncomputeMisuseError(SimulationError):
    """Uncompute-AND applied to a wire not holding x AND y."""


class TermBudgetError(SimulationError):
    """Statevector grew past ``MAX_TERMS`` nonzero amplitudes."""


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


def _doubling(n: int):
    """The input planes of 1, 2, 4, ..., 2**n lanes, in turn: those of
    2L lanes are those of L lanes, each repeated in the upper half, plus
    a new top plane set in the upper half."""
    planes: list[int] = []
    yield planes
    for k in range(n):
        lanes = 1 << k
        planes = [p | p << lanes for p in planes] + [((1 << lanes) - 1) << lanes]
        yield planes


def lane_planes(n: int) -> list[int]:
    """The n input planes of the exhaustive sweep: lane k holds input k,
    for all 2**n inputs (plane i is bit i of the lane index)."""
    for planes in _doubling(n):
        pass
    return planes


def run_basis_sweep(netlist: Netlist, inputs: Mapping[int, int],
                    lanes: int) -> SweepResult:
    """Classical reversible evaluation of a macro-level netlist over many
    basis inputs at once, bit-sliced: ``inputs`` maps a wire to its plane
    (bit k = the wire's value in lane k), and every gate acts on all
    lanes with one or a few int operations.  One lane is one basis input.

    Unassigned wires start at 0.  A ``lanes`` that is not a positive
    int (a bool is not), an input wire outside the netlist, or a plane
    that is not an int or has a bit past the last lane, raises
    ``ValueError``.

    Work follows the planes that carry data: an addition's bit position
    with a zero a plane or a zero carry plane runs a two-operation half
    adder (none when both are zero) in place of the five-operation full
    cell, and an uncompute compares its target with x AND y by ``!=``,
    building their XOR only to name the first bad lane of the
    ``UncomputeMisuseError``.
    Expanded Clifford+T gates are rejected; run the unexpanded netlist or
    use the statevector engine.  Ops dispatch on their exact type, as
    ``ir._lower``'s do, trusting ``Netlist.append`` to have taken ops of
    the four types only.
    """
    if type(lanes) is not int or lanes < 1:
        raise ValueError(f"lanes {lanes!r} is not a positive int")
    full = (1 << lanes) - 1
    bits = [0] * netlist.wire_count
    for w, plane in inputs.items():
        # a negative index would load another wire's plane
        if type(w) is not int or not 0 <= w < netlist.wire_count:
            raise ValueError(f"input wire {w!r} is not one of the netlist's "
                             f"{netlist.wire_count} wires")
        if type(plane) is not int or not 0 <= plane <= full:
            raise ValueError(f"plane {plane!r} of wire {w} is not an int that fits "
                             f"in {lanes} lanes")
        bits[w] = plane
    carries: dict[int, int] = {}
    for idx, op in enumerate(netlist.gates):
        cls = type(op)
        if cls is Gate:
            kind, wires, _ = op
            if kind == "cx":
                bits[wires[1]] ^= bits[wires[0]]
            elif kind == "x":
                bits[wires[0]] ^= full
            elif kind == "prep0":
                if bits[wires[0]]:
                    raise SimulationError(
                        f"prep0 on non-zero wire {wires[0]} at gate {idx}")
            else:
                raise NonClassicalGateError(
                    f"non-classical gate {kind!r} in basis mode at gate {idx}")
        elif cls is LogicalAnd:
            x, y, t = op
            if bits[t]:
                raise SimulationError(
                    f"logical-AND target wire {t} not fresh at gate {idx}")
            bits[t] = bits[x] & bits[y]
        elif cls is UncomputeAnd:
            x, y, t = op
            want = bits[x] & bits[y]
            if bits[t] != want:
                bad = bits[t] ^ want
                raise UncomputeMisuseError(
                    f"uncompute-misuse at gate {idx}, "
                    f"first lane {(bad & -bad).bit_length() - 1}")
            bits[t] = 0
        else:  # AddInPlace
            a_wires, b_wires, carry_out = op
            # ripple carry over whole planes, one bit position at a time;
            # a zero a or carry plane drops its terms from the full cell
            carry = 0
            for wa, wb in zip(a_wires, b_wires):
                a, b = bits[wa], bits[wb]
                if not a:
                    if carry:
                        bits[wb] = b ^ carry
                        carry &= b
                elif not carry:
                    bits[wb] = a ^ b
                    carry = a & b
                else:
                    s = a ^ b
                    bits[wb] = s ^ carry
                    carry = (a & b) | (carry & s)
            if carry_out is not None:
                if bits[carry_out]:
                    raise SimulationError(f"carry-out wire {carry_out} not fresh")
                bits[carry_out] = carry
            else:
                carries[idx] = carry
    return SweepResult(dict(enumerate(bits)), carries, lanes)


# ---- statevector engine -----------------------------------------------------

_ONE, _ZERO = (1, 0, 0, 0), (0, 0, 0, 0)
# each phase gate multiplies by a power of ω, which rotates the tuple
_PHASES = {
    "t": lambda a, b, c, d: (-d, a, b, c),     # ω
    "s": lambda a, b, c, d: (-c, -d, a, b),    # ω² = i
    "z": lambda a, b, c, d: (-a, -b, -c, -d),  # ω⁴ = -1
    "sdg": lambda a, b, c, d: (c, d, -a, -b),  # ω⁶ = -i
    "tdg": lambda a, b, c, d: (b, c, d, -a),   # ω⁷
}
# f"{complex:.6g}" of each unit ω^j, the one amplitude a one-term state holds
_UNIT_TEXT = {
    (1, 0, 0, 0): "1+0j", (0, 1, 0, 0): "0.707107+0.707107j",
    (0, 0, 1, 0): "0+1j", (0, 0, 0, 1): "-0.707107+0.707107j",
    (-1, 0, 0, 0): "-1+0j", (0, -1, 0, 0): "-0.707107-0.707107j",
    (0, 0, -1, 0): "0-1j", (0, 0, 0, -1): "0.707107-0.707107j",
}


class Branch(NamedTuple):
    """One measurement branch: the sparse state (basis bitmask, bit w =
    wire w -> amplitude tuple, in canonical form), classical bits, and
    the branch probability, an exact power of 1/2."""

    state: dict[int, tuple[int, int, int, int]]
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


def _least_k(state: dict) -> dict:
    """Divide every amplitude by √2 while all of them are divisible (a+c
    and b+d even), which lowers the shared k to its least value."""
    while state and not any((a + c | b + d) & 1 for a, b, c, d in state.values()):
        state = {m: ((b - d) // 2, (a + c) // 2, (b + d) // 2, (c - a) // 2)
                 for m, (a, b, c, d) in state.items()}
    return state


def _h(state: dict, w: int) -> dict:
    # |m> goes to (|m without bit> ± |m with bit>)/√2: add, one more factor in k
    bit = 1 << w
    out: dict[int, tuple[int, int, int, int]] = {}
    for m, (a, b, c, d) in state.items():
        for key, s in ((m & ~bit, 1), (m | bit, -1 if m & bit else 1)):
            e, f, g, h = out.get(key, _ZERO)
            out[key] = (e + s * a, f + s * b, g + s * c, h + s * d)
    out = {m: x for m, x in out.items() if x != _ZERO}
    if len(out) > MAX_TERMS:
        raise TermBudgetError(f"{len(out)} basis terms exceed the {MAX_TERMS}-term limit")
    return _least_k(out)


def _phase(rotate):
    """The gate that rotates each term whose gate wires are all 1."""
    def gate(state: dict, *wires: int) -> dict:
        on = 1 << wires[0] | 1 << wires[-1]
        return {m: rotate(*x) if m & on == on else x for m, x in state.items()}
    return gate


# each unitary gate, a function of the sparse state and its one or two wires
_GATES = {
    "h": _h,
    "x": lambda state, w: {m ^ 1 << w: x for m, x in state.items()},
    "cx": lambda state, c, t: {m ^ 1 << t if m >> c & 1 else m: x
                               for m, x in state.items()},
    "cz": _phase(_PHASES["z"]),
    **{kind: _phase(rotate) for kind, rotate in _PHASES.items()},
}


def _measure_x(state: dict, wire: int, outcome: int) -> tuple[dict, float]:
    """Project onto |+> (outcome 0) or |-> (outcome 1), renormalize, and
    reset the measured wire to |0>: H, then a computational-basis
    projection.  Returns (state, probability), ({}, 0) if it is 0.

    |a + bω + cω² + dω³|² = a²+b²+c²+d² + √2(ab+bc+cd-ad), summed over
    the kept terms, must be 2^e, their k; the probability is 2^e over the
    swept state's 2^k.  Any other sum raises ``SimulationError``."""
    swept = _h(state, wire)
    kept = {m & ~(1 << wire): x for m, x in swept.items() if (m >> wire) & 1 == outcome}
    if not kept:
        return {}, 0
    whole = sum(a * a + b * b + c * c + d * d for a, b, c, d in swept.values())
    part = sum(a * a + b * b + c * c + d * d for a, b, c, d in kept.values())
    root2 = sum(a * b + b * c + c * d - a * d for a, b, c, d in kept.values())
    if root2 or part & (part - 1):
        raise SimulationError(
            f"mx on wire {wire}: outcome {outcome} has the non-dyadic "
            f"probability ({part}{root2:+d}√2)/{whole}")
    return _least_k(kept), part / whole


def _runnable(netlist: Netlist) -> list[Gate]:
    """``netlist``'s gates as a list ``_evolve`` can run; a macro left
    among them raises ``SimulationError``.  Every gate is one that
    ``Netlist.append`` took, so nothing else is checked."""
    gates = [*netlist.gates]
    if any(type(op) is not Gate for op in gates):
        raise SimulationError("statevector mode needs a fully expanded netlist")
    return gates


def _evolve(gates: list[Gate], state: dict, branch: str) -> list[Branch]:
    """The statevector gate loop: run ``gates``, as ``_runnable`` returns
    them, from the sparse ``state`` under the branch policy ``branch``,
    as ``run_statevector`` documents them."""
    outcomes = (0, 1) if branch == "explore" else (int(branch[-1]),)
    branches = [(state, {}, 1.0)]
    for kind, wires, cbit in gates:
        nxt = []
        for state, cbits, probability in branches:
            gate = _GATES.get(kind)
            if gate is not None:
                state = gate(state, *wires)
            elif kind == "mx":
                for outcome in outcomes:
                    post, p = _measure_x(state, wires[0], outcome)
                    if p:
                        nxt.append((post, {**cbits, cbit: outcome}, probability * p))
                    elif branch != "explore":
                        raise SimulationError(f"forced outcome {outcome} has zero amplitude")
                continue
            elif kind == "prep0":
                if any((m >> wires[0]) & 1 for m in state):
                    raise SimulationError(f"prep0 on non-|0> wire {wires[0]}")
            elif cbits[cbit]:  # ccz_classical, whose cbit an earlier mx wrote
                state = _GATES["cz"](state, *wires)
            nxt.append((state, cbits, probability))
        branches = nxt
    return [Branch(*br) for br in branches]


def run_statevector(netlist: Netlist, initial: Mapping[int, object] | None = None,
                    branch: str = "explore") -> list[Branch]:
    """Exact simulation of a fully expanded netlist on a sparse state.

    ``initial`` maps int wires to the int 0 or 1 or the string "T"
    (default 0); any other spec, a bool or float among them, raises
    ``ValueError``.  ``branch`` is "explore" (follow every measurement
    outcome; returns one Branch per surviving combination), "forced-0"
    or "forced-1".  Raises ``SimulationError`` before any gate acts on a
    netlist with a macro left (``_runnable``); ``TermBudgetError`` once a
    state holds more than ``MAX_TERMS`` terms; and ``SimulationError`` on
    a measurement outcome whose probability is not a power of 1/2.  Every
    gate is one ``Netlist.append`` took, so its wires lie in the netlist
    and a ``ccz_classical`` reads a cbit an earlier ``mx`` wrote.
    """
    gates = _runnable(netlist)
    if branch not in ("explore", "forced-0", "forced-1"):
        raise ValueError(f"unknown branch policy {branch!r}")
    state = {0: _ONE}
    for w, spec in (initial or {}).items():
        if type(w) is not int:  # a bool would set wire 0 or 1
            raise ValueError(f"initial wire {w!r} is not an int")
        # exact types: True and 1.0 equal 1, False and 0.0 equal 0
        if ((type(spec), spec) not in ((int, 0), (int, 1), (str, "T"))
                or not 0 <= w < netlist.wire_count):
            raise ValueError(f"unknown initial spec {spec!r} for wire {w} of {netlist.wire_count}")
        if spec == "T":
            state = _GATES["t"](_h(state, w), w)  # (|0> + ω|1>)/√2
        elif spec == 1:
            state = _GATES["x"](state, w)
    return _evolve(gates, state, branch)


def basis_state(wire_bits: Mapping[int, int]) -> dict[int, tuple[int, int, int, int]]:
    """Sparse computational basis state with the given wire values."""
    return {sum((v & 1) << w for w, v in wire_bits.items()): _ONE}


# ---- equivalence checking ---------------------------------------------------

def _every_lane_exact(expanded: Netlist, inputs: dict[int, int],
                      masks: list[int]) -> bool:
    """Whether one explore run of ``expanded`` certifies every lane at
    once.  Lane k starts in its basis input (wire w holds bit k of
    ``inputs[w]``) tagged with k in the bits from ``wire_count`` up,
    above every wire a gate names, as ``Netlist.append`` took no wire
    past ``wire_count``, so no gate reads or moves a tag and no two
    lanes interfere; each lane's term starts at amplitude
    ``(1, 0, 0, 0)``.  True when every branch is exactly
    ``{k << wire_count | masks[k]: (1, 0, 0, 0)}`` over all k: each
    lane's branch is then its basis state times one positive constant,
    so the lane's own run ends in it with amplitude exactly 1, through
    the same outcomes at the same dyadic probabilities.  False on any
    other state or any ``SimulationError``, ``_runnable``'s among them,
    and where ``run_statevector`` would refuse an input wire, from which
    nothing is concluded."""
    shift = expanded.wire_count
    if not all(0 <= w < shift for w in inputs):
        return False
    start = {k << shift | sum(((plane >> k) & 1) << w for w, plane in inputs.items()): _ONE
             for k in range(len(masks))}
    want = {k << shift | mask: _ONE for k, mask in enumerate(masks)}
    try:
        return all(br.state == want
                   for br in _evolve(_runnable(expanded), start, "explore"))
    except SimulationError:
        return False


def verify_equivalence(netlist: Netlist, expanded: Netlist, input_wires) -> dict:
    """Certify ``expanded``, a Clifford+T expansion of the macro netlist
    ``netlist``, over every basis input of ``input_wires`` (other wires
    start at 0).  One ``run_basis_sweep`` of ``netlist`` is the
    reference: on the statevector engine, every measurement branch of
    ``expanded`` must end in that lane's basis state with amplitude
    exactly 1, each wire the expansion added back at 0.

    One run over a superposition of every input, each tagged with its
    lane number in bits no gate touches, certifies them all when it ends
    exactly in the superposition of their reference states
    (``_every_lane_exact``).  Otherwise, on any difference or any
    ``SimulationError`` of that run (``TermBudgetError`` included), each
    input runs on its own through ``run_statevector``, and any other
    branch is a mismatch, at most one per input, whose ``got`` holds
    its bits and amplitude or the ``SimulationError`` that its run or a
    superposition raised.  Errors of the reference sweep propagate.
    Returns ``{"inputs_checked": N, "mismatches": [...]}`` with each
    wire keyed by ``str(wire)``, equal to the report's ``json.loads``.
    A wire named twice in ``input_wires`` raises ``ValueError``: its
    second plane would overwrite its first, and half the inputs counted
    would be repeats.
    """
    input_wires = tuple(input_wires)
    repeated = [w for i, w in enumerate(input_wires) if w in input_wires[:i]]
    if repeated:
        raise ValueError(f"input wire {repeated[0]!r} is named more than once")
    total = 1 << len(input_wires)
    inputs = dict(zip(input_wires, lane_planes(len(input_wires))))
    sweep = run_basis_sweep(netlist, inputs, total)
    masks = [sum(((plane >> lane) & 1) << w for w, plane in sweep.wires.items())
             for lane in range(total)]
    mismatches: list[dict] = []
    if _every_lane_exact(expanded, inputs, masks):
        return {"inputs_checked": total, "mismatches": mismatches}
    for lane, mask in enumerate(masks):
        assignment = {w: (lane >> i) & 1 for i, w in enumerate(input_wires)}
        try:
            br = next((br for br in run_statevector(expanded, initial=assignment)
                       if br.state != {mask: _ONE}), None)
            if br is None:
                continue
            # wire_bits raises on a branch left in a superposition
            got = {**{str(w): bit for w, bit in br.wire_bits(expanded.wire_count).items()},
                   "amplitude": _UNIT_TEXT[next(iter(br.state.values()))]}
        except SimulationError as exc:
            got = f"{type(exc).__name__}: {exc}"
        mismatches.append({
            "input": {str(w): bit for w, bit in assignment.items()},
            "expected": {str(w): (mask >> w) & 1 for w in range(expanded.wire_count)},
            "got": got})
    return {"inputs_checked": total, "mismatches": mismatches}


# ---- the squarer's checks ----------------------------------------------------

@functools.lru_cache(maxsize=12)  # as many widths as the CLI's BASIS_RANGE has
def _square_planes(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The n input planes (lane a holds a, as ``lane_planes`` builds
    them) and the 2n planes of a*a, over every input a < 2**n.

    Built together, apart from any circuit, in the one ``_doubling``
    loop: the upper half of 2L lanes holds a + L, a new top input plane,
    and (a + L)**2 = a**2 + a*2L + L**2 for a < L = 2**k.  As a**2 <
    L**2, adding L**2 only sets bit 2k; a*2L is rippled in."""
    square = [0] * (2 * n)
    for k, a_planes in enumerate(_doubling(n)):
        if k == n:  # the planes of all 2**n lanes
            return tuple(a_planes), tuple(square)
        lanes = 1 << k
        upper = square[:]
        upper[2 * k] = (1 << lanes) - 1
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


def check_squarer(netlist: Netlist) -> dict:
    """Sweep a squarer netlist over every input a, read through its
    registers A and P alone: P must hold a*a, A must hold a, and every
    other wire and would-be carry 0.  Returns the report dict plus n and
    ``failing``, the count of failing inputs (the report lists the first
    16), or, for a sweep that raised, ``stopped``, the error its one
    mismatch names.  A missing register, or a P not twice as wide as A,
    raises ``ValueError``.

    Only planes that differ from the reference carry data: each P and A
    plane is XORed with its expected plane once, garbage is the OR of
    the non-zero ancilla planes, and a reported lane's P and A are the
    expected values XOR its difference bits, read from small windows of
    the differences that start at the first reported lane."""
    registers = netlist.registers
    if "A" not in registers or "P" not in registers:
        raise ValueError(f"a squarer netlist needs registers A and P, got {sorted(registers)}")
    inputs, p_wires = registers["A"], registers["P"]
    n = len(inputs)
    if len(p_wires) != 2 * n:
        raise ValueError(f"register P has {len(p_wires)} wires, not twice the {n} of register A")
    lanes = 1 << n
    a_planes, square = _square_planes(n)
    try:
        result = run_basis_sweep(netlist, dict(zip(inputs, a_planes)), lanes)
    except SimulationError as exc:
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


def check_blocks() -> list[dict]:
    """Certify each ``_BLOCKS`` block's Clifford+T expansion against its
    macro netlist on the basis engine, over every input: one
    ``verify_equivalence`` report per block, under its name as
    ``"block"``."""
    reports: list[dict] = []
    for name, build, *args in _BLOCKS:
        nl = Netlist()
        inputs = build(nl, *args)
        reports.append({"block": name, **verify_equivalence(nl, expand(nl), inputs)})
    return reports
