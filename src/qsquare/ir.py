"""Gate-level netlist IR: wires, registers, primitive gates, and macro ops.

The primitive gate set is Clifford+T plus the machinery needed for
measurement-based uncomputation:

    h, s, sdg, t, tdg, x, z, cx, cz, prep0, prepT, mx, ccz_classical

``prep0``/``prepT`` initialize a fresh wire to |0> or the T magic state
T|+>.  They are bookkeeping pseudo-gates and cost nothing toward any
metric.  ``mx`` measures a wire in the X basis, stores the outcome in a
classical bit, and consumes the wire (it is reset to |0> and returned to
the ancilla pool).  ``ccz_classical`` applies CZ to its wire pair when
its classical bit is 1.

Three macro ops describe whole sub-circuits: ``LogicalAnd`` (temporary
AND onto a fresh ancilla, 4 T gates after lowering), ``UncomputeAnd``
(its Clifford-only measurement-based reversal) and ``AddInPlace`` (the
in-place ripple-carry adder built from the other two).  ``expand``
lowers all macros to primitives.  ``Netlist.append`` validates every
gate and macro once, as it is taken; ``expand`` trusts that and writes
the lowered primitives straight into its output without checking them
again.  ``count_gates`` (T and CNOT counts) and ``schedule_asap`` (T-
and CNOT-depth) each measure an expanded netlist in a single walk over
its gates; ``Netlist.measure`` expands a netlist and takes both
measurements.

Netlists are append-only while being built and treated as immutable
afterwards; every transformation returns a new netlist.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class NetlistError(Exception):
    """Malformed netlist construction (bad wires, registers, gate shape)."""


class UnexpandedNetlistError(NetlistError):
    """Operation requires a fully expanded netlist but macros remain."""


PRIMITIVE_KINDS = (
    "h", "s", "sdg", "t", "tdg", "x", "z",
    "cx", "cz", "prep0", "prepT", "mx", "ccz_classical",
)
_ONE_WIRE = frozenset({"h", "s", "sdg", "t", "tdg", "x", "z", "prep0", "prepT", "mx"})
_TWO_WIRE = frozenset({"cx", "cz", "ccz_classical"})
_NEEDS_CBIT = frozenset({"mx", "ccz_classical"})
_PSEUDO = frozenset({"prep0", "prepT"})
_T_KINDS = frozenset({"t", "tdg"})


class Gate(NamedTuple):
    """One primitive gate application.

    ``wires`` is (target,) for one-wire kinds and (control, target) for
    ``cx``; ``cz``/``ccz_classical`` are symmetric in their wire pair.
    ``cbit`` is the classical bit written by ``mx`` or read by
    ``ccz_classical``.
    """

    kind: str
    wires: tuple[int, ...]
    cbit: int | None = None


@dataclass(frozen=True)
class LogicalAnd:
    """target := x AND y onto a freshly prepared ancilla wire."""

    x: int
    y: int
    target: int


@dataclass(frozen=True)
class UncomputeAnd:
    """Restore an AND ancilla to |0> by X-measurement and a classically
    controlled CZ on (x, y).  Caller guarantees target currently holds
    x AND y."""

    x: int
    y: int
    target: int


@dataclass(frozen=True)
class AddInPlace:
    """b_wires += a_wires (little-endian, in place); a_wires preserved.

    When ``carry_out`` names a wire it receives the final carry,
    otherwise the addition is modular and the caller guarantees no
    overflow occurs.
    """

    a_wires: tuple[int, ...]
    b_wires: tuple[int, ...]
    carry_out: int | None = None


Op = "Gate | LogicalAnd | UncomputeAnd | AddInPlace"


class Netlist:
    """Ordered gate sequence over densely indexed wires plus named registers."""

    def __init__(self) -> None:
        self.wire_count = 0
        self.cbit_count = 0
        self.gates: list = []
        self.registers: dict[str, tuple[int, ...]] = {}

    # ---- construction -------------------------------------------------

    def new_wire(self) -> int:
        w = self.wire_count
        self.wire_count += 1
        return w

    def new_cbit(self) -> int:
        c = self.cbit_count
        self.cbit_count += 1
        return c

    def alloc_register(self, name: str, width: int, init: str = "zero") -> tuple[int, ...]:
        """Allocate ``width`` fresh wires under ``name``.

        ``init`` is one of "zero" (emits prep0), "magicT" (emits prepT)
        or "input" (no gate; the wires carry caller-provided state).
        """
        if name in self.registers:
            raise NetlistError(f"register {name!r} already allocated")
        if width < 1:
            raise NetlistError(f"register width must be >= 1, got {width}")
        if init not in ("zero", "input", "magicT"):
            raise NetlistError(f"unknown register init {init!r}")
        wires = tuple(self.new_wire() for _ in range(width))
        self.registers[name] = wires
        if init == "zero":
            for w in wires:
                self.add_gate("prep0", w)
        elif init == "magicT":
            for w in wires:
                self.add_gate("prepT", w)
        return wires

    def register_alias(self, name: str, wires: Sequence[int]) -> None:
        """Record a named view over existing wires (no allocation)."""
        if name in self.registers:
            raise NetlistError(f"register {name!r} already allocated")
        for w in wires:
            self._check_wire(w)
        self.registers[name] = tuple(wires)

    def add_gate(self, kind: str, *wires: int, cbit: int | None = None) -> None:
        self.append(Gate(kind, tuple(wires), cbit))

    def append(self, op) -> None:
        if isinstance(op, Gate):
            self._check_gate(op)
        elif isinstance(op, (LogicalAnd, UncomputeAnd)):
            self._check_and(op)
        elif isinstance(op, AddInPlace):
            self._check_add(op)
        else:
            raise NetlistError(f"not a gate or macro op: {op!r}")
        self.gates.append(op)

    def _check_wire(self, w: int) -> None:
        if type(w) is not int:  # also refuses bool, which JSON true would give
            raise NetlistError(f"wire index must be an integer, got {w!r}")
        if not 0 <= w < self.wire_count:
            raise NetlistError(f"wire {w} not allocated (have {self.wire_count})")

    def _check_gate(self, g: Gate) -> None:
        if g.kind not in PRIMITIVE_KINDS:
            raise NetlistError(f"unknown gate kind {g.kind!r}")
        want = 1 if g.kind in _ONE_WIRE else 2
        if len(g.wires) != want:
            raise NetlistError(f"{g.kind} takes {want} wire(s), got {g.wires}")
        for w in g.wires:
            self._check_wire(w)
        if want == 2 and g.wires[0] == g.wires[1]:
            raise NetlistError(f"{g.kind} control and target must differ")
        if (g.cbit is not None) != (g.kind in _NEEDS_CBIT):
            raise NetlistError(f"{g.kind} cbit mismatch: {g.cbit}")

    def _check_and(self, op: LogicalAnd | UncomputeAnd) -> None:
        # expand() lowers a macro without checking its output, so every
        # way the lowered gates could be malformed is rejected here
        x, y, t = op.x, op.y, op.target
        for w in (x, y, t):
            self._check_wire(w)
        if x == y or t == x or t == y:
            raise NetlistError(f"{op!r}: inputs and target must be three distinct wires")

    def _check_add(self, op: AddInPlace) -> None:
        m = len(op.a_wires)
        if m < 2 or len(op.b_wires) != m:
            raise NetlistError(
                f"adder operands must have equal width >= 2, got {m} and {len(op.b_wires)}")
        seen: set[int] = set()
        wires = list(op.a_wires) + list(op.b_wires)
        if op.carry_out is not None:
            wires.append(op.carry_out)
        for w in wires:
            self._check_wire(w)
            if w in seen:
                raise NetlistError(f"adder operands overlap on wire {w}")
            seen.add(w)

    # ---- queries -------------------------------------------------------

    @property
    def has_macros(self) -> bool:
        return any(not isinstance(op, Gate) for op in self.gates)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Netlist)
                and self.wire_count == other.wire_count
                and self.gates == other.gates
                and self.registers == other.registers)

    def __repr__(self) -> str:
        return f"Netlist(wires={self.wire_count}, gates={len(self.gates)})"

    def measure(self) -> tuple[int, int, int, int, int]:
        """(T count, T-depth, CNOT count, CNOT-depth, wires) of this
        netlist's expansion, measured by ``count_gates`` and
        ``schedule_asap``."""
        full = expand(self)
        t_count, cnot_count = count_gates(full)
        t_depth, cnot_depth = schedule_asap(full)
        return t_count, t_depth, cnot_count, cnot_depth, full.wire_count

    def relabeled(self, perm: Sequence[int]) -> "Netlist":
        """New netlist with wire i renamed to perm[i] (perm is a bijection)."""
        if sorted(perm) != list(range(self.wire_count)):
            raise NetlistError("relabeling must be a permutation of all wires")
        out = Netlist()
        out.wire_count = self.wire_count
        out.cbit_count = self.cbit_count
        out.registers = {n: tuple(perm[w] for w in ws) for n, ws in self.registers.items()}
        for op in self.gates:
            if isinstance(op, Gate):
                out.gates.append(Gate(op.kind, tuple(perm[w] for w in op.wires), op.cbit))
            elif isinstance(op, LogicalAnd):
                out.gates.append(LogicalAnd(perm[op.x], perm[op.y], perm[op.target]))
            elif isinstance(op, UncomputeAnd):
                out.gates.append(UncomputeAnd(perm[op.x], perm[op.y], perm[op.target]))
            else:
                out.gates.append(AddInPlace(
                    tuple(perm[w] for w in op.a_wires),
                    tuple(perm[w] for w in op.b_wires),
                    None if op.carry_out is None else perm[op.carry_out]))
        return out


# ---- macro expansion ----------------------------------------------------

def expand(netlist: Netlist) -> Netlist:
    """Lower every macro op to primitive gates; primitives pass through.

    The temporary-AND lowering spells out the magic-state preparation
    (prep0, h, t) so the block carries its 4 T gates explicitly, then
    applies the two compute CNOTs, the ancilla-controlled CNOT pair,
    the T-gate column, the second CNOT pair, and the final h, s.  The
    uncompute lowering is Clifford-only: one X-basis measurement plus a
    classically controlled CZ on the surviving input pair.  Adders are
    lowered by the block builder module.  Idempotent.

    The lowering is trusted: ``Netlist.append`` validated every op of
    ``netlist`` when it took it, and each macro lowers to well-formed
    gates over its own checked wires and fresh ones, so the generated
    gates are written to the output's gate list without a second check.
    """
    out = Netlist()
    out.wire_count = netlist.wire_count
    out.cbit_count = netlist.cbit_count
    out.registers = dict(netlist.registers)
    for op in netlist.gates:
        _lower(out, op)
    return out


def _lower(out: Netlist, op) -> None:
    gates = out.gates
    if isinstance(op, Gate):
        gates.append(op)
    elif isinstance(op, LogicalAnd):
        x, y, t = op.x, op.y, op.target
        gates += (Gate("prep0", (t,)), Gate("h", (t,)), Gate("t", (t,)),
                  Gate("cx", (x, t)), Gate("cx", (y, t)),
                  Gate("cx", (t, x)), Gate("cx", (t, y)),
                  Gate("tdg", (x,)), Gate("tdg", (y,)), Gate("t", (t,)),
                  Gate("cx", (t, x)), Gate("cx", (t, y)),
                  Gate("h", (t,)), Gate("s", (t,)))
    elif isinstance(op, UncomputeAnd):
        cbit = out.new_cbit()
        gates += (Gate("mx", (op.target,), cbit),
                  Gate("ccz_classical", (op.x, op.y), cbit))
    elif isinstance(op, AddInPlace):
        from .blocks import lower_add_in_place

        for sub in lower_add_in_place(out, op):
            _lower(out, sub)
    else:  # pragma: no cover - append() already rejects unknown ops
        raise NetlistError(f"cannot lower {op!r}")


# ---- counting and depth --------------------------------------------------

def count_gates(netlist: Netlist) -> tuple[int, int]:
    """(T count, CNOT count) of a fully expanded netlist, in one walk.

    T counts ``t`` and ``tdg``; CNOT counts ``cx`` only, not ``cz``.
    prep0/prepT are zero-cost pseudo-gates and count toward neither.
    Raises ``UnexpandedNetlistError`` when a macro op is present.
    """
    t = cnot = 0
    for op in netlist.gates:
        if not isinstance(op, Gate):
            raise UnexpandedNetlistError("counting requires a fully expanded netlist")
        if op.kind in _T_KINDS:
            t += 1
        elif op.kind == "cx":
            cnot += 1
    return t, cnot


def schedule_asap(netlist: Netlist) -> tuple[int, int]:
    """Greedy as-soon-as-possible layering in one walk; returns
    (T-depth, CNOT-depth), the number of layers holding at least one
    T gate and at least one CNOT respectively.

    Gates keep program order per wire and are never commuted past each
    other, with one exception that matches how multi-target fan-out is
    drawn and counted: consecutive CNOTs sharing only their control wire
    may occupy one layer (they commute and form a single multi-target
    CX).  Preparation pseudo-gates take no layer; measurements and
    classically controlled gates are ordinary one-layer events, and a
    classically controlled gate never precedes its measurement.  Raises
    ``UnexpandedNetlistError`` when a macro op is present.
    """
    last = [0] * netlist.wire_count       # wire -> last occupied layer
    open_ctrl = [0] * netlist.wire_count  # wire -> layer of a joinable fan-out, 0 if none
    meas_layer: dict[int, int] = {}       # cbit -> layer of its mx
    t_layers: set[int] = set()
    cnot_layers: set[int] = set()

    for op in netlist.gates:
        if not isinstance(op, Gate):
            raise UnexpandedNetlistError("scheduling requires a fully expanded netlist")
        kind, wires, cbit = op
        if kind == "cx":
            c, tg = wires
            joinable = open_ctrl[c]
            lc, lt = last[c], last[tg]
            if joinable and lt < joinable:
                layer = joinable
            else:
                layer = (lc if lc > lt else lt) + 1
            # a joined control already sits in the joined layer
            last[c] = last[tg] = layer
            open_ctrl[c] = layer
            open_ctrl[tg] = 0
            cnot_layers.add(layer)
        elif kind in _PSEUDO:
            continue
        elif len(wires) == 1:
            (w,) = wires
            layer = last[w] + 1
            last[w] = layer
            open_ctrl[w] = 0
            if kind == "mx":
                meas_layer[cbit] = layer
            elif kind in _T_KINDS:
                t_layers.add(layer)
        else:  # cz, ccz_classical
            a, b = wires
            layer = max(last[a], last[b]) + 1
            if kind == "ccz_classical":
                layer = max(layer, meas_layer.get(cbit, 0) + 1)
            last[a] = last[b] = layer
            open_ctrl[a] = open_ctrl[b] = 0
    return len(t_layers), len(cnot_layers)


# ---- serialization -------------------------------------------------------

def _gate_to_dict(op) -> dict:
    if isinstance(op, Gate):
        d = {"kind": op.kind, "wires": list(op.wires)}
        if op.cbit is not None:
            d["cbit"] = op.cbit
        return d
    if isinstance(op, LogicalAnd):
        return {"kind": "macro_and", "wires": [op.x, op.y, op.target]}
    if isinstance(op, UncomputeAnd):
        return {"kind": "macro_unand", "wires": [op.x, op.y, op.target]}
    if isinstance(op, AddInPlace):
        wires = list(op.a_wires) + list(op.b_wires)
        if op.carry_out is not None:
            wires.append(op.carry_out)
        return {"kind": "macro_add", "wires": wires,
                "width": len(op.a_wires), "carry_out": op.carry_out is not None}
    raise NetlistError(f"cannot serialize {op!r}")


def to_json_dict(netlist: Netlist) -> dict:
    return {
        "wires": netlist.wire_count,
        "registers": {name: list(ws) for name, ws in netlist.registers.items()},
        "gates": [_gate_to_dict(op) for op in netlist.gates],
    }


def to_json(netlist: Netlist) -> str:
    return json.dumps(to_json_dict(netlist), indent=2) + "\n"


def from_json_dict(data: dict) -> Netlist:
    """Rebuild a netlist from ``to_json_dict`` output, passing every gate
    through ``Netlist.append``; a malformed document raises ``NetlistError``."""
    if not isinstance(data, dict):
        raise NetlistError(f"netlist JSON must be an object, got {type(data).__name__}")
    if "wires" not in data:
        raise NetlistError("netlist JSON has no 'wires' count")
    wires = data["wires"]
    if isinstance(wires, bool) or not isinstance(wires, int) or wires < 0:
        raise NetlistError(f"netlist 'wires' must be a non-negative integer, got {wires!r}")
    if not isinstance(data.get("gates"), list):
        raise NetlistError("netlist 'gates' must be a list")
    out = Netlist()
    out.wire_count = wires
    out.registers = {name: tuple(ws) for name, ws in data.get("registers", {}).items()}
    max_cbit = -1
    for g in data["gates"]:
        kind, wires = g["kind"], list(g["wires"])
        if kind == "macro_and":
            out.append(LogicalAnd(*wires))
        elif kind == "macro_unand":
            out.append(UncomputeAnd(*wires))
        elif kind == "macro_add":
            m = int(g["width"])
            carry = wires[2 * m] if g["carry_out"] else None
            out.append(AddInPlace(tuple(wires[:m]), tuple(wires[m:2 * m]), carry))
        else:
            cbit = g.get("cbit")
            out.append(Gate(kind, tuple(wires), cbit))
            if cbit is not None:
                max_cbit = max(max_cbit, cbit)
    out.cbit_count = max_cbit + 1
    return out


def from_json(text: str) -> Netlist:
    return from_json_dict(json.loads(text))


def to_qasm(netlist: Netlist) -> str:
    """QASM-like text, one gate per line.  Macros must be expanded first."""
    if netlist.has_macros:
        raise UnexpandedNetlistError("expand the netlist before QASM export")
    lines = [f"// wires: {netlist.wire_count}", f"qreg q[{netlist.wire_count}];"]
    if netlist.cbit_count:
        lines.append(f"creg c[{netlist.cbit_count}];")
    for op in netlist.gates:
        if op.kind == "mx":
            lines.append(f"mx q[{op.wires[0]}] -> c[{op.cbit}];")
        elif op.kind == "ccz_classical":
            lines.append(f"ccz_classical c[{op.cbit}], q[{op.wires[0]}], q[{op.wires[1]}];")
        elif len(op.wires) == 1:
            lines.append(f"{op.kind} q[{op.wires[0]}];")
        else:
            lines.append(f"{op.kind} q[{op.wires[0]}], q[{op.wires[1]}];")
    return "\n".join(lines) + "\n"
