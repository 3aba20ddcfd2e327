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
in-place ripple-carry adder built from the other two).  ``Netlist.append``
validates every gate and macro once, as it is taken.

A netlist being built keeps its ops in a plain list.  ``expand`` lowers
all macros and writes the primitives into ``GateColumns``: a ``list``
subclass whose own storage holds each gate's kind string, beside
list columns of the first wire, the second wire and the classical bit
(-1 where a gate has none).  The lowering is trusted and never builds a
``Gate``: an AND is one constant 14-kind pattern plus one ``extend`` per
column.  ``count_gates`` (T and CNOT counts),
``schedule_asap`` (T- and CNOT-depth), ``to_qasm`` and the gate entries
of ``to_json`` read the columns directly, and pack a list of primitives
into columns first.  ``Gate`` tuples are built only for consumers that
iterate, index or compare the gates (the simulators and the tests).
``Netlist.measure`` expands a netlist and takes both measurements.

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

_new_tuple = tuple.__new__


def _row_gate(kind: str, w0: int, w1: int, cbit: int) -> Gate:
    """The ``Gate`` of one column row (-1 meaning no second wire or cbit)."""
    return _new_tuple(Gate, (kind, (w0,) if w1 < 0 else (w0, w1), None if cbit < 0 else cbit))


class GateColumns(list):
    """The primitive gates of an expanded netlist, stored column-wise.

    The list storage holds each gate's kind string, so ``len`` is the
    gate count and ``list.count(columns, kind)`` counts one kind.
    ``w0``, ``w1`` and ``cbit`` are list columns of the first wire, the
    second wire and the classical bit, -1 where a gate has none; they are
    lists rather than ``array('i')`` because extending an array converts
    every item, which made ``expand`` twice as slow.  Iterating, indexing
    or comparing yields ``Gate`` tuples built on demand.  ``append``
    takes a primitive ``Gate`` (a macro raises ``UnexpandedNetlistError``);
    every other list mutator raises ``TypeError``.
    """

    __slots__ = ("w0", "w1", "cbit")

    def __init__(self, gates=()) -> None:
        super().__init__()
        self.w0, self.w1, self.cbit = [], [], []
        for g in gates:
            self.append(g)

    def append(self, gate) -> None:
        if not isinstance(gate, Gate):
            raise UnexpandedNetlistError(
                f"{gate!r} is not a primitive gate; expand the netlist first")
        kind, wires, cbit = gate
        list.append(self, kind)
        self.w0.append(wires[0])
        self.w1.append(wires[1] if len(wires) > 1 else -1)
        self.cbit.append(-1 if cbit is None else cbit)

    def rows(self):
        """(kind, w0, w1, cbit) per gate, straight off the columns."""
        return zip(list.__iter__(self), self.w0, self.w1, self.cbit)

    def __iter__(self):
        return map(_row_gate, list.__iter__(self), self.w0, self.w1, self.cbit)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return _row_gate(list.__getitem__(self, index), self.w0[index],
                         self.w1[index], self.cbit[index])

    def __eq__(self, other):
        if isinstance(other, GateColumns):
            return (list.__eq__(self, other) and self.w0 == other.w0
                    and self.w1 == other.w1 and self.cbit == other.cbit)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __radd__(self, other):
        return other + list(self)

    def __repr__(self) -> str:
        return f"GateColumns({list(self)!r})"

    def __reduce__(self):
        return GateColumns, (list(self),)


def _read_as_gates(name: str):
    method = getattr(list, name)

    def read(self, *args):
        return method(list(self), *args)

    read.__name__ = name
    return read


def _refuse(name: str):
    def refuse(self, *args):
        raise TypeError(f"gate columns only support append, not {name}")

    refuse.__name__ = name
    return refuse


# list behaviours inherited from the kind storage would silently see or
# change kind strings only, so they read Gate tuples or refuse instead
for _name in ("__contains__", "__reversed__", "__add__", "__mul__", "__rmul__",
              "__lt__", "__le__", "__gt__", "__ge__", "count", "index", "copy"):
    setattr(GateColumns, _name, _read_as_gates(_name))
for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "extend",
              "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(GateColumns, _name, _refuse(_name))
del _name


class Netlist:
    """Ordered gate sequence over densely indexed wires plus named registers."""

    def __init__(self) -> None:
        self.wire_count = 0
        self.cbit_count = 0
        self.written_cbits: set[int] = set()  # cbits an mx has written
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
            if op.kind == "mx":
                self.written_cbits.add(op.cbit)
                if op.cbit >= self.cbit_count:
                    self.cbit_count = op.cbit + 1
            elif op.kind == "ccz_classical" and op.cbit not in self.written_cbits:
                raise NetlistError(
                    f"ccz_classical reads cbit {op.cbit}, which no earlier mx wrote")
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
        cbit = g.cbit
        if cbit is None:
            if g.kind in _NEEDS_CBIT:
                raise NetlistError(f"{g.kind} needs a cbit")
        elif g.kind not in _NEEDS_CBIT or type(cbit) is not int or cbit < 0:
            raise NetlistError(f"{g.kind} cbit must be absent or a non-negative "
                               f"integer as the kind requires, got {cbit!r}")

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
        gates = self.gates
        return (not isinstance(gates, GateColumns)
                and any(not isinstance(op, Gate) for op in gates))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Netlist)
                and self.wire_count == other.wire_count
                and self.gates == other.gates
                and self.registers == other.registers)

    def __repr__(self) -> str:
        return f"Netlist(wires={self.wire_count}, gates={len(self.gates)})"

    def columns(self) -> GateColumns:
        """The gate columns: ``gates`` itself once expanded, else a list
        of primitives packed here; a macro raises ``UnexpandedNetlistError``."""
        gates = self.gates
        return gates if isinstance(gates, GateColumns) else GateColumns(gates)

    def measure(self) -> tuple[int, int, int, int, int]:
        """(T count, T-depth, CNOT count, CNOT-depth, wires) of this
        netlist's expansion, measured by ``count_gates`` and
        ``schedule_asap``."""
        full = expand(self)
        t_count, cnot_count = count_gates(full)
        t_depth, cnot_depth = schedule_asap(full)
        return t_count, t_depth, cnot_count, cnot_depth, full.wire_count


# ---- macro expansion ----------------------------------------------------

# gate kinds of the temporary-AND lowering, in order; its wires are
# written by _ColumnWriter.logical_and
_AND_KINDS = ("prep0", "h", "t", "cx", "cx", "cx", "cx",
              "tdg", "tdg", "t", "cx", "cx", "h", "s")
_NO_CBITS = (-1,) * len(_AND_KINDS)


class _ColumnWriter:
    """Writes lowered primitives into an output netlist's gate columns.

    Its ``new_wire``/``cx``/``logical_and``/``uncompute_and`` methods are
    the emitter interface ``blocks.lower_add_in_place`` lowers an adder
    through.
    """

    __slots__ = ("new_wire", "_new_cbit", "_kind", "_kinds",
                 "_w0", "_w1", "_cbit", "_w0s", "_w1s", "_cbits")

    def __init__(self, out: Netlist) -> None:
        cols = out.gates
        self.new_wire, self._new_cbit = out.new_wire, out.new_cbit
        # bound to the kind storage itself, past GateColumns' own methods
        self._kind, self._kinds = list.append.__get__(cols), list.extend.__get__(cols)
        self._w0, self._w1, self._cbit = cols.w0.append, cols.w1.append, cols.cbit.append
        self._w0s, self._w1s, self._cbits = cols.w0.extend, cols.w1.extend, cols.cbit.extend

    def cx(self, c: int, t: int) -> None:
        self._kind("cx")
        self._w0(c)
        self._w1(t)
        self._cbit(-1)

    def logical_and(self, x: int, y: int, t: int) -> None:
        self._kinds(_AND_KINDS)
        self._w0s((t, t, t, x, y, t, t, x, y, t, t, t, t, t))
        self._w1s((-1, -1, -1, t, t, x, y, -1, -1, -1, x, y, -1, -1))
        self._cbits(_NO_CBITS)

    def uncompute_and(self, x: int, y: int, t: int) -> None:
        cbit = self._new_cbit()
        self._kinds(("mx", "ccz_classical"))
        self._w0s((t, x))
        self._w1s((-1, y))
        self._cbits((cbit, cbit))


def expand(netlist: Netlist) -> Netlist:
    """Lower every macro op to primitive gates; primitives pass through.

    The result's ``gates`` is a ``GateColumns``.  The temporary-AND
    lowering spells out the magic-state preparation (prep0, h, t) so
    the block carries its 4 T gates explicitly, then applies the two
    compute CNOTs, the ancilla-controlled CNOT pair, the T-gate column,
    the second CNOT pair, and the final h, s.  The uncompute lowering is
    Clifford-only: one X-basis measurement plus a classically controlled
    CZ on the surviving input pair.  Adders are lowered by
    ``blocks.lower_add_in_place`` through the same column writer.
    Idempotent.

    The lowering is trusted: ``Netlist.append`` validated every op of
    ``netlist`` when it took it, and each macro lowers to well-formed
    gates over its own checked wires and fresh ones, so the generated
    gates are written to the output's columns without a second check.
    """
    from .blocks import lower_add_in_place

    out = Netlist()
    out.wire_count = netlist.wire_count
    out.cbit_count = netlist.cbit_count
    out.registers = dict(netlist.registers)
    cols = out.gates = GateColumns()
    writer = _ColumnWriter(out)
    for op in netlist.gates:
        if isinstance(op, Gate):
            cols.append(op)
        elif isinstance(op, LogicalAnd):
            writer.logical_and(op.x, op.y, op.target)
        elif isinstance(op, UncomputeAnd):
            writer.uncompute_and(op.x, op.y, op.target)
        elif isinstance(op, AddInPlace):
            lower_add_in_place(writer, op)
        else:
            raise NetlistError(f"cannot lower {op!r}")
    # every cbit allocated above was written at once by its uncompute mx
    out.written_cbits = netlist.written_cbits | set(range(netlist.cbit_count, out.cbit_count))
    return out


# ---- counting and depth --------------------------------------------------

def count_gates(netlist: Netlist) -> tuple[int, int]:
    """(T count, CNOT count) of a fully expanded netlist, counted on its
    kind column.

    T counts ``t`` and ``tdg``; CNOT counts ``cx`` only, not ``cz``.
    prep0/prepT are zero-cost pseudo-gates and count toward neither.
    Raises ``UnexpandedNetlistError`` when a macro op is present.
    """
    cols = netlist.columns()
    return list.count(cols, "t") + list.count(cols, "tdg"), list.count(cols, "cx")


def schedule_asap(netlist: Netlist) -> tuple[int, int]:
    """Greedy as-soon-as-possible layering in one walk over the gate
    columns; returns (T-depth, CNOT-depth), the number of layers holding
    at least one T gate and at least one CNOT respectively.

    Gates keep program order per wire and are never commuted past each
    other, with one exception that matches how multi-target fan-out is
    drawn and counted: consecutive CNOTs sharing only their control wire
    may occupy one layer (they commute and form a single multi-target
    CX).  Preparation pseudo-gates take no layer; measurements and
    classically controlled gates are ordinary one-layer events, and a
    classically controlled gate never precedes its measurement.  Raises
    ``UnexpandedNetlistError`` when a macro op is present.
    """
    cols = netlist.columns()
    last = [0] * netlist.wire_count       # wire -> last occupied layer
    open_ctrl = [0] * netlist.wire_count  # wire -> layer of a joinable fan-out, 0 if none
    meas_layer: dict[int, int] = {}       # cbit -> layer of its mx
    t_layers: set[int] = set()
    cnot_layers: set[int] = set()

    for kind, a, b, cbit in cols.rows():
        if b < 0:  # one-wire kinds
            if kind in _PSEUDO:
                continue
            layer = last[a] + 1
            last[a] = layer
            open_ctrl[a] = 0
            if kind in _T_KINDS:
                t_layers.add(layer)
            elif kind == "mx":
                meas_layer[cbit] = layer
        elif kind == "cx":
            joinable = open_ctrl[a]
            la, lb = last[a], last[b]
            if joinable and lb < joinable:
                layer = joinable
            else:
                layer = (la if la > lb else lb) + 1
            # a joined control already sits in the joined layer
            last[a] = last[b] = layer
            open_ctrl[a] = layer
            open_ctrl[b] = 0
            cnot_layers.add(layer)
        else:  # cz, ccz_classical
            layer = max(last[a], last[b]) + 1
            if kind == "ccz_classical":
                layer = max(layer, meas_layer.get(cbit, 0) + 1)
            last[a] = last[b] = layer
            open_ctrl[a] = open_ctrl[b] = 0
    return len(t_layers), len(cnot_layers)


# ---- serialization -------------------------------------------------------

# one formatter per primitive kind, called as f(w0, w1, cbit); str.format
# ignores the arguments a template does not name
_JSON_GATE = {k: ('{{"kind":"%s","wires":[{0}]}}' % k).format for k in _ONE_WIRE}
_JSON_GATE.update({k: ('{{"kind":"%s","wires":[{0},{1}]}}' % k).format for k in _TWO_WIRE})
_JSON_GATE.update(mx='{{"kind":"mx","wires":[{0}],"cbit":{2}}}'.format,
                  ccz_classical='{{"kind":"ccz_classical","wires":[{0},{1}],"cbit":{2}}}'.format)
_QASM_LINE = {k: f"{k} q[{{0}}];".format for k in _ONE_WIRE}
_QASM_LINE.update({k: f"{k} q[{{0}}], q[{{1}}];".format for k in _TWO_WIRE})
_QASM_LINE.update(mx="mx q[{0}] -> c[{2}];".format,
                  ccz_classical="ccz_classical c[{2}], q[{0}], q[{1}];".format)


def _op_json(op) -> str:
    """Compact JSON entry of one op of a list-form netlist."""
    if isinstance(op, Gate):
        return _JSON_GATE[op.kind](op.wires[0], op.wires[-1], op.cbit)
    if isinstance(op, AddInPlace):
        wires = op.a_wires + op.b_wires + (() if op.carry_out is None else (op.carry_out,))
        return ('{"kind":"macro_add","wires":[%s],"width":%d,"carry_out":%s}'
                % (",".join(map(str, wires)), len(op.a_wires),
                   "false" if op.carry_out is None else "true"))
    kind = "macro_and" if isinstance(op, LogicalAnd) else "macro_unand"
    return '{"kind":"%s","wires":[%d,%d,%d]}' % (kind, op.x, op.y, op.target)


def to_json(netlist: Netlist) -> str:
    """Compact JSON: ``wires``, ``registers`` and a ``gates`` list of
    ``kind``/``wires``/``cbit`` entries (macros carry ``width`` and
    ``carry_out`` for adders), formatted straight from the gate columns
    of an expanded netlist; ``from_json`` reads it back."""
    gates = netlist.gates
    if isinstance(gates, GateColumns):
        entries = [_JSON_GATE[k](a, b, c) for k, a, b, c in gates.rows()]
    else:
        entries = [_op_json(op) for op in gates]
    registers = json.dumps({name: list(ws) for name, ws in netlist.registers.items()},
                           separators=(",", ":"))
    return (f'{{"wires":{netlist.wire_count},"registers":{registers},"gates":['
            + ",".join(entries) + "]}\n")


def from_json_dict(data: dict) -> Netlist:
    """Rebuild a netlist from a ``to_json`` document, passing every gate
    through ``Netlist.append``.  A malformed document raises
    ``NetlistError``, naming the gate index where there is one."""
    if not isinstance(data, dict):
        raise NetlistError(f"netlist JSON must be an object, got {type(data).__name__}")
    if "wires" not in data:
        raise NetlistError("netlist JSON has no 'wires' count")
    wires = data["wires"]
    if type(wires) is not int or wires < 0:
        raise NetlistError(f"netlist 'wires' must be a non-negative integer, got {wires!r}")
    if not isinstance(data.get("gates"), list):
        raise NetlistError("netlist 'gates' must be a list")
    registers = data.get("registers", {})
    if not isinstance(registers, dict):
        raise NetlistError("netlist 'registers' must be an object")
    out = Netlist()
    out.wire_count = wires
    for name, ws in registers.items():
        if not isinstance(ws, list):
            raise NetlistError(f"register {name!r} must be a list of wires, got {ws!r}")
        try:
            out.register_alias(name, ws)
        except NetlistError as exc:
            raise NetlistError(f"register {name!r}: {exc}") from None
    for index, g in enumerate(data["gates"]):
        try:
            _load_op(out, g)
        except NetlistError as exc:
            raise NetlistError(f"gate {index}: {exc}") from None
    return out


def _load_op(out: Netlist, g) -> None:
    if not isinstance(g, dict):
        raise NetlistError(f"gate entry must be an object, got {g!r}")
    kind, wires = g.get("kind"), g.get("wires")
    if not isinstance(wires, list):
        raise NetlistError(f"{kind!r} needs a 'wires' list, got {wires!r}")
    if kind in ("macro_and", "macro_unand"):
        if len(wires) != 3:
            raise NetlistError(f"{kind} takes 3 wires, got {len(wires)}")
        out.append((LogicalAnd if kind == "macro_and" else UncomputeAnd)(*wires))
    elif kind == "macro_add":
        m, carry = g.get("width"), g.get("carry_out")
        if type(m) is not int or type(carry) is not bool:
            raise NetlistError(f"macro_add needs an integer 'width' and a boolean "
                               f"'carry_out', got {m!r} and {carry!r}")
        if len(wires) != 2 * m + carry:
            raise NetlistError(f"macro_add of width {m} takes {2 * m + carry} wires, "
                               f"got {len(wires)}")
        out.append(AddInPlace(tuple(wires[:m]), tuple(wires[m:2 * m]),
                              wires[2 * m] if carry else None))
    else:
        out.append(Gate(kind, tuple(wires), g.get("cbit")))


def from_json(text: str) -> Netlist:
    return from_json_dict(json.loads(text))


def to_qasm(netlist: Netlist) -> str:
    """QASM-like text, one gate per line, formatted straight from the
    gate columns.  Macros must be expanded first."""
    cols = netlist.columns()
    lines = [f"// wires: {netlist.wire_count}", f"qreg q[{netlist.wire_count}];"]
    if netlist.cbit_count:
        lines.append(f"creg c[{netlist.cbit_count}];")
    lines += [_QASM_LINE[k](a, b, c) for k, a, b, c in cols.rows()]
    return "\n".join(lines) + "\n"
