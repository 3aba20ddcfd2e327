"""Gate-level netlist IR: wires, registers, primitive gates, and macro ops.

The primitive gate set is Clifford+T plus the machinery needed for
measurement-based uncomputation:

    h, s, sdg, t, tdg, x, z, cx, cz, prep0, mx, ccz_classical

``prep0`` initializes a fresh wire to |0>.  It is a bookkeeping
pseudo-gate and costs nothing toward any metric; a T magic state is
written out as ``prep0``, ``h``, ``t``, so its T gate is counted.
``mx`` measures a wire in the X basis, stores the outcome in a classical
bit, and consumes the wire (it is reset to |0> and returned to the
ancilla pool).  ``ccz_classical`` applies CZ to its wire pair when
its classical bit is 1.

Three macro ops describe whole sub-circuits: ``LogicalAnd`` (temporary
AND onto a fresh ancilla, 4 T gates after lowering), ``UncomputeAnd``
(its Clifford-only measurement-based reversal) and ``AddInPlace`` (the
in-place ripple-carry adder built from the other two).  All three are
immutable named tuples, like ``Gate``, that equal only an op of their
own type: ``LogicalAnd(1, 2, 3)`` differs from ``UncomputeAnd(1, 2, 3)``
and from ``(1, 2, 3)``, and ``AddInPlace((0, 1), (2, 3))`` from the
plain tuple of its fields.

``Netlist.append`` is the one way an op enters a netlist.  It takes
ops of exactly the four types ``Gate``, ``LogicalAnd``, ``UncomputeAnd``
and ``AddInPlace``, a subclass of one of them refused, and validates
each once: every wire is an int (not a bool) below ``wire_count``; an
AND's three wires are distinct; a primitive has its kind's arity,
distinct wires and a cbit exactly when the kind needs one, and a
``ccz_classical`` reads a cbit an earlier ``mx`` wrote; an adder's
operands are tuples of equal width >= 2 that share no wire with each
other or the carry-out.  A fault raises ``NetlistError`` naming it.

The door is sealed: ``gates``, ``wire_count``, ``cbit_count`` and
``registers`` are read-only, and the op store is a ``_Sealed`` list
whose every mutator, ``append`` included, raises ``TypeError``.  Only
``expand``, ``_ColumnWriter.run``, ``from_json_dict`` and
``Netlist.without`` (the one way to make a mutant: one op dropped, by
slicing) write the fields behind them.  So no reader checks an op again:
``_lower``, ``to_json``, ``schedule_asap``, ``costs`` and both engines
of ``sim`` trust every op to be one ``append`` took.

``_lower`` is the one walk that lowers a netlist's ops, whether a
macro netlist's or the ``GateColumns`` of an expansion, which it reads
as the ``Gate`` tuples it iterates, dispatching on each op's exact
type.  ``_lower`` hands each primitive to an emitter, each
maximal run of consecutive ANDs (or uncomputes) of one type to the
emitter in one call, over the run's wire columns, and each adder to
``blocks.lower_add_in_place``.  The four lowered gate patterns, the
AND, the uncompute and an adder's carry and release cells, are values:
``AND``, ``UNAND``, ``CARRY`` and ``RELEASE`` (``PATTERNS``), each a
``_Pattern`` stated once as its ``gates``, the rows an emitter's
``gate`` takes, and read off them at import.  An emitter has
``new_wires``, ``gate(kind, w0, w1, cbit)``, the one way a primitive
enters it, and ``run(pattern, *columns)``, which writes a run of one
pattern.  Three emitters read the walk:

- ``expand`` writes the primitives into ``GateColumns``, a ``_Sealed``
  list of each gate's kind beside list columns of its wires and cbit,
  a run of patterns by slice assignment, with no ``Gate`` built.
- ``schedule_asap`` (T- and CNOT-depth) layers the gates with no
  columns built, a run of patterns in one loop compiled from their
  gates, so the depths of a macro netlist equal those of its expansion.
- ``to_json`` and ``to_qasm`` write the text of the expansion, a run of
  one pattern as one ``"".join`` of the pattern's skeleton.

Every other reader, ``sim`` included, takes an expansion as the ``Gate``
tuples it iterates; only ``count_gates``, ``_ColumnWriter`` and
``GateColumns`` itself touch the columns.  Every transformation returns
a new netlist.

This module owns the netlist, its lowering and its writers; measuring a
circuit's six metrics is ``costs.measure_circuit``'s job, built on
``schedule_asap``, ``expand`` and ``count_gates``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from itertools import groupby, islice
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, NamedTuple, Sequence


class NetlistError(Exception):
    """Malformed netlist construction (bad wires, registers, gate shape)."""


class UnexpandedNetlistError(NetlistError):
    """Operation requires a fully expanded netlist but macros remain."""


PRIMITIVE_KINDS = (
    "h", "s", "sdg", "t", "tdg", "x", "z",
    "cx", "cz", "prep0", "mx", "ccz_classical",
)
_ONE_WIRE = frozenset({"h", "s", "sdg", "t", "tdg", "x", "z", "prep0", "mx"})
_TWO_WIRE = frozenset({"cx", "cz", "ccz_classical"})
_NEEDS_CBIT = frozenset({"mx", "ccz_classical"})
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


def _same_type_eq(self, other) -> bool:
    return type(other) is type(self) and tuple.__eq__(self, other)


def _same_type_ne(self, other) -> bool:
    return type(other) is not type(self) or tuple.__ne__(self, other)


class LogicalAnd(NamedTuple):
    """target := x AND y onto a freshly prepared ancilla wire."""

    x: int
    y: int
    target: int

    # a macro equals only a macro of its own type: not the UncomputeAnd
    # or the plain tuple over the same wires
    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


class UncomputeAnd(NamedTuple):
    """Restore an AND ancilla to |0> by X-measurement and a classically
    controlled CZ on (x, y).  Caller guarantees target currently holds
    x AND y."""

    x: int
    y: int
    target: int

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


class AddInPlace(NamedTuple):
    """b_wires += a_wires (little-endian, in place); a_wires preserved.

    When ``carry_out`` names a wire it receives the final carry,
    otherwise the addition is modular and the caller guarantees no
    overflow occurs.
    """

    a_wires: tuple[int, ...]
    b_wires: tuple[int, ...]
    carry_out: int | None = None

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


Op = "Gate | LogicalAnd | UncomputeAnd | AddInPlace"

_new_tuple = tuple.__new__

# wire count of each primitive kind that takes no cbit
_PLAIN_ARITY = {k: 1 for k in _ONE_WIRE - _NEEDS_CBIT}
_PLAIN_ARITY.update(cx=2, cz=2)


def _allocated(wires: Sequence, count: int) -> bool:
    """True when every item of ``wires`` is an int (not a bool) in
    0..count-1, checked in bulk; ``_check_wire`` names the first that is not."""
    return not wires or ({*map(type, wires)} == {int}
                         and min(wires) >= 0 and max(wires) < count)


def _row_gate(kind: str, w0: int, w1: int, cbit: int) -> Gate:
    """The ``Gate`` of one column row (-1 meaning no second wire or cbit)."""
    return _new_tuple(Gate, (kind, (w0,) if w1 < 0 else (w0, w1), None if cbit < 0 else cbit))


class _Sealed(list):
    """A netlist's op store, a ``list`` that only this module writes,
    through ``_put`` and the ``list`` methods themselves.  Every list
    behaviour but ``len``, iteration, indexing (a slice is a plain
    ``list``), ``==``/``!=`` and ``repr`` raises ``TypeError``: the
    mutators, ``append`` included, and the reads and pickling that would
    see or keep a ``GateColumns``' kind strings alone."""

    __slots__ = ()
    _put = list.append

    def __init__(self) -> None:
        """An empty store; ``list.__init__`` would clear or refill it."""

    def _without(self, k: int) -> _Sealed:
        """A copy of this store without item ``k``, by slicing."""
        out = type(self)()
        list.extend(out, list.copy(self))
        list.__delitem__(out, k)
        return out


def _refuse(name: str):
    def refuse(self, *args):
        raise TypeError(f"a netlist's ops support len, iteration, indexing, == and "
                        f"repr, and enter only through Netlist.append, not {name}")
    return refuse


# __radd__ too, or list + columns would add the kinds
for _name in ("append", "__contains__", "__reversed__", "__add__", "__radd__", "__mul__",
              "__rmul__", "__lt__", "__le__", "__gt__", "__ge__", "count", "index", "copy",
              "__reduce_ex__", "__setitem__", "__delitem__", "__iadd__", "__imul__",
              "extend", "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(_Sealed, _name, _refuse(_name))
del _name


class GateColumns(_Sealed):
    """The primitive gates of an expanded netlist, stored column-wise.

    The list storage holds each gate's kind string, so ``len`` is the
    gate count and ``list.count(columns, kind)`` counts one kind.
    ``w0``, ``w1`` and ``cbit`` are list columns of the first wire, the
    second wire and the classical bit, -1 where a gate has none; they are
    lists rather than ``array('i')`` because extending an array converts
    every item, which made ``expand`` twice as slow.  Iterating, indexing
    or ``==``/``!=`` yields ``Gate`` tuples built on demand, the one way
    a reader outside this module sees the gates.  ``_put``, which
    ``Netlist.append`` calls, takes a primitive ``Gate`` (a macro raises
    ``UnexpandedNetlistError``).
    """

    __slots__ = ("w0", "w1", "cbit")

    def __new__(cls) -> GateColumns:
        cols = super().__new__(cls)
        cols.w0, cols.w1, cols.cbit = [], [], []
        return cols

    def _put(self, gate) -> None:
        if type(gate) is not Gate:
            raise UnexpandedNetlistError(
                f"{gate!r} is not a primitive gate; expand the netlist first")
        kind, wires, cbit = gate
        list.append(self, kind)
        self.w0.append(wires[0])
        self.w1.append(wires[1] if len(wires) > 1 else -1)
        self.cbit.append(-1 if cbit is None else cbit)

    def _without(self, k: int) -> GateColumns:
        out = super()._without(k)
        for column, own in zip((out.w0, out.w1, out.cbit), (self.w0, self.w1, self.cbit)):
            column += own
            del column[k]
        return out

    def __iter__(self):
        return map(_row_gate, list.__iter__(self), self.w0, self.w1, self.cbit)

    def __getitem__(self, index):
        rows = list.__getitem__(self, index), self.w0[index], self.w1[index], self.cbit[index]
        # a slice builds the gates of only the rows it keeps
        return [*map(_row_gate, *rows)] if isinstance(index, slice) else _row_gate(*rows)

    def __eq__(self, other):
        if isinstance(other, GateColumns):
            return (list.__eq__(self, other) and self.w0 == other.w0
                    and self.w1 == other.w1 and self.cbit == other.cbit)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return f"GateColumns({list(self)!r})"


class Netlist:
    """Ordered gate sequence over densely indexed wires plus named
    registers; ``gates``, ``wire_count``, ``cbit_count`` and ``registers``
    are read-only."""

    def __init__(self) -> None:
        self._wire_count = self._cbit_count = 0
        self._written_cbits: set[int] = set()  # cbits an mx has written
        self._registers: dict[str, tuple[int, ...]] = {}
        self._gates = _Sealed()

    def _copy_header(self, gates: _Sealed) -> Netlist:
        """A netlist with this one's header and registers, holding ``gates``."""
        out = Netlist()
        out._wire_count, out._cbit_count = self._wire_count, self._cbit_count
        out._written_cbits = set(self._written_cbits)
        out._registers = dict(self._registers)
        out._gates = gates
        return out

    gates = property(lambda self: self._gates, doc="The ops, in order (read-only).")
    wire_count = property(lambda self: self._wire_count, doc="Wires allocated (read-only).")
    cbit_count = property(lambda self: self._cbit_count, doc="Cbits allocated (read-only).")
    registers = property(lambda self: MappingProxyType(self._registers), doc="Name -> wires.")

    # ---- construction -------------------------------------------------

    def new_wire(self) -> int:
        w = self._wire_count
        self._wire_count += 1
        return w

    def new_wires(self, k: int) -> range:
        """Allocate ``k`` fresh wires at once; returns their numbers.  A
        ``k`` not an int >= 0 (a bool) raises ``NetlistError``."""
        if type(k) is not int or k < 0:
            raise NetlistError(f"wire count to allocate must be an integer >= 0, got {k!r}")
        first = self._wire_count
        self._wire_count = first + k
        return range(first, first + k)

    def new_cbit(self) -> int:
        c = self._cbit_count
        self._cbit_count += 1
        return c

    def alloc_register(self, name: str, width: int, init: str = "zero") -> tuple[int, ...]:
        """Allocate ``width`` fresh wires under ``name``.

        ``init`` is "zero" (emits prep0) or "input" (no gate; the wires
        carry caller-provided state).
        """
        self._check_register_name(name)
        if type(width) is not int or width < 1:
            raise NetlistError(f"register width must be an integer >= 1, got {width!r}")
        if init not in ("zero", "input"):
            raise NetlistError(f"unknown register init {init!r}")
        wires = tuple(self.new_wires(width))
        self._registers[name] = wires
        if init == "zero":
            for w in wires:
                self.add_gate("prep0", w)
        return wires

    def register_alias(self, name: str, wires: Sequence[int]) -> None:
        """Record a named view over existing, distinct wires (no
        allocation)."""
        self._check_register_name(name)
        wires = tuple(wires)  # once, so an iterator is checked and stored alike
        if not _allocated(wires, self._wire_count):
            try:
                for w in wires:
                    self._check_wire(w)
            except NetlistError as exc:
                raise NetlistError(f"register {name!r}: {exc}") from None
        if len(set(wires)) != len(wires):
            # a reader that maps the wires to values would keep only one
            repeated = next(w for i, w in enumerate(wires) if w in wires[:i])
            raise NetlistError(f"register {name!r} names wire {repeated} twice")
        self._registers[name] = wires

    def _check_register_name(self, name: str) -> None:
        # to_json writes every name as a JSON key, which from_json reads
        # back as a str: 5 would come back as "5"
        if type(name) is not str:
            raise NetlistError(f"register name must be a str, got {name!r}")
        if name in self._registers:
            raise NetlistError(f"register {name!r} already allocated")

    def add_gate(self, kind: str, *wires: int, cbit: int | None = None) -> None:
        self.append(Gate(kind, wires, cbit))

    def append(self, op) -> None:
        """Validate ``op`` and add it at the end.

        ``op`` must be exactly a ``Gate``, ``LogicalAnd``,
        ``UncomputeAnd`` or ``AddInPlace``; an op of any other type, a
        subclass of one of these included, raises ``NetlistError``.  The
        AND macros and cbit-less primitives, nearly every op a synthesizer
        appends, pass one inline guard that accepts only the well-formed
        case; anything else takes the full ``_check_*`` path, which raises
        naming what is wrong.
        """
        cls = type(op)
        count = self._wire_count
        if cls is LogicalAnd or cls is UncomputeAnd:
            x, y, t = op
            if not (type(x) is int and type(y) is int and type(t) is int
                    and 0 <= x < count and 0 <= y < count and 0 <= t < count
                    and x != y and t != x and t != y):
                self._check_and(op)
        elif cls is Gate:
            kind, wires, cbit = op
            if not (cbit is None and type(kind) is str and type(wires) is tuple
                    and len(wires) == _PLAIN_ARITY.get(kind)
                    and type(wires[0]) is int and type(wires[-1]) is int
                    and 0 <= wires[0] < count and 0 <= wires[-1] < count
                    and (len(wires) == 1 or wires[0] != wires[1])):
                self._take_gate(op)
        elif cls is AddInPlace:
            self._check_add(op)
        else:
            raise NetlistError(f"not a gate or macro op: {op!r}")
        self._gates._put(op)

    def without(self, k: int) -> Netlist:
        """This netlist without op ``k``, taken by slicing, with no
        ``append`` per op.  Any ``k`` but an ``int`` (not a bool) in
        0 <= k < len(gates) raises ``IndexError``.
        Dropping an ``mx`` whose cbit a later ``ccz_classical`` reads
        before another ``mx`` writes it raises ``NetlistError``, as
        ``append`` would refuse that ``ccz_classical``."""
        ops = self._gates
        if type(k) is not int or not 0 <= k < len(ops):
            raise IndexError(f"op index {k!r} out of range (netlist has {len(ops)})")
        out = self._copy_header(ops._without(k))
        op = ops[k]
        if type(op) is Gate and op.kind == "mx":
            # the other ops on its cbit, in order: the first one before k
            # is an mx, as append checked
            uses = [g.kind for i, g in enumerate(ops)
                    if i != k and type(g) is Gate and g.cbit == op.cbit]
            if uses and uses[0] == "ccz_classical":
                raise NetlistError(f"dropping op {k}, {op!r}, leaves a later "
                                   f"ccz_classical reading cbit {op.cbit}, which no mx wrote")
            if "mx" not in uses:
                out._written_cbits.discard(op.cbit)
        return out

    def _take_gate(self, g: Gate) -> None:
        """Check a primitive and record the cbit an ``mx`` writes."""
        self._check_gate(g)
        if g.kind == "mx":
            self._written_cbits.add(g.cbit)
            if g.cbit >= self._cbit_count:
                self._cbit_count = g.cbit + 1
        elif g.kind == "ccz_classical" and g.cbit not in self._written_cbits:
            raise NetlistError(
                f"ccz_classical reads cbit {g.cbit}, which no earlier mx wrote")

    def _check_wire(self, w: int) -> None:
        if type(w) is not int:  # also refuses bool, which JSON true would give
            raise NetlistError(f"wire index must be an integer, got {w!r}")
        if not 0 <= w < self._wire_count:
            raise NetlistError(f"wire {w} not allocated (have {self._wire_count})")

    def _check_gate(self, g: Gate) -> None:
        if g.kind not in PRIMITIVE_KINDS:
            raise NetlistError(f"unknown gate kind {g.kind!r}")
        if type(g.wires) is not tuple:
            # to_json writes a list as it writes a tuple, and from_json reads
            # a tuple back, so a list would not survive the round trip
            raise NetlistError(f"{g.kind} wires must be a tuple, got {g.wires!r}")
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
        a, b, carry = op.a_wires, op.b_wires, op.carry_out
        m = len(a)
        if m < 2 or len(b) != m:
            raise NetlistError(
                f"adder operands must have equal width >= 2, got {m} and {len(b)}")
        wires = [*a, *b] if carry is None else [*a, *b, carry]
        if not (_allocated(wires, self._wire_count) and len(set(wires)) == len(wires)):
            seen: set[int] = set()
            for w in wires:
                self._check_wire(w)
                if w in seen:
                    raise NetlistError(f"adder operands overlap on wire {w}")
                seen.add(w)
        if type(a) is not tuple or type(b) is not tuple:
            # to_json concatenates the operands as tuples
            raise NetlistError(f"{op!r}: adder operands must be tuples of wires")

    # ---- queries -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Netlist)
                and self.wire_count == other.wire_count
                and self.cbit_count == other.cbit_count
                and self.gates == other.gates
                and self.registers == other.registers)

    def __repr__(self) -> str:
        return f"Netlist(wires={self.wire_count}, gates={len(self.gates)})"


# ---- macro expansion ----------------------------------------------------

class _ColumnWriter:
    """Writes lowered primitives into an output netlist's gate columns.

    It is the emitter ``expand`` passes to ``_lower``: ``gate`` writes
    one primitive, and ``run`` a run of a pattern from the column
    template ``_pattern`` reads off the pattern's rows.
    """

    __slots__ = ("new_wires", "_out", "_kind", "_kinds",
                 "_w0", "_w1", "_cbit", "_w0s", "_w1s", "_cbits")

    def __init__(self, out: Netlist) -> None:
        cols = out.gates
        self.new_wires, self._out = out.new_wires, out
        # bound to the kind storage itself, past GateColumns' own methods
        self._kind, self._kinds = list.append.__get__(cols), list.extend.__get__(cols)
        self._w0, self._w1, self._cbit = cols.w0.append, cols.w1.append, cols.cbit.append
        self._w0s, self._w1s, self._cbits = cols.w0.extend, cols.w1.extend, cols.cbit.extend

    def gate(self, kind: str, w0: int, w1: int, cbit: int) -> None:
        self._kind(kind)
        self._w0(w0)
        self._w1(w1)
        self._cbit(cbit)

    def run(self, pattern: _Pattern, *columns: Sequence[int]) -> None:
        """A run of ``pattern``, pattern j over the j-th wire of each of
        ``columns`` and, when the pattern takes one, a fresh cbit."""
        # a run of k patterns of g gates: each gate column is g*k -1s whose
        # slots p, p+g, p+2g, ... (the slice ``at``) take the run's column
        # that the pattern's role at position p picks, a wire's or the cbits
        kinds, fills = pattern.columns
        k = len(columns[0])
        if pattern.cbit:
            out = self._out
            first = out._cbit_count
            out._cbit_count = first + k
            columns += (range(first, first + k),)
        size = len(kinds) * k
        self._kinds(kinds * k)
        for extend, fill in zip((self._w0s, self._w1s, self._cbits), fills):
            chunk = [-1] * size
            for at, role in fill:
                chunk[at] = columns[role]
            extend(chunk)


def _lower(netlist: Netlist, em, stop: int | None = None):
    """Walk ``netlist``'s ops (its first ``stop``, if given) in order,
    lowering each through the emitter ``em``, and return ``em``.

    A ``Gate`` goes to ``em.gate(kind, w0, w1, cbit)``, with -1 for a
    missing second wire or cbit; an expanded netlist's ``GateColumns``
    is read as the ``Gate`` tuples it iterates.  Each maximal run of
    consecutive ``LogicalAnd`` (or ``UncomputeAnd``) ops goes to
    ``em.run(AND, x, y, t)`` (or ``UNAND``) in one call, over the run's
    columns of x, y and target wires.  An adder goes to
    ``blocks.lower_add_in_place``.  The walk groups ops by their exact
    type, which keeps the grouping in C, and dispatches on it, trusting
    ``Netlist.append`` to have taken ops of the four types only.
    """
    from .blocks import lower_add_in_place

    gate, run = em.gate, em.run
    for cls, ops in groupby(islice(netlist.gates, stop), type):
        if cls is LogicalAnd:
            run(AND, *zip(*ops))
        elif cls is UncomputeAnd:
            run(UNAND, *zip(*ops))
        elif cls is Gate:
            for kind, wires, cbit in ops:
                gate(kind, wires[0], wires[1] if len(wires) > 1 else -1,
                     -1 if cbit is None else cbit)
        else:  # AddInPlace
            for op in ops:
                lower_add_in_place(em, op)
    return em


def expand(netlist: Netlist) -> Netlist:
    """Lower every macro op to primitive gates; primitives pass through.

    The result's ``gates`` is a ``GateColumns``, written by
    ``_ColumnWriter`` from the ``PATTERNS``: the AND spells out its magic
    state (prep0, h, t), so its 4 T gates count; the uncompute is Clifford.
    Adders are lowered by ``blocks.lower_add_in_place`` through the same
    writer.  Idempotent.

    The lowering is trusted: ``Netlist.append`` validated every op of
    ``netlist`` when it took it, and each macro lowers to well-formed
    gates over its own checked wires and fresh ones, so the generated
    gates are written to the output's columns without a second check.
    """
    out = netlist._copy_header(GateColumns())
    _lower(netlist, _ColumnWriter(out))
    # every cbit allocated above was written at once by its uncompute mx
    out._written_cbits.update(range(netlist.cbit_count, out.cbit_count))
    return out


# ---- counting and depth --------------------------------------------------

def count_gates(netlist: Netlist) -> tuple[int, int]:
    """(T count, CNOT count) of a fully expanded netlist, counted on its
    kind column.

    T counts ``t`` and ``tdg``; CNOT counts ``cx`` only, not ``cz``.
    prep0 is a zero-cost pseudo-gate and counts toward neither.  The ops
    of a netlist that was not expanded are counted by kind, and a macro
    among them raises ``UnexpandedNetlistError``.
    """
    cols = netlist.gates
    if type(cols) is GateColumns:
        return list.count(cols, "t") + list.count(cols, "tdg"), list.count(cols, "cx")
    if any(type(op) is not Gate for op in cols):
        raise UnexpandedNetlistError("macros remain; expand the netlist first")
    kinds = Counter(map(itemgetter(0), cols))
    return kinds["t"] + kinds["tdg"], kinds["cx"]


class _DepthWriter:
    """ASAP layering of the gates written to it.

    It is the emitter ``schedule_asap`` passes to ``_lower``: ``gate``
    layers one primitive, and ``run`` layers a run of a pattern in its
    pattern's ``step``, ``gate``'s rules compiled for its gates.
    ``meas`` holds the layer of each primitive ``mx``, by cbit, for the
    ``ccz_classical`` that reads it, which ``Netlist.append`` took only
    after that ``mx``.  A step records no layer for its
    uncompute's cbit: ``expand`` numbers those from the netlist's
    ``cbit_count`` up, and ``Netlist.append`` takes a ``ccz_classical``
    only on a cbit that an earlier primitive ``mx`` wrote, so no gate
    of a netlist it builds reads one.

    ``t_marks`` and ``cnot_marks`` are ``bytearray`` marks indexed by
    layer: 1 at each layer that holds a T gate, or a CNOT, 0 elsewhere.
    A layer number never exceeds the number of gates layered so far, so
    both grow ahead of their writes, by one byte per primitive but
    ``prep0`` in ``gate`` and by the pattern's gate count times k in
    ``run``, and every step writes its layers by item assignment.
    """

    __slots__ = ("last", "open", "meas", "t_marks", "cnot_marks")

    def __init__(self, netlist: Netlist) -> None:
        self.last = [0] * netlist.wire_count  # wire -> last occupied layer
        self.open = [0] * netlist.wire_count  # wire -> layer of a joinable fan-out, 0 if none
        self.meas: dict[int, int] = {}        # cbit -> layer of its primitive mx
        self.t_marks = bytearray(1)           # layer -> 1 if it holds a T gate
        self.cnot_marks = bytearray(1)        # layer -> 1 if it holds a CNOT

    def new_wires(self, k: int) -> range:
        first = len(self.last)
        self.last += [0] * k
        self.open += [0] * k
        return range(first, first + k)

    def gate(self, kind: str, a: int, b: int, cbit) -> None:
        """Layer one primitive; ``b`` is -1 for a one-wire kind."""
        if kind == "prep0":
            return
        self.t_marks.append(0)
        self.cnot_marks.append(0)
        last, open_ = self.last, self.open
        if kind == "cx":
            # a joinable fan-out of the control a takes a target b that
            # is free by its layer; a joined control already sits there
            j, la, lb = open_[a], last[a], last[b]
            layer = j if j and lb < j else (la if la > lb else lb) + 1
            last[a] = last[b] = open_[a] = layer
            open_[b] = 0
            self.cnot_marks[layer] = 1
        elif b < 0:
            layer = last[a] = last[a] + 1
            open_[a] = 0
            if kind in _T_KINDS:
                self.t_marks[layer] = 1
            elif kind == "mx":
                self.meas[cbit] = layer
        else:  # cz, ccz_classical
            layer = max(last[a], last[b]) + 1
            if kind == "ccz_classical":
                layer = max(layer, self.meas[cbit] + 1)
            last[a] = last[b] = layer
            open_[a] = open_[b] = 0

    def run(self, pattern: _Pattern, *columns) -> None:
        grow = bytes(len(pattern.gates) * len(columns[0]))
        self.t_marks += grow
        self.cnot_marks += grow
        pattern.step(self.last, self.open, self.t_marks, self.cnot_marks, *columns)


def schedule_asap(netlist: Netlist) -> tuple[int, int]:
    """Greedy as-soon-as-possible layering in one walk over a netlist's
    gates; returns (T-depth, CNOT-depth), the number of layers holding at
    least one T gate and at least one CNOT respectively.

    Gates keep program order per wire and are never commuted past each
    other, with one exception that matches how multi-target fan-out is
    drawn and counted: consecutive CNOTs sharing only their control wire
    may occupy one layer (they commute and form a single multi-target
    CX).  Preparation pseudo-gates take no layer; measurements and
    classically controlled gates are ordinary one-layer events, and a
    classically controlled gate never precedes its measurement.

    Primitives are layered gate by gate.  Macros are layered as they
    lower, with no gate columns built: each AND, uncompute or ripple cell
    of a run in one pass of a step compiled from its gates
    (``_derive_step``).  The result equals ``schedule_asap(expand(netlist))``.
    The walk stops after the last AND, adder, ``t``, ``tdg`` or ``cx``:
    a layer is fixed by earlier gates only, so the ops after it (the
    squarer's whole phase 8) mark neither a T layer nor a CNOT layer.
    """
    gates = netlist.gates
    stop = len(gates)
    while stop and (type(op := gates[stop - 1]) is UncomputeAnd
                    or type(op) is Gate and op[0] not in ("t", "tdg", "cx")):
        stop -= 1
    em = _lower(netlist, _DepthWriter(netlist), stop)
    return em.t_marks.count(1), em.cnot_marks.count(1)


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


def _json_entry(op) -> str:
    """Compact JSON entry of one op, a macro left unlowered."""
    cls = type(op)
    if cls is Gate:
        return _JSON_GATE[op.kind](op.wires[0], op.wires[-1], op.cbit)
    if cls is AddInPlace:
        wires = op.a_wires + op.b_wires + (() if op.carry_out is None else (op.carry_out,))
        return ('{"kind":"macro_add","wires":[%s],"width":%d,"carry_out":%s}'
                % (",".join(map(str, wires)), len(op.a_wires),
                   "false" if op.carry_out is None else "true"))
    kind = "macro_and" if cls is LogicalAnd else "macro_unand"
    return '{"kind":"%s","wires":[%d,%d,%d]}' % (kind, op.x, op.y, op.target)


def _skeleton(line: dict, sep: str, gates: tuple, wires: int):
    """(unit, fields, last): how ``_TextWriter`` writes the text of a run
    of the pattern of ``wires`` wires whose rows are ``gates``.

    Each row is formatted by ``line`` with a mark per role, the gates
    joined by ``sep``, and the text split at the marks.  ``unit`` holds
    the literals with a ``None`` slot between each two, the last literal
    followed by ``sep``; ``fields`` pairs the slice of each slot's copies
    in ``unit * k`` with its mark's role; ``last`` is the last literal
    alone, which ends a run.
    """
    # role -1 reads the None at the end; a one-wire template reads only
    # {0}, and a cbit-less one never {2}
    marks = [*map(chr, range(wires + 1)), None]
    text = sep.join(line[kind](marks[w0], marks[w1], marks[cbit])
                    for kind, w0, w1, cbit in gates)
    pieces = re.split(f"([\\x00-\\x{wires:02x}])", text)
    literals = pieces[::2]
    unit = [part for literal in literals[:-1] for part in (literal, None)]
    unit.append(literals[-1] + sep)
    g = len(unit)
    fields = tuple((slice(2 * p + 1, None, g), ord(mark))
                   for p, mark in enumerate(pieces[1::2]))
    return unit, fields, literals[-1]


def _derive_step(gates: tuple, wires: int):
    """The ``_DepthWriter`` step of the pattern of ``wires`` wires whose
    rows are ``gates``: ``gate``'s rules replayed once over symbolic
    layers, compiled into one loop over a run.

    A layer is a (local, offset) pair; wire i starts at the locals ``l<i>``
    and ``o<i>``, read from its ``last`` and ``open``.  ``above`` holds
    each local's (m, d) pairs, local m it is known to reach with d added,
    so every max and fan-out join those bounds decide folds into an
    offset, and only an undecided one becomes a new local."""
    start = {(f"{table[0]}{i}", 0): f"{table}[w{i}]" for table in ("last", "open_")
             for i in range(wires)}
    last, open_ = [*start][:wires], [*start][wires:]
    above = {name: [(name, 0)] for name, _ in start}
    meas, marks, body, used = {}, [], [], set()

    def text(v):
        used.add(v[0])
        return v[0] if v[1] == 0 else f"{v[0]} + {v[1]}"

    def reaches(u, v, by=0):  # u >= v + by is known
        return any(d + u[1] >= v[1] + by for m, d in above[u[0]] if m == v[0])

    def new(expr, *floors):  # a local set to expr, known to reach each floor
        name = f"v{len(above)}"
        above[name] = [(name, 0), *((m, d + k) for base, k in floors for m, d in above[base])]
        body.append(f"{name} = {expr}")
        return name, 0

    def after(*vals):  # the layer max(vals) + 1, over the values no other is known to reach
        vals = [v for v in dict.fromkeys(vals) if not any(u != v and reaches(u, v) for u in vals)]
        if len(vals) == 1:
            return vals[0][0], vals[0][1] + 1
        a, b, *more = map(text, vals)
        return new(f"max({', '.join([a, b, *more])}) + 1" if more else
                   f"({a} if {a} > {b} else {b}) + 1", *[(base, k + 1) for base, k in vals])

    for kind, a, b, cbit in gates:
        if kind == "cx":
            j, la, lb = open_[a], last[a], last[b]
            if j is None or reaches(lb, j):  # no fan-out to join
                layer = after(la, lb)
            elif reaches(j, lb, 1):
                layer = j
            else:  # undecided: j is la unless it is a's start open, which may be 0
                alt = after(lb) if j == la else after(la, lb)
                test = f"{text(j)} and " if j in start else ""
                layer = new(f"{text(j)} if {test}{text(lb)} < {text(j)} else {text(alt)}",
                            (lb[0], lb[1] + 1), j)
            last[a] = last[b] = open_[a] = layer
            open_[b] = None
            marks.append(("cnot_marks", layer))
        elif b >= 0:  # cz, ccz_classical
            layer = last[a] = last[b] = after(last[a], last[b], *(
                [meas[cbit]] if kind == "ccz_classical" else []))
            open_[a] = open_[b] = None
        elif kind != "prep0":  # a one-wire gate; prep0 takes no layer
            layer = last[a] = last[a][0], last[a][1] + 1
            open_[a] = None
            if kind in _T_KINDS:
                marks.append(("t_marks", layer))
            elif kind == "mx":
                meas[cbit] = layer
    # each right-hand side written once, for all the slots it goes to
    writes = {"1": [f"{array}[{text(v)}]" for array, v in dict.fromkeys(marks)]}
    for (v0, slot), v in zip(start.items(), last + open_):
        if v != v0:
            writes.setdefault("0" if v is None else text(v), []).append(slot)
    lines = [*(f"{name} = {slot}" for (name, _), slot in start.items() if name in used), *body,
             *(" = ".join([*targets, value]) for value, targets in writes.items() if targets)]
    exec(f"def step(last, open_, t_marks, cnot_marks, *columns):\n"
         f"    for {', '.join(f'w{i}' for i in range(wires))} in zip(*columns):\n"
         + "".join(f"        {line}\n" for line in lines), scope := {})
    return scope["step"]


class _Pattern(NamedTuple):
    """One lowered gate pattern over ``wires`` wires, as each emitter's
    ``run`` writes a run of it.

    ``gates``, its one definition, holds a ``(kind, w0, w1, cbit)`` row
    per gate, as ``_lower`` hands a primitive to ``gate``, over roles:
    0..wires-1 for its wires, ``wires`` for its fresh cbit, -1 for none.
    The rest is read off the rows (``_pattern``): ``columns`` is its
    column template, ``json`` and ``qasm`` its text skeletons, ``cbit``
    whether it takes a fresh cbit, and ``step`` the function
    ``_DepthWriter.run`` calls to layer a run of it on its layers and
    marks."""

    name: str
    wires: int
    gates: tuple
    columns: tuple
    json: tuple
    qasm: tuple
    cbit: bool
    step: Callable


def _pattern(name: str, wires: int, gates: tuple) -> _Pattern:
    """The pattern of ``wires`` wires whose rows are ``gates``.  Its
    template holds the g kinds and, per w0, w1 and cbit column, a
    (``slice(p, None, g)``, role) pair for each row p naming a role."""
    kinds, *columns = zip(*gates)
    g = len(gates)
    fills = tuple(tuple((slice(p, None, g), role) for p, role in enumerate(column) if role >= 0)
                  for column in columns)
    return _Pattern(name, wires, gates, (kinds, fills), _skeleton(_JSON_GATE, ",", gates, wires),
                    _skeleton(_QASM_LINE, "\n", gates, wires), bool(fills[2]),
                    _derive_step(gates, wires))


def _and_rows(x: int, y: int, t: int) -> tuple:
    # the magic state (prep0, h, t) on the fresh t, the compute CNOTs, the
    # t-controlled pair, the T column, the second pair, then h, s
    return (("prep0", t, -1, -1), ("h", t, -1, -1), ("t", t, -1, -1),
            ("cx", x, t, -1), ("cx", y, t, -1), ("cx", t, x, -1), ("cx", t, y, -1),
            ("tdg", x, -1, -1), ("tdg", y, -1, -1), ("t", t, -1, -1),
            ("cx", t, x, -1), ("cx", t, y, -1), ("h", t, -1, -1), ("s", t, -1, -1))


def _unand_rows(x: int, y: int, t: int, cbit: int) -> tuple:
    # t measured in the X basis onto cbit, its phase fixed on (x, y)
    return ("mx", t, -1, cbit), ("ccz_classical", x, y, cbit)


AND = _pattern("logical_and", 3, _and_rows(0, 1, 2))
UNAND = _pattern("uncompute_and", 3, _unand_rows(0, 1, 2, 3))
# one forward cell of an adder: with w = c_i, x = a_i and y = b_i, the
# fresh wire t gets c_{i+1} = c_i ^ ((a_i^c_i)(b_i^c_i)), over (w, x, y, t)
CARRY = _pattern("carry_cell", 4,
                 (("cx", 0, 1, -1), ("cx", 0, 2, -1), *_and_rows(1, 2, 3), ("cx", 0, 3, -1)))
# the cell that follows the carry cell over the same wires back: t is
# released, x is a_i again and y holds sum bit i, a_i ^ b_i ^ c_i
RELEASE = _pattern("release_cell", 4, (("cx", 0, 3, -1), *_unand_rows(1, 2, 3, 4),
                                       ("cx", 0, 1, -1), ("cx", 1, 2, -1)))
PATTERNS = (AND, UNAND, CARRY, RELEASE)


class _TextWriter:
    """Writes the text of a netlist's gates as ``fmt``, ``"json"`` or
    ``"qasm"``: one string per primitive, each one ``str.format`` call,
    and one per run of a pattern, a ``"".join`` of the pattern's
    skeleton repeated once per pattern and filled from the run's columns.

    It is the emitter ``to_json`` and ``to_qasm`` pass to ``_lower``, so
    it writes the text of what ``expand`` would write to its columns.
    ``names`` holds each wire's number as a string, converted once, and
    its length is the wire count after lowering; ``cbit_count`` counts
    the cbits likewise.
    """

    __slots__ = ("text", "names", "cbit_count", "_fmt", "_line")

    def __init__(self, netlist: Netlist, fmt: str) -> None:
        self.text: list[str] = []
        self.names = [*map(str, range(netlist.wire_count))]
        self.cbit_count = netlist.cbit_count
        self._fmt, self._line = fmt, _JSON_GATE if fmt == "json" else _QASM_LINE

    def new_wires(self, k: int) -> range:
        names = self.names
        first = len(names)
        names += map(str, range(first, first + k))
        return range(first, first + k)

    def gate(self, kind: str, w0: int, w1: int, cbit: int) -> None:
        self.text.append(self._line[kind](w0, w1, cbit))

    def run(self, pattern: _Pattern, *wires) -> None:
        # the unit repeated once per pattern, each field's slots filled
        # with its role's column of names: the wires', then the cbits
        k = len(wires[0])
        if not k:  # would join to "", an empty entry between separators
            return
        unit, fields, last = getattr(pattern, self._fmt)
        name = self.names.__getitem__
        columns = [[*map(name, column)] for column in wires]
        if pattern.cbit:
            first = self.cbit_count
            self.cbit_count = first + k
            columns.append([*map(str, range(first, first + k))])
        parts = unit * k
        for at, role in fields:
            parts[at] = columns[role]
        parts[-1] = last
        self.text.append("".join(parts))


def to_json(netlist: Netlist, *, lower: bool = False) -> str:
    """Compact JSON: ``wires``, ``registers`` and a ``gates`` list of
    ``kind``/``wires``/``cbit`` entries; ``from_json`` reads it back.

    Each op is written as its own entry, a macro as a macro entry
    (adders carry ``width`` and ``carry_out``); with ``lower=True`` the
    text of ``to_json(expand(netlist))`` is written straight from the
    macros, with no gate columns built."""
    if lower:
        em = _lower(netlist, _TextWriter(netlist, "json"))
        wires, text = len(em.names), em.text
    else:
        wires, text = netlist.wire_count, [*map(_json_entry, netlist.gates)]
    registers = json.dumps({name: list(ws) for name, ws in netlist.registers.items()},
                           separators=(",", ":"))
    head = f'{{"wires":{wires},"registers":{registers},"gates":['
    if not text:
        return head + "]}\n"
    # the head and tail ride on the first and last entries, so the text
    # is copied once, by the join
    text[0] = head + text[0]
    text[-1] += "]}\n"
    return ",".join(text)


# the keys a document and each kind of gate entry may have; a key that
# none of them reads would be dropped by the next to_json
_DOC_KEYS = frozenset({"wires", "registers", "gates"})
_PRIMITIVE_KEYS = frozenset({"kind", "wires", "cbit"})  # cbit optional
_AND_KEYS = frozenset({"kind", "wires"})
_MACRO_KEYS = {"macro_and": _AND_KEYS, "macro_unand": _AND_KEYS,
               "macro_add": frozenset({"kind", "wires", "width", "carry_out"})}


def from_json_dict(data: dict) -> Netlist:
    """Rebuild a netlist from a ``to_json`` document, passing every gate
    through ``Netlist.append``.  A malformed document raises
    ``NetlistError``, naming the gate index where there is one; so does
    a key the document or a gate entry of its kind does not take, which
    the next ``to_json`` would drop, and a ``wires`` count above one
    past the largest wire that a gate or register names."""
    if not isinstance(data, dict):
        raise NetlistError(f"netlist JSON must be an object, got {type(data).__name__}")
    if not _DOC_KEYS.issuperset(data):
        extra = next(k for k in data if k not in _DOC_KEYS)
        raise NetlistError(f"netlist JSON takes no key {extra!r}")
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
    out._wire_count = wires
    for name, ws in registers.items():
        if not isinstance(ws, list):
            raise NetlistError(f"register {name!r} must be a list of wires, got {ws!r}")
        out.register_alias(name, ws)
    for index, g in enumerate(data["gates"]):
        try:
            _load_op(out, g)
        except NetlistError as exc:
            raise NetlistError(f"gate {index}: {exc}") from None
    # every wire is a checked int by now; schedule_asap and to_qasm size
    # their tables by the count, so one past the named wires is refused
    named = max(map(max, filter(None, [*map(itemgetter("wires"), data["gates"]),
                                       *registers.values()])), default=-1)
    if wires > named + 1:
        names = (f"the largest wire a gate or register names is {named}" if named >= 0
                 else "no gate or register names a wire")
        raise NetlistError(f"netlist 'wires' is {wires}, but {names}")
    return out


def _load_op(out: Netlist, g) -> None:
    if not isinstance(g, dict):
        raise NetlistError(f"gate entry must be an object, got {g!r}")
    kind, wires = g.get("kind"), g.get("wires")
    keys = _MACRO_KEYS.get(kind, _PRIMITIVE_KEYS) if type(kind) is str else _PRIMITIVE_KEYS
    if not keys.issuperset(g):
        extra = next(k for k in g if k not in keys)
        raise NetlistError(f"{kind!r} takes no key {extra!r}")
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
    """QASM-like text of the netlist's expansion, one gate per line: the
    text of ``to_qasm(expand(netlist))``, formatted straight from the
    netlist's primitives and macros with no gate columns built."""
    em = _lower(netlist, _TextWriter(netlist, "qasm"))
    wires, cbits = len(em.names), em.cbit_count
    lines = [f"// wires: {wires}", f"qreg q[{wires}];"] + ([f"creg c[{cbits}];"] if cbits else [])
    lines += em.text
    lines[-1] += "\n"  # the final newline, without a copy of the whole text
    return "\n".join(lines)
