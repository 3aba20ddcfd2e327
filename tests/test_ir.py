"""Netlist IR: allocation, macro expansion, counting, layering, serialization."""

import collections
import itertools
import json
import pickle
import random
import re

import pytest

from qsquare import costs, ir
from qsquare.cli import _drop_gate
from qsquare.ir import (
    PATTERNS,
    _ColumnWriter,
    _DepthWriter,
    _TextWriter,
    AddInPlace,
    Gate,
    GateColumns,
    LogicalAnd,
    Netlist,
    NetlistError,
    UncomputeAnd,
    UnexpandedNetlistError,
    count_gates,
    expand,
    from_json,
    from_json_dict,
    schedule_asap,
    to_json,
    to_qasm,
)
from qsquare.costs import CostRow, MetricValues, measure_circuit
from qsquare.sim import Branch, SweepResult
from qsquare.synth import synthesize_squarer


def single_and_netlist():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = nl.new_wire()
    nl.append(LogicalAnd(x, y, t))
    return nl


# ---- allocation ----------------------------------------------------------

def test_alloc_input_register_is_dense():
    nl = Netlist()
    assert nl.alloc_register("A", 6, "input") == (0, 1, 2, 3, 4, 5)
    assert nl.wire_count == 6
    assert nl.gates == []


def test_alloc_zero_register_preps():
    nl = Netlist()
    nl.alloc_register("A", 6, "input")
    (w,) = nl.alloc_register("anc", 1, "zero")
    assert w == 6
    assert nl.gates == [Gate("prep0", (6,))]


def test_two_allocs_stay_dense():
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    nl.alloc_register("b", 4, "zero")
    assert nl.wire_count == 7
    assert nl.registers["b"] == (3, 4, 5, 6)


def test_alloc_duplicate_name_rejected():
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    with pytest.raises(NetlistError):
        nl.alloc_register("a", 2, "input")


def test_alloc_zero_width_rejected():
    nl = Netlist()
    # a width must be an int >= 1: True passes True < 1, and "2" < 1
    # would leak a TypeError
    for width in (0, -1, True, "2", 2.0):
        with pytest.raises(NetlistError,
                           match=rf"^register width must be an integer >= 1, got {width!r}$"):
            nl.alloc_register("a", width, "input")
    # to_json writes a name as a JSON key, which from_json reads back as
    # a str: 5 would come back as "5", beside any register named "5"
    for name in (5, None, ("A",), ["A"]):
        message = rf"^register name must be a str, got {re.escape(repr(name))}$"
        with pytest.raises(NetlistError, match=message):
            nl.alloc_register(name, 1, "input")
        with pytest.raises(NetlistError, match=message):
            nl.register_alias(name, ())
    assert nl.wire_count == 0 and dict(nl.registers) == {}


def test_new_wires_refuses_a_count_that_is_not_an_int_at_least_0():
    # a negative count would drop wires that gates already name: to_json
    # would write a count from_json refuses, and schedule_asap would index
    # past its tables
    nl = Netlist()
    nl.add_gate("x", nl.new_wire())
    nl.new_wires(3)
    nl.add_gate("cx", 0, 3)
    for k in (-3, -1, True, False, 1.0, "2", None):
        with pytest.raises(NetlistError, match="wire count to allocate must be an integer >= 0"):
            nl.new_wires(k)
        assert nl.wire_count == 4
    assert nl.new_wires(0) == range(4, 4) and nl.wire_count == 4
    assert from_json(to_json(nl)) == nl
    assert schedule_asap(nl) == (0, 1)


def test_gate_validation():
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    for cbit in (-1, True, "0"):
        with pytest.raises(NetlistError, match="cbit must be absent or a non-negative"):
            nl.add_gate("mx", 0, cbit=cbit)
    for kind, wires, cbit, match in [
        ("h", (0,), 0, "h cbit must be absent"),
        ("cx", (0, 0), None, "cx control and target must differ"),
        ("cx", (0, 7), None, r"wire 7 not allocated \(have 2\)"),
        ("frob", (0,), None, "unknown gate kind 'frob'"),
        ("mx", (0,), None, "mx needs a cbit"),
        ("h", (-1,), None, r"wire -1 not allocated \(have 2\)"),
        ("h", (2,), None, r"wire 2 not allocated \(have 2\)"),
        ("h", (True,), None, "wire index must be an integer, got True"),
        ("cx", (-1, 1), None, r"wire -1 not allocated \(have 2\)"),
        ("cx", (0, -1), None, r"wire -1 not allocated \(have 2\)"),
        ("cz", (False, 1), None, "wire index must be an integer, got False"),
        ("cx", (0, True), None, "wire index must be an integer, got True"),
        ("h", (), None, r"h takes 1 wire\(s\), got \(\)"),
        ("cx", (0,), None, r"cx takes 2 wire\(s\), got \(0,\)"),
    ]:
        with pytest.raises(NetlistError, match=match):
            nl.add_gate(kind, *wires, cbit=cbit)
    with pytest.raises(NetlistError, match="unknown gate kind"):
        nl.append(Gate(["h"], (0,)))  # an unhashable kind, as JSON could give
    # a list would not survive the JSON round trip, which reads tuples back
    for gate in (Gate("cx", [0, 1]), Gate("h", [0]), Gate("mx", [0], 0)):
        with pytest.raises(NetlistError, match=rf"{gate.kind} wires must be a tuple, got \["):
            nl.append(gate)
    assert nl.gates == []


_DISTINCT = "inputs and target must be three distinct wires"


def _bad_and_cases():
    cases = [
        (LogicalAnd(0, 0, 2), _DISTINCT),       # inputs equal
        (LogicalAnd(0, 1, 0), _DISTINCT),       # target is an input
        (LogicalAnd(0, 1, 1), _DISTINCT),
        (UncomputeAnd(0, 0, 2), _DISTINCT),
        (UncomputeAnd(0, 1, 1), _DISTINCT),
        (LogicalAnd(0, 1, 7), r"wire 7 not allocated \(have 3\)"),
        (UncomputeAnd(0, 1, 7), r"wire 7 not allocated \(have 3\)"),
    ]
    # a negative, a past-the-end and a bool wire (not an index) in each position
    for cls in (LogicalAnd, UncomputeAnd):
        for pos in range(3):
            for bad, match in [(-1, r"wire -1 not allocated \(have 3\)"),
                               (3, r"wire 3 not allocated \(have 3\)"),
                               (True, "wire index must be an integer, got True")]:
                wires = [0, 1, 2]
                wires[pos] = bad
                cases.append((cls(*wires), match))
    return [pytest.param(op, match, id=repr(op)) for op, match in cases]


@pytest.mark.parametrize("op, match", _bad_and_cases())
def test_and_macros_validated_at_append(op, match):
    # expand() trusts the macros it lowers, so append must refuse these
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    with pytest.raises(NetlistError, match=match) as err:
        nl.append(op)
    assert nl.gates == []
    if match == _DISTINCT:
        assert str(err.value).startswith(repr(op))


def test_adder_macro_validation():
    nl = Netlist()
    a = nl.alloc_register("a", 3, "input")
    b = nl.alloc_register("b", 3, "input")
    (c,) = nl.alloc_register("c", 1, "zero")
    before = list(nl.gates)
    for op, match in [
        (AddInPlace(a, b[:2], None), "equal width >= 2, got 3 and 2"),
        (AddInPlace(a, a, None), "adder operands overlap on wire 0"),
        (AddInPlace((a[0],), (b[0],), None), "equal width >= 2, got 1 and 1"),
        (AddInPlace(a, (b[0], b[1], 9), None), r"wire 9 not allocated \(have 7\)"),
        (AddInPlace((-1, a[1]), b[:2], None), r"wire -1 not allocated \(have 7\)"),
        (AddInPlace(a, b, 9), r"wire 9 not allocated \(have 7\)"),
        (AddInPlace((a[0], True), b[:2], None), "wire index must be an integer, got True"),
        (AddInPlace(a, b, False), "wire index must be an integer, got False"),
        (AddInPlace(a, b, b[2]), f"adder operands overlap on wire {b[2]}"),
        (AddInPlace(a, b, a[0]), f"adder operands overlap on wire {a[0]}"),
        # the message keeps the first fault in operand order
        (AddInPlace((a[0], a[0]), (b[0], 9), None), f"overlap on wire {a[0]}"),
    ]:
        with pytest.raises(NetlistError, match=match):
            nl.append(op)
        assert nl.gates == before
    nl.append(AddInPlace(a, b, c))
    assert nl.gates == before + [AddInPlace(a, b, c)]


def test_adder_operands_must_be_tuples():
    # list operands would expand, but to_json concatenates them as tuples
    nl = Netlist()
    nl.alloc_register("a", 4, "input")
    for op in (AddInPlace([0, 1], [2, 3]), AddInPlace((0, 1), [2, 3]),
               AddInPlace([0, 1], (2, 3))):
        with pytest.raises(NetlistError, match="adder operands must be tuples") as err:
            nl.append(op)
        assert repr(op) in str(err.value)
    assert nl.gates == []
    nl.append(AddInPlace((0, 1), (2, 3)))
    assert '"kind":"macro_add"' in to_json(nl)


def test_register_alias_checks_and_stores_its_wires():
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    # an iterator is read once, so the register holds what was checked
    nl.register_alias("v", (w for w in range(3)))
    assert nl.registers["v"] == (0, 1, 2)
    nl.register_alias("rev", iter([2, 0]))
    assert nl.registers["rev"] == (2, 0)
    for name, wires, match in [
        ("neg", (0, -1), r"wire -1 not allocated \(have 3\)"),
        ("past", [1, 3], r"wire 3 not allocated \(have 3\)"),
        ("gen", (w for w in (0, 5)), r"wire 5 not allocated \(have 3\)"),
        ("bool", (0, True), "wire index must be an integer, got True"),
        ("float", (1.0,), "wire index must be an integer, got 1.0"),
        ("v", (0,), "register 'v' already allocated"),
        # a reader that maps a register's wires to values, as the
        # squarer's oracle maps A's to its input planes, would keep one
        ("twice", (0, 0, 2), "^register 'twice' names wire 0 twice$"),
        ("again", iter([2, 0, 2, 2]), "^register 'again' names wire 2 twice$"),
    ]:
        with pytest.raises(NetlistError, match=match):
            nl.register_alias(name, wires)
    assert set(nl.registers) == {"a", "v", "rev"}


def test_macro_ops_are_values_of_their_own_type():
    ops = (LogicalAnd(1, 2, 3), UncomputeAnd(1, 2, 3))
    for op in ops:
        assert op == type(op)(1, 2, 3) and not op != type(op)(1, 2, 3)
        assert hash(op) == hash(type(op)(1, 2, 3))
        assert op != (1, 2, 3) and (1, 2, 3) != op
        assert not op == (1, 2, 3) and not (1, 2, 3) == op
        assert op != Gate("cx", (1, 2))
        with pytest.raises(AttributeError):
            op.x = 5
    assert ops[0] != ops[1] and ops[1] != ops[0] and not ops[0] == ops[1]
    assert len({*ops, LogicalAnd(1, 2, 3)}) == 2
    assert repr(ops[0]) == "LogicalAnd(x=1, y=2, target=3)"
    assert repr(ops[1]) == "UncomputeAnd(x=1, y=2, target=3)"


def _record_fields():
    """(type, fields) of every record of the package, the fields given
    by a function that makes fresh, equal values."""
    return [
        (AddInPlace, lambda: ((0, 1), (2, 3), 4)),
        (AddInPlace, lambda: ((0, 1), (2, 3))),  # carry_out defaults to None
        (SweepResult, lambda: ({0: 1, 1: 2}, {3: 0}, 2)),
        (Branch, lambda: ({1: 1}, {0: 1}, 0.5)),
        (MetricValues, lambda: (1, 2, 3, 4, 5, 10)),
        (CostRow, lambda: (6, "proposed", "t_count", 152, 144, -8)),
    ]


_RECORDS = _record_fields()


@pytest.mark.parametrize("cls, fields", _RECORDS, ids=[cls.__name__ for cls, _ in _RECORDS])
def test_records_are_values_of_their_own_type(cls, fields):
    # as the macro ops: a record equals only a record of its own type, not
    # the plain tuple of its fields nor another type over the same fields
    record, same, plain = cls(*fields()), cls(*fields()), fields()
    assert record == same and not record != same
    assert record != plain and plain != record
    assert not record == plain and not plain == record
    # a named tuple of another type with the same name and fields (whose
    # own tuple equality decides the reflected comparison)
    lookalike = collections.namedtuple(cls.__name__, cls._fields)(*record)
    assert record != lookalike and not record == lookalike
    assert record != LogicalAnd(1, 2, 3) and LogicalAnd(1, 2, 3) != record
    try:
        hashes = hash(record), hash(same)
    except TypeError:  # a dict, list or netlist field
        hashes = None
    assert hashes is None or hashes[0] == hashes[1]
    with pytest.raises(AttributeError):
        setattr(record, (cls._fields or ("x",))[0], 0)
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, record)))


def test_swapping_a_macro_type_changes_the_netlist():
    nl = synthesize_squarer(6)
    k = next(i for i, op in enumerate(nl.gates) if type(op) is LogicalAnd)
    assert relabeled(nl, range(nl.wire_count)) == nl
    swap = {k: UncomputeAnd(*nl.gates[k])}
    other = relabeled(nl, range(nl.wire_count), lambda i, op: swap.get(i, op))
    assert other != nl and not other == nl


def test_netlists_of_different_cbit_counts_differ():
    nl, other = Netlist(), Netlist()
    for netlist in nl, other:
        netlist.new_wires(2)
    assert other == nl
    other.new_cbit()
    assert other != nl and not other == nl


# ---- expansion -------------------------------------------------------------

def test_expanded_and_counts_four_t_six_cnot():
    full = expand(single_and_netlist())
    assert type(full.gates) is GateColumns
    assert count_gates(full) == (4, 6)


def test_expanded_uncompute_is_clifford_only():
    nl = single_and_netlist()
    t = nl.wire_count - 1
    nl.append(UncomputeAnd(0, 1, t))
    full = expand(nl)
    assert count_gates(full) == (4, 6)  # only the AND contributes
    assert [g.kind for g in full.gates].count("mx") == 1
    # the uncompute tail is one measurement plus one classical CZ
    assert [g.kind for g in full.gates[-2:]] == ["mx", "ccz_classical"]


@pytest.mark.parametrize("n", range(5, 13))
def test_expanded_squarer_gates_pass_validation(n):
    # expand() writes the gates it lowers without checking them, so each
    # one must still be a gate that Netlist.append accepts
    full = expand(synthesize_squarer(n))
    assert isinstance(full.gates, GateColumns)
    again = Netlist()
    again.new_wires(full.wire_count)
    for g in full.gates:
        again.append(g)
    assert type(again.gates) is not GateColumns
    assert again.gates == full.gates
    # the unexpanded form is counted by kind: same figures
    assert count_gates(again) == count_gates(full)
    assert schedule_asap(again) == schedule_asap(full)


def test_gate_columns_read_as_gates_and_refuse_mutation():
    nl = single_and_netlist()
    nl.append(UncomputeAnd(0, 1, 2))
    full = expand(nl)
    cols = full.gates
    gates = list(cols)
    assert len(cols) == len(gates) == 16
    assert all(type(g) is Gate for g in gates)
    assert cols[0] == Gate("prep0", (2,)) and cols[3] == Gate("cx", (0, 2))
    assert cols[-1] == Gate("ccz_classical", (0, 1), 0) == gates[-1]
    # a slice is a plain list of the kept rows' gates: steps either way,
    # empty and out-of-range slices included
    for index in (slice(-2, None), slice(None, None, -1), slice(1, 12, 3), slice(-1, -12, -4),
                  slice(None, None, -5), slice(5, 5), slice(9, 2), slice(20, 30),
                  slice(-40, 3), slice(3, -40, -1)):
        part = cols[index]
        assert type(part) is list and part == gates[index], index
        assert all(type(g) is Gate for g in part)
    assert cols == gates and gates == cols and not cols != gates
    # an op enters only through Netlist.append, which writes every column
    full.add_gate("z", 1)
    assert cols[-1] == Gate("z", (1,)) and len(cols) == 17
    assert full.gates is cols
    with pytest.raises(UnexpandedNetlistError):
        full.append(LogicalAnd(0, 1, 2))
    assert len(cols) == 17


def _seal_netlists():
    macro = single_and_netlist()
    macro.add_gate("h", 0)
    return [pytest.param(macro, id="macro"), pytest.param(expand(macro), id="expanded")]


@pytest.mark.parametrize("nl", _seal_netlists())
def test_ops_enter_only_through_append(nl):
    # every list behaviour that would change the store, append included,
    # refuses; so do the reads that would see a column store's kind
    # strings alone, and pickling, which would keep them alone
    ops = nl.gates
    gates = list(ops)
    reads = (lambda c: gates[0] in c, reversed, lambda c: c + [], lambda c: [] + c,
             lambda c: c * 2, lambda c: 2 * c, lambda c: c < gates, lambda c: c <= gates,
             lambda c: c > gates, lambda c: c >= gates, lambda c: c.count(gates[0]),
             lambda c: c.index(gates[0]), lambda c: c.copy(), pickle.dumps)
    mutations = (lambda c: c.append(gates[0]), lambda c: c.extend(gates),
                 lambda c: c.insert(0, gates[0]), lambda c: c.pop(),
                 lambda c: c.remove(gates[0]), lambda c: c.clear(), lambda c: c.sort(),
                 lambda c: c.reverse(), lambda c: c.__setitem__(0, gates[1]),
                 lambda c: c.__delitem__(0), lambda c: c.__iadd__(gates),
                 lambda c: c.__imul__(2))
    for behaviour in reads + mutations:
        with pytest.raises(TypeError, match="^a netlist's ops support len, iteration, "
                                            "indexing, == and repr, and enter only "
                                            "through Netlist.append, not "):
            behaviour(ops)
    # list.__init__ would clear or refill the store
    with pytest.raises(TypeError):
        ops.__init__(gates)
    ops.__init__()
    assert list(ops) == gates and nl.gates is ops


@pytest.mark.parametrize("nl", _seal_netlists())
def test_header_and_ops_are_read_only(nl):
    before = (nl.wire_count, nl.cbit_count, list(nl.gates), dict(nl.registers))
    for name, value in (("gates", []), ("wire_count", 99), ("cbit_count", 5),
                        ("registers", {"X": (99,)})):
        with pytest.raises(AttributeError):
            setattr(nl, name, value)
        with pytest.raises(AttributeError):
            delattr(nl, name)
    # a register enters through alloc_register or register_alias only
    with pytest.raises(TypeError):
        nl.registers["X"] = (99,)
    assert (nl.wire_count, nl.cbit_count, list(nl.gates), dict(nl.registers)) == before


def test_a_one_wire_cz_cannot_be_put_into_a_netlist():
    # a one-wire cz would run as z; over one wire, two of them were once
    # certified clean as an expansion of the empty netlist
    macro = Netlist()
    macro.alloc_register("x", 1, "input")
    bad = Gate("cz", (0,))
    for nl in (macro, expand(macro)):
        with pytest.raises(NetlistError, match=r"^cz takes 2 wire\(s\), got \(0,\)$"):
            nl.append(bad)
        with pytest.raises(TypeError):
            nl.gates.append(bad)
        with pytest.raises(AttributeError):
            nl.gates = [bad, bad]
        assert list(nl.gates) == []
    with pytest.raises(NetlistError, match=r"^gate 0: cz takes 2 wire"):
        from_json_dict({"wires": 1, "gates": [{"kind": "cz", "wires": [0]}]})


def test_without_drops_one_op_by_slicing():
    nl = single_and_netlist()
    nl.append(UncomputeAnd(0, 1, 2))
    nl.add_gate("h", 0)
    full = expand(nl)
    for source in nl, full:
        gates = list(source.gates)
        for k in range(len(gates)):
            if type(gates[k]) is Gate and gates[k].kind == "mx":
                continue  # its ccz_classical follows
            mutant = source.without(k)
            assert type(mutant.gates) is type(source.gates)
            assert list(mutant.gates) == gates[:k] + gates[k + 1:]
            assert (mutant.wire_count, mutant.cbit_count, mutant.registers) == (
                source.wire_count, source.cbit_count, source.registers)
            # the mutant is a netlist append would build
            again = relabeled(mutant, range(mutant.wire_count))
            assert again.gates == mutant.gates and to_json(again) == to_json(mutant)
        assert list(source.gates) == gates
        # a bool or a float is refused as an out-of-range int is, not read
        # as the op it would index
        for k in (-1, len(gates), True, 1.0):
            message = f"op index {k!r} out of range (netlist has {len(gates)})"
            with pytest.raises(IndexError, match=re.escape(message)):
                source.without(k)


def test_without_refuses_to_orphan_a_classical_cz():
    nl = Netlist()
    a, b, c = nl.alloc_register("a", 3, "input")
    nl.add_gate("mx", c, cbit=0)
    nl.add_gate("ccz_classical", a, b, cbit=0)
    with pytest.raises(NetlistError, match=r"^dropping op 0, Gate\(kind='mx', wires=\(2,\), "
                                           r"cbit=0\), leaves a later ccz_classical reading "
                                           r"cbit 0, which no mx wrote$"):
        nl.without(0)
    # so is the mx of an expanded uncompute
    and_unand = single_and_netlist()
    and_unand.append(UncomputeAnd(0, 1, 2))
    full = expand(and_unand)
    k = next(i for i, g in enumerate(full.gates) if g.kind == "mx")
    with pytest.raises(NetlistError, match="which no mx wrote"):
        full.without(k)
    # the other of two mx on the cbit keeps it written
    nl = Netlist()
    a, b, c = nl.alloc_register("a", 3, "input")
    nl.add_gate("mx", c, cbit=0)
    nl.add_gate("mx", a, cbit=0)
    nl.add_gate("ccz_classical", a, b, cbit=0)
    for k in (0, 1):
        nl.without(k).add_gate("ccz_classical", a, b, cbit=0)
    # an mx no gate reads drops, and its cbit is unwritten after it
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    nl.add_gate("mx", 2, cbit=0)
    nl.add_gate("t", 0)
    mutant = nl.without(0)
    assert mutant.gates == [Gate("t", (0,))] and mutant.cbit_count == 1
    with pytest.raises(NetlistError, match="no earlier mx wrote"):
        mutant.add_gate("ccz_classical", 0, 1, cbit=0)
    nl.add_gate("ccz_classical", 0, 1, cbit=0)  # the source keeps its mx


def test_expand_without_macros_is_identity():
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    nl.add_gate("h", 0)
    nl.add_gate("cx", 0, 1)
    assert expand(nl) == nl


@pytest.mark.parametrize("walk", [
    expand, schedule_asap, lambda nl: to_json(nl, lower=True), to_qasm, to_json,
    measure_circuit,
], ids=["expand", "schedule_asap", "to_json", "to_qasm", "to_json-unlowered", "measure"])
def test_lowering_refuses_an_op_of_no_known_type(walk):
    # append refuses such an op, and no other call can put one into a
    # netlist, so no walk meets one: each dispatches on the four types
    nl = single_and_netlist()
    for op in (("cx", (0, 1), None), ("cx", (0, 1)), "x", None):
        with pytest.raises(NetlistError,
                           match=rf"^not a gate or macro op: {re.escape(repr(op))}$"):
            nl.append(op)
    assert nl.gates == [LogicalAnd(0, 1, 2)]
    assert walk(nl) == walk(single_and_netlist())


@pytest.mark.parametrize("base", [Gate, LogicalAnd, UncomputeAnd, AddInPlace],
                         ids=lambda cls: cls.__name__)
def test_append_refuses_an_op_of_a_subclass(base):
    # append takes ops of exactly the four types, so every walk of a
    # netlist it builds dispatches on the op's type alone
    class Sub(base):
        pass

    nl = Netlist()
    a0, a1, b0, b1, t = nl.alloc_register("a", 5, "input")
    op = {Gate: Gate("cx", (a0, b0)), LogicalAnd: LogicalAnd(a0, b0, t),
          UncomputeAnd: UncomputeAnd(a0, b0, t),
          AddInPlace: AddInPlace((a0, a1), (b0, b1), t)}[base]
    nl.append(op)
    with pytest.raises(NetlistError, match=r"^not a gate or macro op: "):
        nl.append(Sub(*op))
    assert nl.gates == [op]


def test_expand_is_idempotent():
    nl = single_and_netlist()
    nl.append(UncomputeAnd(0, 1, 2))
    once = expand(nl)
    assert expand(once) == once


# ---- counting ---------------------------------------------------------------

def test_empty_netlist_counts_zero():
    nl = Netlist()
    assert count_gates(nl) == (0, 0)
    assert schedule_asap(nl) == (0, 0)


def test_netlist_without_gates_is_written_whole():
    # the head and tail of the text ride on the first and last entries,
    # so a netlist with none still gets both
    nl = Netlist()
    for lower in (False, True):
        assert to_json(nl, lower=lower) == '{"wires":0,"registers":{},"gates":[]}\n'
    assert to_qasm(nl) == "// wires: 0\nqreg q[0];\n"
    nl.alloc_register("a", 2, "input")
    assert to_json(expand(nl)) == '{"wires":2,"registers":{"a":[0,1]},"gates":[]}\n'
    assert to_qasm(nl) == "// wires: 2\nqreg q[2];\n"


def test_preps_are_free_for_all_counts():
    nl = Netlist()
    nl.alloc_register("a", 2, "zero")
    assert count_gates(nl) == (0, 0)
    assert schedule_asap(nl) == (0, 0)


def test_count_t_on_unexpanded_rejected():
    nl = single_and_netlist()
    with pytest.raises(UnexpandedNetlistError):
        count_gates(nl)


def _measured_by_expansion(nl):
    """What ``measure_circuit`` returns of the first five metrics, taken
    from the whole expansion."""
    full = expand(nl)
    (t_count, cnot_count), (t_depth, cnot_depth) = count_gates(full), schedule_asap(nl)
    return t_count, t_depth, cnot_count, cnot_depth, full.wire_count


@pytest.mark.parametrize("n", [*range(5, 41), 64, 128])
def test_measure_of_squarer_equals_its_expansion(n):
    nl = synthesize_squarer(n)
    assert measure_circuit(nl)[:5] == _measured_by_expansion(nl)


def test_measure_of_every_adder_shape_equals_its_expansion():
    # each shape twice, over scattered wires and with the operands
    # swapped, between primitives, so the counts add up per op
    for m in range(2, 41):
        for carry in (False, True):
            nl = Netlist()
            wires = nl.alloc_register("w", 2 * m + 3, "zero")[::-1]
            a, b = wires[1:2 * m:2], wires[2:2 * m + 1:2]
            c0 = nl.new_wire() if carry else None
            c1 = nl.new_wire() if carry else None
            nl.add_gate("t", wires[0])
            nl.append(AddInPlace(a, b, c0))
            nl.add_gate("cx", wires[0], wires[-1])
            nl.append(AddInPlace(b, a, c1))
            assert measure_circuit(nl)[:5] == _measured_by_expansion(nl), (m, carry)


def test_measure_of_primitives_and_of_columns_equals_its_expansion():
    nl = Netlist()
    a, b, c = nl.alloc_register("a", 3, "input")
    for kind, wires, cbit in [("t", (a,), None), ("h", (b,), None), ("cx", (a, b), None),
                              ("tdg", (c,), None), ("mx", (c,), 0), ("cx", (b, a), None),
                              ("ccz_classical", (a, b), 0), ("t", (b,), None)]:
        nl.append(Gate(kind, wires, cbit))
    assert type(nl.gates) is not GateColumns
    assert measure_circuit(nl)[:5] == _measured_by_expansion(nl) == (3, 2, 2, 2, 3)
    full = expand(synthesize_squarer(9))
    assert isinstance(full.gates, GateColumns)
    assert measure_circuit(full)[:5] == _measured_by_expansion(full)


def test_measure_of_drop_gate_mutants_equals_their_expansion():
    netlist = synthesize_squarer(6)
    for k in range(len(netlist.gates)):
        mutant = _drop_gate(netlist, k)
        assert measure_circuit(mutant)[:5] == _measured_by_expansion(mutant), k


def test_measure_expands_each_shape_once_per_process(monkeypatch):
    # a second measurement finds every shape's cost cached
    calls = []
    real = costs.expand

    def counted(nl):
        calls.append(nl.wire_count)
        return real(nl)

    monkeypatch.setattr(costs, "expand", counted)
    costs._shape_cost.cache_clear()
    nl = synthesize_squarer(64)
    first = measure_circuit(nl)[:5]
    adders = sum(isinstance(op, AddInPlace) for op in nl.gates)
    assert len(calls) == 2 + adders == costs._shape_cost.cache_info().currsize
    del calls[:]
    assert measure_circuit(nl)[:5] == first
    assert calls == []


# ---- layering ----------------------------------------------------------------

def test_and_block_depths_match_stated_figures():
    full = expand(single_and_netlist())
    assert schedule_asap(full) == (2, 4)


def test_disjoint_and_blocks_share_layers():
    nl = Netlist()
    nl.alloc_register("a", 4, "input")
    t1, t2 = nl.new_wire(), nl.new_wire()
    nl.append(LogicalAnd(0, 1, t1))
    nl.append(LogicalAnd(2, 3, t2))
    full = expand(nl)
    assert schedule_asap(full) == (2, 4)


def test_serial_t_gates_depth_equals_count():
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    for _ in range(5):
        nl.add_gate("t", 0)
    assert schedule_asap(nl)[0] == count_gates(nl)[0] == 5


def test_t_depth_never_exceeds_t_count():
    full = expand(single_and_netlist())
    assert schedule_asap(full)[0] <= count_gates(full)[0]


def test_classical_cz_waits_for_its_measurement():
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    c = nl.new_cbit()
    nl.add_gate("mx", 2, cbit=c)                 # layer 1
    nl.add_gate("ccz_classical", 0, 1, cbit=c)   # layer 2: after its outcome
    nl.add_gate("t", 0)                          # layer 3
    nl.add_gate("t", 2)                          # layer 2
    # without the measurement dependency both T gates would share layer 2
    assert schedule_asap(nl) == (2, 0)


@pytest.mark.parametrize("gate, cnot_depth", [
    (("cx", 3, 0), 3),   # wire 0 becomes a target; CNOTs in layers 1, 2, 3
    (("cz", 0, 3), 2),
    (("h", 0), 2),
])
def test_fan_out_join_ends_when_its_control_is_touched(gate, cnot_depth):
    nl = Netlist()
    nl.alloc_register("a", 5, "input")
    nl.add_gate("cx", 0, 1)   # layer 1
    nl.add_gate("cx", 0, 2)   # layer 1: joins the fan-out of control 0
    nl.add_gate(*gate)        # layer 2 on wire 0
    nl.add_gate("cx", 0, 4)   # layer 3: no join back into layer 1
    assert schedule_asap(nl) == (0, cnot_depth)


def _and_then_unmarking_ops(*tail):
    """An AND, then its uncompute, an h and an mx, none of which marks a
    T or CNOT layer, then the primitives ``tail``."""
    nl = single_and_netlist()
    x, y, t = nl.gates[0]
    nl.append(UncomputeAnd(x, y, t))
    nl.add_gate("h", x)
    nl.add_gate("mx", y, cbit=nl.new_cbit())
    for gate in tail:
        nl.add_gate(*gate)
    return nl


@pytest.mark.parametrize("tail, depths", [
    ((), (2, 4)),                           # the AND's own depths
    ((("cx", 0, 1),), (2, 5)),              # a CNOT after them still counts
    ((("t", 0),), (3, 4)),                  # as does a T gate
    ((("tdg", 1), ("h", 1), ("z", 0)), (3, 4)),
])
def test_ops_after_the_last_marking_op_change_no_depth(tail, depths):
    assert schedule_asap(single_and_netlist()) == (2, 4)
    nl = _and_then_unmarking_ops(*tail)
    assert schedule_asap(nl) == schedule_asap(expand(nl)) == depths


def test_append_refuses_classical_cz_on_unwritten_cbit():
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    c = nl.new_cbit()  # allocated, but no mx has written it
    for cbit in (c, 5):
        with pytest.raises(NetlistError, match=f"reads cbit {cbit}, which no earlier mx wrote"):
            nl.add_gate("ccz_classical", 0, 1, cbit=cbit)
    nl.add_gate("mx", 2, cbit=5)
    nl.add_gate("ccz_classical", 0, 1, cbit=5)
    assert nl.gates == [Gate("mx", (2,), 5), Gate("ccz_classical", (0, 1), 5)]


def test_cbits_written_by_expansion_count_as_written():
    nl = single_and_netlist()
    nl.append(UncomputeAnd(0, 1, 2))
    full = expand(nl)
    assert full.cbit_count == 1 and full._written_cbits == {0}
    full.add_gate("ccz_classical", 0, 1, cbit=0)
    with pytest.raises(NetlistError, match="no earlier mx"):
        full.add_gate("ccz_classical", 0, 1, cbit=1)


def test_hand_built_mx_declares_its_cbit():
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    nl.add_gate("mx", 0, cbit=0)
    nl.add_gate("ccz_classical", 0, 1, cbit=0)
    assert nl.cbit_count == 1
    assert to_qasm(nl).splitlines()[2] == "creg c[1];"
    assert "mx q[0] -> c[0];" in to_qasm(nl)


def relabeled(netlist, perm, swap=lambda k, op: op):
    """New netlist, built through ``append``, with wire i renamed to
    perm[i] (perm is a bijection) and op k replaced by ``swap(k, op)``
    before it is renamed."""
    if sorted(perm) != list(range(netlist.wire_count)):
        raise NetlistError("relabeling must be a permutation of all wires")
    out = Netlist()
    out.new_wires(netlist.wire_count)
    for _ in range(netlist.cbit_count):
        out.new_cbit()
    for name, ws in netlist.registers.items():
        out.register_alias(name, (perm[w] for w in ws))
    for k, op in enumerate(netlist.gates):
        op = swap(k, op)
        if isinstance(op, Gate):
            out.append(Gate(op.kind, tuple(perm[w] for w in op.wires), op.cbit))
        elif isinstance(op, AddInPlace):
            out.append(AddInPlace(
                tuple(perm[w] for w in op.a_wires),
                tuple(perm[w] for w in op.b_wires),
                None if op.carry_out is None else perm[op.carry_out]))
        else:
            out.append(type(op)(perm[op.x], perm[op.y], perm[op.target]))
    return out


def test_counts_and_depths_invariant_under_relabeling():
    nl = single_and_netlist()
    nl.append(UncomputeAnd(0, 1, 2))
    full = expand(nl)
    perm = [2, 0, 1]
    relabeled_full = relabeled(full, perm)
    assert count_gates(relabeled_full) == count_gates(full)
    assert schedule_asap(relabeled_full) == schedule_asap(full)


# ---- serialization -------------------------------------------------------------

def test_json_round_trip_macro_netlist():
    nl = Netlist()
    a = nl.alloc_register("a", 3, "input")
    b = nl.alloc_register("b", 3, "zero")
    t = nl.new_wire()
    nl.append(LogicalAnd(a[0], b[0], t))
    carry = nl.new_wire()
    nl.append(AddInPlace(a, b, carry))
    nl.append(UncomputeAnd(a[0], b[0], t))
    assert from_json(to_json(nl)) == nl


@pytest.mark.parametrize("doc, message", [
    ({"gates": []}, "no 'wires'"),
    ({"wires": -3, "gates": []}, "non-negative"),
    ({"wires": 2, "gates": {"kind": "h", "wires": [0]}}, "'gates' must be a list"),
    ({"wires": 2, "gates": [{"kind": "h", "wires": [True]}]}, "must be an integer"),
    ({"wires": 1, "gates": [{"kind": "mx", "wires": [0], "cbit": -4}]}, "^gate 0: .*-4"),
    ({"wires": 1, "gates": [{"kind": "mx", "wires": [0], "cbit": True}]}, "^gate 0: .*True"),
    ({"wires": 1, "gates": [{"kind": "mx", "wires": [0], "cbit": "a"}]}, "^gate 0: .*'a'"),
    ({"wires": 1, "gates": [{"kind": "h", "wires": [0]}, 5]}, "^gate 1: .*object"),
    ({"wires": 1, "registers": {"A": [7]}, "gates": []}, "register 'A'.*wire 7 not allocated"),
    ({"wires": 6, "gates": [{"kind": "macro_add", "wires": [0, 1, 2, 3, 4],
                             "width": 2.7, "carry_out": True}]}, "^gate 0: .*2.7"),
    ({"wires": 3, "gates": [{"kind": "ccz_classical", "wires": [0, 1], "cbit": 0},
                            {"kind": "mx", "wires": [2], "cbit": 0}]},
     "^gate 0: .*no earlier mx"),
    # a T state is prepared as prep0, h, t, so that its T gate is counted
    ({"wires": 1, "gates": [{"kind": "prepT", "wires": [0]}]},
     "^gate 0: unknown gate kind 'prepT'$"),
    # keys that no reader takes, which the next to_json would drop
    ({"wires": 5, "gates": [{"kind": "macro_and", "wires": [0, 1, 2], "cbit": 4}]},
     "^gate 0: 'macro_and' takes no key 'cbit'$"),
    ({"wires": 1, "gates": [{"kind": "h", "wires": [0], "width": 3}]},
     "^gate 0: 'h' takes no key 'width'$"),
    ({"wires": 1, "gates": [], "cbits": 2}, "^netlist JSON takes no key 'cbits'$"),
    # a count past the wires named, which schedule_asap and to_qasm would
    # size their tables by
    ({"wires": 2**40, "gates": []},
     "^netlist 'wires' is 1099511627776, but no gate or register names a wire$"),
    ({"wires": 9, "registers": {"A": [0, 3]}, "gates": [{"kind": "cx", "wires": [1, 7]}]},
     "^netlist 'wires' is 9, but the largest wire a gate or register names is 7$"),
    # a squarer read back with a misread input would fail most of its sweep
    ({"wires": 3, "registers": {"A": [0, 0, 2]}, "gates": []},
     "^register 'A' names wire 0 twice$"),
], ids=["no-wires", "negative-wires", "gates-not-list", "bool-wire", "negative-cbit",
        "bool-cbit", "string-cbit", "gate-not-object", "register-unallocated",
        "fractional-width", "cbit-read-before-write", "prepT-kind", "and-cbit-key",
        "primitive-width-key", "document-key", "wires-none-named", "wires-past-named",
        "register-wire-twice"])
def test_from_json_rejects_malformed_netlists(doc, message):
    with pytest.raises(NetlistError, match=message):
        from_json_dict(doc)


def _squarer_doc(netlist):
    """The netlist as a JSON document, built here from its gates."""
    gates = []
    for op in netlist.gates:
        if isinstance(op, Gate):
            gates.append({"kind": op.kind, "wires": list(op.wires),
                          **({} if op.cbit is None else {"cbit": op.cbit})})
        elif isinstance(op, AddInPlace):
            carry = [] if op.carry_out is None else [op.carry_out]
            gates.append({"kind": "macro_add", "wires": [*op.a_wires, *op.b_wires, *carry],
                          "width": len(op.a_wires), "carry_out": bool(carry)})
        else:
            kind = "macro_and" if isinstance(op, LogicalAnd) else "macro_unand"
            gates.append({"kind": kind, "wires": [op.x, op.y, op.target]})
    return {"wires": netlist.wire_count,
            "registers": {k: list(v) for k, v in netlist.registers.items()},
            "gates": gates}


@pytest.mark.parametrize("expanded", [False, True], ids=["macro", "expanded"])
def test_json_is_compact_and_reads_the_indented_format(expanded):
    nl = synthesize_squarer(6)
    nl = expand(nl) if expanded else nl
    doc = _squarer_doc(nl)
    text = to_json(nl)
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    # documents written with indent=2 by earlier versions still load
    for written in (text, json.dumps(doc, indent=2) + "\n"):
        again = from_json(written)
        assert again == nl


def test_json_round_trip_expanded_netlist():
    full = expand(single_and_netlist())
    assert from_json(to_json(full)) == full


def test_json_gate_kind_strings():
    nl = single_and_netlist()
    nl.append(UncomputeAnd(0, 1, 2))
    text = to_json(expand(nl))
    for kind in ('"prep0"', '"h"', '"t"', '"tdg"', '"cx"', '"s"',
                 '"mx"', '"ccz_classical"'):
        assert kind in text


def _block_netlists():
    and_only = single_and_netlist()
    and_unand = single_and_netlist()
    and_unand.append(UncomputeAnd(0, 1, 2))
    cases = [("and", and_only), ("and-uncompute", and_unand)]
    for m in (2, 3):
        for carry in (True, False):
            nl = Netlist()
            a = nl.alloc_register("a", m, "input")
            b = nl.alloc_register("b", m, "input")
            nl.append(AddInPlace(a, b, nl.new_wire() if carry else None))
            cases.append((f"adder-m{m}-{'carry' if carry else 'modular'}", nl))
    # an mx ahead of the macros shifts every uncompute cbit, and
    # primitives sit between macros
    nl = Netlist()
    a = nl.alloc_register("a", 3, "input")
    b = nl.alloc_register("b", 3, "zero")
    (m,) = nl.alloc_register("m", 1, "zero")
    nl.add_gate("h", m)
    nl.add_gate("mx", m, cbit=0)
    t = nl.new_wire()
    nl.append(LogicalAnd(a[0], a[1], t))
    nl.add_gate("cx", t, b[2])
    nl.append(AddInPlace(a, b, nl.new_wire()))
    nl.add_gate("ccz_classical", a[0], a[2], cbit=0)
    nl.append(UncomputeAnd(a[0], a[1], t))
    nl.add_gate("t", b[0])
    cases.append(("mixed", nl))
    # a fan-out opened on an AND input just before the AND, which the
    # AND's CNOT from that input joins; a cz between the macros
    for name, x, y, ahead in (("fan-out-x", 0, 1, 2), ("fan-out-y", 1, 0, 4)):
        nl = Netlist()
        a = nl.alloc_register("a", 4, "input")
        for _ in range(ahead):
            nl.add_gate("h", a[0])
        # a[0]'s fan-out opens in a layer the AND's CNOT from a[0] joins
        nl.add_gate("cx", a[0], a[2])
        t = nl.new_wire()
        nl.append(LogicalAnd(a[x], a[y], t))
        nl.add_gate("cz", a[2], a[3])
        nl.append(UncomputeAnd(a[x], a[y], t))
        cases.append((name, nl))
    return [pytest.param(nl, id=name) for name, nl in cases]


def test_append_refuses_a_classical_cz_on_a_cbit_only_expansion_writes():
    # once expanded, the uncompute's mx writes cbit 1 (the hand-built
    # mx's is 0), but no primitive mx of the macro netlist does, so no
    # writer meets a read of a pattern's cbit
    nl = Netlist()
    a = nl.alloc_register("a", 5, "input")
    nl.add_gate("mx", a[4], cbit=0)
    t = nl.new_wire()
    nl.append(LogicalAnd(a[0], a[1], t))
    nl.append(UncomputeAnd(a[0], a[1], t))
    with pytest.raises(NetlistError, match="reads cbit 1, which no earlier mx wrote"):
        nl.add_gate("ccz_classical", a[2], a[3], cbit=1)
    full = expand(nl)
    full.add_gate("ccz_classical", a[2], a[3], cbit=1)
    assert schedule_asap(full) == (2, 4)


def _first_difference(a: str, b: str):
    """None for equal texts, else where they part and what each holds
    there (a short value to report, where a diff of the whole one-line
    JSON would take pytest minutes)."""
    if a == b:
        return None
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    lo = max(i - 60, 0)
    return i, a[lo:i + 60], b[lo:i + 60]


@pytest.mark.parametrize("nl", _block_netlists()
                         + [pytest.param(synthesize_squarer(n), id=f"squarer-{n}")
                            for n in [*range(5, 17), 40, 128]])
def test_lowered_text_equals_text_of_expansion(nl):
    full = expand(nl)
    assert _first_difference(to_json(nl, lower=True), to_json(full)) is None
    assert _first_difference(to_qasm(nl), to_qasm(full)) is None
    # an expanded netlist has nothing left to lower
    assert to_json(full, lower=True) == to_json(full)


def _marked(marks: bytearray) -> set[int]:
    """The layers a ``_DepthWriter`` mark holds a 1 at: marks grown by
    ``gate`` and by ``run`` may differ in length, not in these."""
    return {layer for layer, mark in enumerate(marks) if mark}


def _depth_writer(nl: Netlist, last, open_) -> _DepthWriter:
    """A ``_DepthWriter`` started with these layers and open fan-outs on
    ``nl``'s wires, its marks grown to hold every layer up to 4, which
    the writer's own growth, a byte per gate layered, does not cover."""
    em = _DepthWriter(nl)
    em.last[:], em.open[:] = last, open_
    em.t_marks, em.cnot_marks = bytearray(5), bytearray(5)
    return em


def _replay_states(pattern, values):
    """Yield, for every start state with layers and open fan-outs in
    ``values`` on the pattern's wires, that state and the (marked T and
    CNOT layers, final state) of the pattern's rows on those wires,
    replayed through ``_DepthWriter.gate``, next to those of the
    pattern's ``step``, run on a run of one.  The layer ``gate`` records
    for the pattern's own mx is left out: a step records none, as no
    gate ``append`` takes reads a pattern's cbit."""
    wires = pattern.wires
    nl = Netlist()
    nl.new_wires(wires)
    for last in itertools.product(values, repeat=wires):
        for open_ in itertools.product(values, repeat=wires):
            replayed, template = _depth_writer(nl, last, open_), _depth_writer(nl, last, open_)
            for row in pattern.gates:  # the cbit role, wires, is the mx's cbit
                replayed.gate(*row)
            template.run(pattern, *([w] for w in range(wires)))
            yield (last, open_), [(_marked(em.t_marks), _marked(em.cnot_marks), em.last,
                                   em.open) for em in (replayed, template)]


def _random_definition(seed: int):
    """A pattern of 3 or 4 wires drawn by ``seed``, its rows as the
    ``PATTERNS`` state theirs: cx either way round, cz and one-wire
    gates, maybe a prep0 on a wire no earlier gate touched, and maybe
    one mx on the cbit the pattern takes, which a later ccz_classical
    reads."""
    rng = random.Random(seed)
    wires = rng.choice((3, 4))
    gates = []
    for _ in range(rng.randint(4, 12)):
        kind = rng.choice(("cx", "cx", "cx", "cz", "h", "s", "t", "tdg", "x"))
        a, b = rng.sample(range(wires), 2)
        if kind == "cx" and gates and gates[-1][0] == "cx" and rng.random() < 0.5:
            # a fan-out: the control of the cx before, another target
            a, b = gates[-1][1], rng.choice([w for w in range(wires) if w != gates[-1][1]])
        gates.append((kind, a, b if kind in ("cx", "cz") else -1))
    measured = rng.random() < 0.5
    if measured:
        # as in the uncompute, the ccz_classical acts on two other wires
        at = rng.randint(0, len(gates))
        then = rng.randint(at, len(gates))
        m = rng.randrange(wires)
        gates.insert(then, ("ccz_classical", *rng.sample([w for w in range(wires) if w != m], 2)))
        gates.insert(at, ("mx", m, -1))
    if rng.random() < 0.5:
        w = rng.randrange(wires)
        first = next((i for i, (_, a, b) in enumerate(gates) if w in (a, b)), len(gates))
        gates.insert(rng.randint(0, first), ("prep0", w, -1))
    # the cbit role of a pattern of this many wires is the wire count
    return ir._pattern(f"random-{seed}", wires, tuple(
        (kind, a, b, wires if kind in ("mx", "ccz_classical") else -1) for kind, a, b in gates))


def _replay_cases(wires: int):
    """The patterns of ``wires`` wires, each with the start values its
    replay takes: the AND and the uncompute on 0..4, the carry and
    release cells on 0..3, and the seeded random patterns of that many
    wires on 0..2.  The cells' 4**8 states on 0..3 catch every mutant
    of their compiled steps that 0..4 catches; see CHANGES.md."""
    cases = [pytest.param(pattern, range(5 if wires == 3 else 4), id=pattern.name)
             for pattern in PATTERNS if pattern.wires == wires]
    for seed in range(20):
        pattern = _random_definition(seed)
        if pattern.wires == wires:
            cases.append(pytest.param(pattern, range(3), id=pattern.name))
    return cases


@pytest.mark.parametrize("pattern, values", _replay_cases(3))
def test_macro_depth_template_equals_its_gates(pattern, values):
    # one macro of a run, as _lower hands a lone AND or uncompute over;
    # the three wires' fan-outs in 0..4 take each fan-out join both ways
    for state, (replayed, template) in _replay_states(pattern, values):
        assert template == replayed, state


@pytest.mark.parametrize("pattern, values", _replay_cases(4))
def test_cell_depth_step_equals_its_gates(pattern, values):
    # one cell of a run, as blocks.lower_add_in_place hands it over
    for state, (replayed, template) in _replay_states(pattern, values):
        assert template == replayed, state


def _written(writer: str, write):
    """What ``writer`` holds once it has written a primitive ``mx`` on
    cbit 0, then ``write(emitter)``, then another primitive, over 12
    wires with cbits counted from 3: the gate columns, the ASAP layering
    (with the layer of that mx) from a start state with layers and open
    fan-outs on every wire, or the text."""
    nl = Netlist()
    nl.new_wires(12)
    for _ in range(3):
        nl.new_cbit()
    if writer == "columns":
        nl = expand(nl)
        em = _ColumnWriter(nl)
    elif writer == "depth":
        em = _depth_writer(nl, [w % 5 for w in range(12)],
                           [w % 5 if w % 3 else 0 for w in range(12)])
    else:
        em = _TextWriter(nl, writer)
    em.gate("mx", 0, -1, 0)
    write(em)
    em.gate("t", 1, -1, -1)
    if writer == "columns":
        return nl.gates, nl.cbit_count
    if writer == "depth":
        return _marked(em.t_marks), _marked(em.cnot_marks), em.last, em.open, em.meas
    # a run of k writes one string, so the entries are compared joined;
    # the primitives around the run show an empty entry as a doubled separator
    return ("\n" if writer == "qasm" else ",").join(em.text), em.names, em.cbit_count


@pytest.mark.parametrize("k", [0, 1, 2, 7])
@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name + "s")
@pytest.mark.parametrize("writer", ["columns", "depth", "json", "qasm"])
def test_run_equals_its_patterns_written_one_at_a_time(writer, pattern, k):
    # pattern j on consecutive wires from 3j, mod 12, so later patterns
    # reuse the wires of earlier ones
    cells = [tuple((3 * j + i) % 12 for i in range(pattern.wires)) for j in range(k)]
    columns = [*zip(*cells)] or [()] * pattern.wires
    whole = _written(writer, lambda em: em.run(pattern, *columns))
    assert whole == _written(writer, lambda em: [em.run(pattern, *zip(cell))
                                                 for cell in cells])
    if writer == "columns":
        # and equals the pattern's rows, written cell by cell, each cell
        # with a fresh cbit when it takes one; role -1 reads the -1 at the end
        def rows(em):
            for cell in cells:
                roles = (*cell, em._out.new_cbit() if pattern.cbit else None, -1)
                for kind, *row in pattern.gates:
                    em.gate(kind, *(roles[r] for r in row))
        assert whole == _written(writer, rows)


def test_emitters_allocate_wires_as_ranges():
    # an adder's carries come from one call: the next k wire numbers
    nl = Netlist()
    nl.new_wires(12)
    nl = expand(nl)
    columns, depth, text = _ColumnWriter(nl), _DepthWriter(nl), _TextWriter(nl, "qasm")
    for em in columns, depth, text:
        assert [em.new_wires(k) for k in (0, 3, 2)] == [range(12, 12), range(12, 15),
                                                        range(15, 17)]
    assert nl.wire_count == 17
    assert depth.last == depth.open == [0] * 17
    assert text.names == [str(w) for w in range(17)]


@pytest.mark.parametrize("nl", _block_netlists()
                         + [pytest.param(synthesize_squarer(n), id=f"squarer-{n}")
                            for n in [*range(5, 41), 64, 127, 128]])
def test_schedule_of_macros_equals_schedule_of_expansion(nl):
    assert any(type(op) is not Gate for op in nl.gates)
    assert schedule_asap(nl) == schedule_asap(expand(nl))


def test_qasm_export_writes_the_expansion():
    nl = single_and_netlist()
    text = to_qasm(nl)
    assert text == to_qasm(expand(nl))
    assert "cx q[0], q[2];" in text
    assert text.strip().splitlines()[-1].endswith(";")
