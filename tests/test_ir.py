"""Netlist IR: allocation, macro expansion, counting, layering, serialization."""

import json

import pytest

from qsquare.ir import (
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


def test_alloc_magic_register_preps_t_state():
    nl = Netlist()
    (w,) = nl.alloc_register("m", 1, "magicT")
    assert nl.gates == [Gate("prepT", (w,))]


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
    with pytest.raises(NetlistError):
        nl.alloc_register("a", 0, "input")


def test_gate_validation():
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    for cbit in (-1, True, "0"):
        with pytest.raises(NetlistError):
            nl.add_gate("mx", 0, cbit=cbit)
    with pytest.raises(NetlistError):
        nl.add_gate("h", 0, cbit=0)
    with pytest.raises(NetlistError):
        nl.add_gate("cx", 0, 0)
    with pytest.raises(NetlistError):
        nl.add_gate("cx", 0, 7)
    with pytest.raises(NetlistError):
        nl.add_gate("frob", 0)
    with pytest.raises(NetlistError):
        nl.add_gate("mx", 0)  # missing cbit


@pytest.mark.parametrize("op", [
    LogicalAnd(0, 0, 2),      # inputs equal
    LogicalAnd(0, 1, 0),      # target is an input
    LogicalAnd(0, 1, 1),
    UncomputeAnd(0, 0, 2),
    UncomputeAnd(0, 1, 1),
    LogicalAnd(0, 1, 7),      # target not allocated
    UncomputeAnd(0, 1, 7),
    LogicalAnd(0, 1, True),   # a bool is not a wire index
], ids=repr)
def test_and_macros_validated_at_append(op):
    # expand() trusts the macros it lowers, so append must refuse these
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    with pytest.raises(NetlistError):
        nl.append(op)
    assert nl.gates == []


def test_adder_macro_validation():
    nl = Netlist()
    a = nl.alloc_register("a", 3, "input")
    b = nl.alloc_register("b", 3, "input")
    with pytest.raises(NetlistError):
        nl.append(AddInPlace(a, b[:2], None))
    with pytest.raises(NetlistError):
        nl.append(AddInPlace(a, a, None))
    with pytest.raises(NetlistError):
        nl.append(AddInPlace((a[0],), (b[0],), None))


# ---- expansion -------------------------------------------------------------

def test_expanded_and_counts_four_t_six_cnot():
    full = expand(single_and_netlist())
    assert not full.has_macros
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
    full = expand(synthesize_squarer(n).netlist)
    assert isinstance(full.gates, GateColumns)
    again = Netlist()
    again.wire_count = full.wire_count
    for g in full.gates:
        again.append(g)
    assert type(again.gates) is list
    assert again.gates == full.gates
    # the list form is packed into columns when measured: same figures
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
    assert cols[-2:] == gates[-2:] and cols[::-1] == gates[::-1]
    assert list(reversed(cols)) == gates[::-1]
    assert cols == gates and gates == cols and not cols != gates
    assert cols.count(Gate("cx", (2, 0))) == 2 and cols.index(Gate("s", (2,))) == 13
    assert Gate("h", (2,)) in cols and Gate("h", (0,)) not in cols
    assert cols.copy() == gates and cols + [] == gates and [] + cols == gates
    for mutate in (lambda c: c.extend(gates), lambda c: c.insert(0, gates[0]),
                   lambda c: c.pop(), lambda c: c.remove(gates[0]), lambda c: c.clear(),
                   lambda c: c.sort(), lambda c: c.reverse(),
                   lambda c: c.__setitem__(0, gates[1]), lambda c: c.__delitem__(0),
                   lambda c: c.__iadd__(gates), lambda c: c.__imul__(2)):
        with pytest.raises(TypeError):
            mutate(cols)
    assert list(cols) == gates
    with pytest.raises(UnexpandedNetlistError):
        cols.append(LogicalAnd(0, 1, 2))
    full.add_gate("z", 1)
    assert cols[-1] == Gate("z", (1,)) and len(cols) == 17
    assert not full.has_macros


def test_expand_without_macros_is_identity():
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    nl.add_gate("h", 0)
    nl.add_gate("cx", 0, 1)
    assert expand(nl) == nl


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


def test_preps_are_free_for_all_counts():
    nl = Netlist()
    nl.alloc_register("a", 2, "zero")
    nl.alloc_register("m", 1, "magicT")
    assert count_gates(nl) == (0, 0)
    assert schedule_asap(nl) == (0, 0)


def test_count_t_on_unexpanded_rejected():
    nl = single_and_netlist()
    with pytest.raises(UnexpandedNetlistError):
        count_gates(nl)


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


def test_classical_cz_on_unwritten_cbit_waits_only_for_its_wires():
    # append refuses this gate, so the gate list is assigned directly
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    nl.gates = [Gate("t", (0,)),                     # layer 1
                Gate("ccz_classical", (0, 1), 5),    # layer 2: no mx wrote cbit 5
                Gate("t", (1,))]                     # layer 3
    assert nl.cbit_count == 0
    assert schedule_asap(nl) == (2, 0)


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
    assert full.cbit_count == 1 and full.written_cbits == {0}
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


def test_schedule_requires_expansion():
    with pytest.raises(UnexpandedNetlistError):
        schedule_asap(single_and_netlist())


def relabeled(netlist, perm):
    """New netlist with wire i renamed to perm[i] (perm is a bijection)."""
    if sorted(perm) != list(range(netlist.wire_count)):
        raise NetlistError("relabeling must be a permutation of all wires")
    out = Netlist()
    out.wire_count = netlist.wire_count
    out.cbit_count = netlist.cbit_count
    out.registers = {n: tuple(perm[w] for w in ws) for n, ws in netlist.registers.items()}
    for op in netlist.gates:
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
], ids=["no-wires", "negative-wires", "gates-not-list", "bool-wire", "negative-cbit",
        "bool-cbit", "string-cbit", "gate-not-object", "register-unallocated",
        "fractional-width", "cbit-read-before-write"])
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
    nl = synthesize_squarer(6).netlist
    nl = expand(nl) if expanded else nl
    doc = _squarer_doc(nl)
    text = to_json(nl)
    assert text == json.dumps(doc, separators=(",", ":")) + "\n"
    # documents written with indent=2 by earlier versions still load
    for written in (text, json.dumps(doc, indent=2) + "\n"):
        again = from_json(written)
        assert again == nl and again.cbit_count == nl.cbit_count


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


def test_qasm_export_requires_expansion():
    nl = single_and_netlist()
    with pytest.raises(UnexpandedNetlistError):
        to_qasm(nl)
    text = to_qasm(expand(nl))
    assert "cx q[0], q[2];" in text
    assert text.strip().splitlines()[-1].endswith(";")
