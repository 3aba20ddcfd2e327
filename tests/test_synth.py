"""Synthesizer structure, read off the netlist: adder stages (its
AddInPlace ops), the P and T registers, uncompute order, determinism."""

import numpy as np
import pytest

from qsquare.blocks import adder_and_count
from qsquare.costs import built_metrics, reconcile
from qsquare.ir import AddInPlace, LogicalAnd, UncomputeAnd, expand, to_json
from qsquare.layout import UnsupportedWidthError, row_widths
from qsquare.sim import run_basis_sweep
from qsquare.synth import synthesize_squarer

from planes import pack_wires, plane_of


def test_stage_widths_n6():
    adds = [op for op in synthesize_squarer(6).netlist.gates if isinstance(op, AddInPlace)]
    assert [len(op.a_wires) for op in adds] == [9, 8, 6]
    assert row_widths(6)[1:] == (9, 8, 6)


def test_stage_widths_n5():
    adds = [op for op in synthesize_squarer(5).netlist.gates if isinstance(op, AddInPlace)]
    assert [len(op.a_wires) for op in adds] == [7, 6]
    assert row_widths(5)[1:] == (7, 6)


def test_stage_count_halves_row_count():
    for n in range(5, 11):
        c = synthesize_squarer(n)
        adds = [op for op in c.netlist.gates if isinstance(op, AddInPlace)]
        assert len(adds) == c.grid.row_count - 1
        assert len(adds) == (n // 2 if n % 2 == 0 else (n - 1) // 2)
        assert [(len(op.a_wires), op.carry_out is not None) for op in adds] == [
            (w, i == 0) for i, w in enumerate(row_widths(n)[1:])]


def test_width_validation():
    with pytest.raises(UnsupportedWidthError):
        synthesize_squarer(4)
    with pytest.raises(UnsupportedWidthError):
        row_widths(3)


def test_step1_and_macro_count_n6():
    c = synthesize_squarer(6)
    macro_ands = [g for g in c.netlist.gates if isinstance(g, LogicalAnd)]
    assert len(macro_ands) == 15  # C(6,2); adder ANDs appear only after expansion
    adds = [op for op in c.netlist.gates if isinstance(op, AddInPlace)]
    adders = sum(adder_and_count(len(op.a_wires), op.carry_out is not None) for op in adds)
    assert adders == 21  # 9 + 7 + 5 for stage widths 9, 8, 6


def test_reported_adder_ands_sit_next_to_closed_form_23():
    c = synthesize_squarer(6)
    adders_closed = sum(row_widths(6)[1:])
    assert adders_closed == 23  # one AND per adder bit over widths 9+8+6
    t_line = reconcile(c).metrics["t_count"]
    assert t_line.closed_form == 4 * (15 + adders_closed)
    # carry-less stages save one AND each: 21 adder ANDs are built
    assert t_line.measured == built_metrics(6).t_count == 4 * (15 + 21)


def test_output_map_positions_n6():
    c = synthesize_squarer(6)
    out = c.registers["P"]
    assert len(out) == 12
    assert out[0] == c.input_wires[0]
    assert out[1] == c.registers["P1"][0]
    t1 = c.registers["T1"]
    assert out[2] == t1[0] and out[3] == t1[1]  # first-stage low sum bits
    # final-stage sums land on positions 6..11, the top one on the first carry
    v1 = c.registers["V1"]
    assert [out[i] for i in range(6, 12)] == list(v1)
    assert out[11] == c.registers["carry"][0]


def test_output_map_is_injective_with_documented_alias():
    for n in (5, 6, 7, 8):
        c = synthesize_squarer(n)
        out = c.registers["P"]
        assert len(out) == 2 * n
        assert len(set(out)) == 2 * n
        assert out[0] == c.input_wires[0]  # the only wire shared with A


def test_p1_wire_is_never_written():
    for n in (5, 6, 9):
        c = synthesize_squarer(n)
        p1 = c.registers["P1"][0]
        full = expand(c.netlist)
        touching = [g for g in full.gates if p1 in g.wires and g.kind != "prep0"]
        assert touching == []


def test_sum_wires_are_t1_row_plus_first_carry():
    for n in (5, 6, 7):
        c = synthesize_squarer(n)
        sum_wires = set(c.registers["P"][2:])
        assert sum_wires == set(c.registers["T1"]) | {c.registers["carry"][0]}


def test_no_uncompute_targets_first_adder_operand_row():
    for n in (5, 6, 8, 10):
        c = synthesize_squarer(n)
        t1 = set(c.registers["T1"])
        for g in c.netlist.gates:
            if isinstance(g, UncomputeAnd):
                assert g.target not in t1


def test_every_partial_product_ancilla_is_released():
    # each live AND is released exactly once, by its own inputs, in
    # reverse build order (descending wire index)
    for n in range(5, 13):
        c = synthesize_squarer(n)
        built = {g.target: (g.x, g.y) for g in c.netlist.gates if isinstance(g, LogicalAnd)}
        releases = [g for g in c.netlist.gates if isinstance(g, UncomputeAnd)]
        expected = {
            c.registers[f"T{r}"][col]
            for r, col, e in c.grid.cells()
            if r != 1 and type(e).__name__ == "PartialProduct"}
        assert [g.target for g in releases] == sorted(expected, reverse=True)
        assert all((g.x, g.y) == built[g.target] for g in releases)


def test_copy_restoration_comes_before_uncomputation():
    c = synthesize_squarer(6)
    kinds = [type(g).__name__ if not hasattr(g, "kind") else g.kind
             for g in c.netlist.gates]
    first_unand = kinds.index("UncomputeAnd")
    adds = [i for i, k in enumerate(kinds) if k == "AddInPlace"]
    restore_cx = [i for i, k in enumerate(kinds) if k == "cx" and i > max(adds)]
    assert restore_cx and max(restore_cx) < first_unand


def test_synthesis_is_deterministic():
    a, b = synthesize_squarer(7), synthesize_squarer(7)
    assert a.netlist == b.netlist
    assert to_json(a.netlist) == to_json(b.netlist)
    assert to_json(expand(a.netlist)) == to_json(expand(b.netlist))


def test_functional_spot_checks():
    for n, a in ((5, 3), (6, 63), (6, 0), (7, 100)):
        c = synthesize_squarer(n)
        res = run_basis_sweep(
            c.netlist, {w: (a >> i) & 1 for i, w in enumerate(c.input_wires)}, 1)
        assert pack_wires(res.wires, c.registers["P"]) == a * a
        assert pack_wires(res.wires, c.input_wires) == a


def test_deep_and_level_simulation_matches_macro_level():
    """Lowering the adders to AND macros must not change the semantics."""
    from macro_lowering import lower_adders

    for n in (5, 6):
        c = synthesize_squarer(n)
        deep = lower_adders(c.netlist)
        lanes = 1 << n
        a = np.arange(lanes)
        inputs = {w: plane_of((a >> i) & 1 == 1) for i, w in enumerate(c.input_wires)}
        top = run_basis_sweep(c.netlist, inputs, lanes)
        low = run_basis_sweep(deep, inputs, lanes)
        for w in range(c.netlist.wire_count):
            assert top.wires[w] == low.wires[w]
