"""Synthesizer structure, read off the netlist: adder stages (its
AddInPlace ops), the P and T registers, uncompute order, determinism."""

import collections
import hashlib
import random

import pytest

from qsquare.blocks import adder_and_count
from qsquare.costs import built_metrics, reconcile
from qsquare.ir import AddInPlace, Gate, LogicalAnd, UncomputeAnd, expand, to_json
from qsquare.layout import UnsupportedWidthError, arrange, row_widths, stack
from qsquare.sim import run_basis_sweep
from qsquare.synth import synthesize_squarer

from planes import pack_wires, planes_of


def test_stage_widths_n6():
    adds = [op for op in synthesize_squarer(6).gates if isinstance(op, AddInPlace)]
    assert [len(op.a_wires) for op in adds] == [9, 8, 6]
    assert row_widths(6)[1:] == (9, 8, 6)


def test_stage_widths_n5():
    adds = [op for op in synthesize_squarer(5).gates if isinstance(op, AddInPlace)]
    assert [len(op.a_wires) for op in adds] == [7, 6]
    assert row_widths(5)[1:] == (7, 6)


def test_stage_count_halves_row_count():
    for n in range(5, 11):
        nl = synthesize_squarer(n)
        adds = [op for op in nl.gates if isinstance(op, AddInPlace)]
        assert len(adds) == len(arrange(n)) - 1
        assert len(adds) == (n // 2 if n % 2 == 0 else (n - 1) // 2)
        assert [(len(op.a_wires), op.carry_out is not None) for op in adds] == [
            (w, i == 0) for i, w in enumerate(row_widths(n)[1:])]


def test_width_validation():
    with pytest.raises(UnsupportedWidthError):
        synthesize_squarer(4)
    with pytest.raises(UnsupportedWidthError):
        row_widths(3)


def test_step1_and_macro_count_n6():
    nl = synthesize_squarer(6)
    macro_ands = [g for g in nl.gates if isinstance(g, LogicalAnd)]
    assert len(macro_ands) == 15  # C(6,2); adder ANDs appear only after expansion
    adds = [op for op in nl.gates if isinstance(op, AddInPlace)]
    adders = sum(adder_and_count(len(op.a_wires), op.carry_out is not None) for op in adds)
    assert adders == 21  # 9 + 7 + 5 for stage widths 9, 8, 6


def test_reported_adder_ands_sit_next_to_closed_form_23():
    nl = synthesize_squarer(6)
    adders_closed = sum(row_widths(6)[1:])
    assert adders_closed == 23  # one AND per adder bit over widths 9+8+6
    t_line = reconcile(nl)[0]  # the t_count row, first of the six
    assert t_line.metric == "t_count"
    assert t_line.closed_form == 4 * (15 + adders_closed)
    # carry-less stages save one AND each: 21 adder ANDs are built
    assert t_line.measured == built_metrics(6).t_count == 4 * (15 + 21)


def test_output_map_positions_n6():
    nl = synthesize_squarer(6)
    out = nl.registers["P"]
    assert len(out) == 12
    assert out[0] == nl.registers["A"][0]
    assert out[1] == nl.registers["P1"][0]
    t1 = nl.registers["T1"]
    assert out[2] == t1[0] and out[3] == t1[1]  # first-stage low sum bits
    # final-stage sums land on positions 6..11, the top one on the first carry
    v1 = nl.registers["V1"]
    assert [out[i] for i in range(6, 12)] == list(v1)
    assert out[11] == nl.registers["carry"][0]


def test_output_map_is_injective_with_documented_alias():
    for n in (5, 6, 7, 8):
        nl = synthesize_squarer(n)
        out = nl.registers["P"]
        assert len(out) == 2 * n
        assert len(set(out)) == 2 * n
        assert out[0] == nl.registers["A"][0]  # the only wire shared with A


def test_p1_wire_is_never_written():
    for n in (5, 6, 9):
        nl = synthesize_squarer(n)
        p1 = nl.registers["P1"][0]
        full = expand(nl)
        touching = [g for g in full.gates if p1 in g.wires and g.kind != "prep0"]
        assert touching == []


def test_sum_wires_are_t1_row_plus_first_carry():
    for n in (5, 6, 7):
        nl = synthesize_squarer(n)
        sum_wires = set(nl.registers["P"][2:])
        assert sum_wires == set(nl.registers["T1"]) | {nl.registers["carry"][0]}


def test_no_uncompute_targets_first_adder_operand_row():
    for n in (5, 6, 8, 10):
        nl = synthesize_squarer(n)
        t1 = set(nl.registers["T1"])
        for g in nl.gates:
            if isinstance(g, UncomputeAnd):
                assert g.target not in t1


def test_every_partial_product_ancilla_is_released():
    # each T{r} cell holds the wire of its term in ``stack``, filled here
    # with (i, j) for a_i*a_j, (i,) for the copy a_i and None for a pad,
    # the filling whose labels arrange(n) gives.  Read off the ops before
    # the first adder, a product is the target of the AND of its two
    # inputs, a copy the target of its input's cx, and a pad a wire that
    # only its prep0 touches.  Each live AND is released exactly once, by
    # its own inputs, in reverse build order (descending wire index)
    for n in [*range(5, 65), 127, 128]:
        terms = stack(n, [(i,) for i in range(1, n)],
                      [[(i, j) for j in range(i + 1, n)] for i in range(n - 1)], None)
        assert arrange(n) == tuple(tuple("0" if e is None else "".join(f"a{i}" for i in e)
                                         for e in row) for row in terms)
        nl = synthesize_squarer(n)
        gates = nl.gates
        a = nl.registers["A"]
        first_add = next(k for k, op in enumerate(gates) if type(op) is AddInPlace)
        built, copied, touched = {}, {}, collections.defaultdict(list)
        for op in gates[:first_add]:
            if type(op) is LogicalAnd:
                built[op.target] = (op.x, op.y)
                wires = op
            else:
                if op.kind == "cx":
                    copied[op.wires[1]] = op.wires[0]
                wires = op.wires
            for w in wires:
                touched[w].append(op)
        live = set()
        for r, row in enumerate(terms):
            cells = nl.registers[f"T{r}"]
            assert len(cells) == len(row) == row_widths(n)[r]
            for w, e in zip(cells, row):
                if e is None:
                    assert touched[w] == [Gate("prep0", (w,))]
                elif len(e) == 2:
                    assert built[w] == (a[e[0]], a[e[1]])
                    live.update([w] if r != 1 else ())
                else:
                    assert copied[w] == a[e[0]]
        releases = [g for g in gates if isinstance(g, UncomputeAnd)]
        assert [g.target for g in releases] == sorted(live, reverse=True), n
        assert all((g.x, g.y) == built[g.target] for g in releases)


# sha256 of the macro netlist's JSON at two wide widths, so that no change
# to how the rows are bound moves a wire, an op or a register; CI pins
# n=1023 and n=1024
@pytest.mark.parametrize("n, digest", [
    (127, "e79c160f62f6e1fc3006da75d55da74c26c34d89e9c12987a2a9e3e6b2a464fb"),
    (256, "953dd5aa9e03e301a320fbcf2b32de020ae4cfd26248a859a1b1a6b25ac43628"),
])
def test_netlist_matches_pinned_digest(n, digest):
    text = to_json(synthesize_squarer(n))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_copy_restoration_comes_before_uncomputation():
    nl = synthesize_squarer(6)
    kinds = [type(g).__name__ if not hasattr(g, "kind") else g.kind
             for g in nl.gates]
    first_unand = kinds.index("UncomputeAnd")
    adds = [i for i, k in enumerate(kinds) if k == "AddInPlace"]
    restore_cx = [i for i, k in enumerate(kinds) if k == "cx" and i > max(adds)]
    assert restore_cx and max(restore_cx) < first_unand


def test_synthesis_is_deterministic():
    a, b = synthesize_squarer(7), synthesize_squarer(7)
    assert a == b
    assert to_json(a) == to_json(b)
    assert to_json(expand(a)) == to_json(expand(b))


def test_functional_spot_checks():
    for n, a in ((5, 3), (6, 63), (6, 0), (7, 100)):
        nl = synthesize_squarer(n)
        res = run_basis_sweep(
            nl, {w: (a >> i) & 1 for i, w in enumerate(nl.registers["A"])}, 1)
        assert pack_wires(res.wires, nl.registers["P"]) == a * a
        assert pack_wires(res.wires, nl.registers["A"]) == a


def test_deep_and_level_simulation_matches_macro_level():
    """Lowering the adders to AND macros must not change the semantics:
    exhaustively at n=5 and 6, and at n=17, 64 and 128, whose adders are
    up to 31, 125 and 253 bits wide, on 4,096 seeded inputs that include
    0 and 2**n - 1."""
    from macro_lowering import lower_adders

    rng = random.Random(17)
    for n in (5, 6, 17, 64, 128):
        nl = synthesize_squarer(n)
        deep = lower_adders(nl)
        values = (range(1 << n) if n < 7 else
                  [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(4094))])
        inputs = dict(zip(nl.registers["A"], planes_of(values, n)))
        top = run_basis_sweep(nl, inputs, len(values))
        low = run_basis_sweep(deep, inputs, len(values))
        for w in range(nl.wire_count):
            assert top.wires[w] == low.wires[w], (n, w)
        # every carry the lowering allocated is released
        for w in range(nl.wire_count, deep.wire_count):
            assert low.wires[w] == 0, (n, w)
