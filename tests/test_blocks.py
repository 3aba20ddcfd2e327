"""Sub-circuit builders: AND truth table, uncompute hygiene, adder oracle,
and the measured costs of the blocks against ``costs.adder_counts``."""

import itertools

import numpy as np
import pytest

from qsquare.blocks import (
    adder_and_count,
    build_adder_in_place,
    build_logical_and,
    build_uncompute_and,
)
from qsquare.costs import _paper_adder_counts, adder_counts, measure_circuit
from qsquare.ir import (
    AND,
    AddInPlace,
    Netlist,
    NetlistError,
    count_gates,
    expand,
    schedule_asap,
    to_json,
    to_qasm,
)
from qsquare.sim import (
    UncomputeMisuseError,
    lane_planes,
    run_basis_sweep,
    run_statevector,
    basis_state,
)

from macro_lowering import MacroEmitter, lower_adders
from planes import lanes_of, packed


def and_netlist():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = build_logical_and(nl, x, y)
    return nl, x, y, t


def adder_netlist(m, carry):
    nl = Netlist()
    a = nl.alloc_register("a", m, "input")
    b = nl.alloc_register("b", m, "input")
    cw = build_adder_in_place(nl, a, b, carry)
    return nl, a, b, cw


# ---- logical-AND ------------------------------------------------------------

@pytest.mark.parametrize("x,y", list(itertools.product((0, 1), repeat=2)))
def test_and_truth_table_basis(x, y):
    nl, wx, wy, t = and_netlist()
    result = run_basis_sweep(nl, {wx: x, wy: y}, 1)
    assert result.wires[t] == (x & y)
    assert result.wires[wx] == x
    assert result.wires[wy] == y


def test_and_rejects_equal_inputs():
    nl = Netlist()
    (x,) = nl.alloc_register("x", 1, "input")
    with pytest.raises(NetlistError):
        build_logical_and(nl, x, x)


# ---- uncompute-AND ----------------------------------------------------------

@pytest.mark.parametrize("x,y", list(itertools.product((0, 1), repeat=2)))
def test_uncompute_restores_ancilla(x, y):
    nl, wx, wy, t = and_netlist()
    build_uncompute_and(nl, wx, wy, t)
    result = run_basis_sweep(nl, {wx: x, wy: y}, 1)
    assert result.wires[t] == 0
    assert result.wires[wx] == x
    assert result.wires[wy] == y


def test_uncompute_misuse_is_detected():
    nl, wx, wy, t = and_netlist()
    nl.add_gate("x", t)  # corrupt the ancilla before releasing it
    build_uncompute_and(nl, wx, wy, t)
    with pytest.raises(UncomputeMisuseError):
        run_basis_sweep(nl, {wx: 1, wy: 1}, 1)


@pytest.mark.parametrize("x,y", list(itertools.product((0, 1), repeat=2)))
def test_uncompute_both_branches_agree_statevector(x, y):
    nl, wx, wy, t = and_netlist()
    build_uncompute_and(nl, wx, wy, t)
    branches = run_statevector(expand(nl), initial={wx: x, wy: y})
    assert len(branches) == 2
    want = basis_state({wx: x, wy: y, t: 0})
    for br in branches:
        assert br.state == want
        assert br.probability == 0.5


def test_uncompute_branches_agree_on_superposed_inputs():
    # the classically controlled CZ is only observable with superposed inputs
    nl, wx, wy, t = and_netlist()
    build_uncompute_and(nl, wx, wy, t)
    full = Netlist()
    full.new_wires(nl.wire_count)
    full.add_gate("h", wx)
    full.add_gate("h", wy)
    for op in expand(nl).gates:
        full.append(op)
    branches = run_statevector(full)
    # the uniform superposition, (1/2)(|00> + |01> + |10> + |11>)
    want = {bx << wx | by << wy: (1, 0, 0, 0) for bx, by in itertools.product((0, 1), repeat=2)}
    for br in branches:
        assert br.state == want


# ---- adder -------------------------------------------------------------------

def test_adder_example_3_plus_4():
    nl, a, b, cw = adder_netlist(3, True)
    lowered = lower_adders(nl)
    inputs = {a[i]: (3 >> i) & 1 for i in range(3)}
    inputs.update({b[i]: (4 >> i) & 1 for i in range(3)})
    res = run_basis_sweep(lowered, inputs, 1)
    assert sum(res.wires[b[i]] << i for i in range(3)) == 7
    assert res.wires[cw] == 0


def test_adder_example_7_plus_7():
    nl, a, b, cw = adder_netlist(3, True)
    lowered = lower_adders(nl)
    inputs = {w: 1 for w in a + b}
    res = run_basis_sweep(lowered, inputs, 1)
    assert sum(res.wires[b[i]] << i for i in range(3)) == 6
    assert res.wires[cw] == 1


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("carry", [True, False])
def test_adder_exhaustive_against_integer_addition(m, carry):
    """Every (a, b) pair, at the AND-macro level, with a restored and all
    internal carry ancillae back at zero."""
    nl, a, b, cw = adder_netlist(m, carry)
    lowered = lower_adders(nl)
    lanes = 1 << (2 * m)
    v = np.arange(lanes, dtype=np.int64)
    av, bv = v & ((1 << m) - 1), v >> m
    # lane v holds a = v mod 2^m and b = v >> m: a takes the low planes
    res = run_basis_sweep(lowered, dict(zip(a + b, lane_planes(2 * m))), lanes)
    got = packed(res, b, lanes)
    if carry:
        got |= lanes_of(res.wires[cw], lanes).astype(np.int64) << m
        want = av + bv
    else:
        want = (av + bv) % (1 << m)
    assert (got == want).all()
    a_back = packed(res, a, lanes)
    assert (a_back == av).all()
    outputs = set(a) | set(b) | ({cw} if carry else set())
    for w in range(lowered.wire_count):
        if w not in outputs:
            assert not res.wires[w], f"ancilla {w} left dirty"


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("carry", [True, False], ids=["carry", "modular"])
def test_bulk_adder_lowering_equals_per_cell_reference(m, carry):
    """Each emitter writes a run of ripple cells in one call; the tests'
    macro emitter writes it cell by cell.  m=2 has an empty release run
    and, without a carry-out, an empty carry run; m=3 has runs of one."""
    nl, *_ = adder_netlist(m, carry)
    reference = lower_adders(nl)
    assert not any(isinstance(op, AddInPlace) for op in reference.gates)
    full, full_reference = expand(nl), expand(reference)
    assert full == full_reference
    assert full.cbit_count == full_reference.cbit_count == m - 1  # one per uncompute
    assert schedule_asap(nl) == schedule_asap(reference) == schedule_asap(full)
    assert to_json(nl, lower=True) == to_json(full)
    assert to_qasm(nl) == to_qasm(full)


def test_macro_emitter_refuses_an_unknown_pattern():
    # the reference restates each pattern it knows, so a new pattern
    # needs a case of its own there, even for an empty run
    nl = Netlist()
    nl.new_wires(3)
    with pytest.raises(ValueError, match="^unknown pattern 'spare'$"):
        MacroEmitter(nl).run(AND._replace(name="spare"), [], [], [])
    assert nl.gates == []


def test_adder_validation():
    nl = Netlist()
    a = nl.alloc_register("a", 3, "input")
    b = nl.alloc_register("b", 2, "input")
    with pytest.raises(NetlistError):
        build_adder_in_place(nl, a, b)
    with pytest.raises(NetlistError):
        build_adder_in_place(nl, a, a)


def test_corrupted_adder_is_caught():
    nl, a, b, cw = adder_netlist(3, True)
    victim = next(i for i, g in enumerate(lower_adders(nl).gates)
                  if getattr(g, "kind", None) == "cx")
    lowered = lower_adders(nl).without(victim)
    mismatch = 0
    for av, bv in itertools.product(range(8), range(8)):
        inputs = {a[i]: (av >> i) & 1 for i in range(3)}
        inputs.update({b[i]: (bv >> i) & 1 for i in range(3)})
        try:
            res = run_basis_sweep(lowered, inputs, 1)
        except UncomputeMisuseError:
            mismatch += 1
            continue
        got = sum(res.wires[b[i]] << i for i in range(3)) + (res.wires[cw] << 3)
        mismatch += got != av + bv
    assert mismatch >= 1


# ---- costs -------------------------------------------------------------------

def test_logical_and_budget_is_exact():
    nl, *_ = and_netlist()
    # T, T-depth, CNOT, CNOT-depth, and one ancilla past the two inputs
    assert measure_circuit(nl)[:5] == (4, 2, 6, 4, 3)


def test_and_count_is_a_documented_function_of_width_and_mode():
    for m in range(2, 12):
        assert adder_and_count(m, True) == m
        assert adder_and_count(m, False) == m - 1


def test_adder_published_budget_n6_first_stage():
    # 2n-3 = 9-bit operands at n=6: the paper books an AND per bit
    assert _paper_adder_counts(9) == (36, 99)
    # the chosen realization: m ANDs (6 internal CNOTs each) + 6m-6 explicit
    assert adder_counts(9, True) == (4 * 9, 12 * 9 - 6)
    assert adder_counts(9, False) == (4 * 8, 12 * 9 - 15)


@pytest.mark.parametrize("m", range(2, 11))
@pytest.mark.parametrize("carry", [True, False])
def test_adder_measured_budget_formulas(m, carry):
    nl, *_ = adder_netlist(m, carry)
    full = expand(nl)
    ands = adder_and_count(m, carry)
    t_count, cnot_count = adder_counts(m, carry)
    assert count_gates(full) == (t_count, cnot_count)
    assert (t_count, cnot_count) == (4 * ands, 6 * ands + (6 * m - 6 if carry else 6 * m - 9))
    assert full.wire_count - 2 * m == ands  # ancillae, the carry-out among them
    assert schedule_asap(nl)[0] <= 2 * ands
    # against the paper's booking, per stage: the first (with carry-out)
    # and each carry-less one
    paper_t, paper_cnot = _paper_adder_counts(m)
    assert (t_count - paper_t, cnot_count - paper_cnot) == ((0, 3) if carry else (-4, -6))
