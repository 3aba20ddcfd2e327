"""Closed-form evaluators, baselines, ratios, and measured reconciliation."""

import functools
import re

import pytest

from qsquare.blocks import adder_and_count
from qsquare.costs import (
    METRICS,
    CostRow,
    baseline_costs,
    built_metrics,
    carry_less_stages,
    closed_form_rows,
    comparison_table,
    measure_circuit,
    proposed_metrics,
    ratios_table,
    reconcile,
    reduction_ratios,
    rows_to_csv,
)
from qsquare.ir import AddInPlace, Gate, LogicalAnd, Netlist, schedule_asap
from qsquare.layout import UnsupportedWidthError, arrange, row_widths
from qsquare.synth import synthesize_squarer


def _by_metric(rows):
    """One design's rows at one width, keyed by metric."""
    return {row.metric: row for row in rows}


def test_metric_values_get_reads_only_the_six_metrics():
    # the record is a named tuple: getattr alone would hand back
    # tuple.count, tuple.index or the get method itself
    vals = proposed_metrics(6)
    assert [vals.get(m) for m in METRICS] == list(vals)
    for name in ("count", "index", "get", "_fields", "__class__", "T_count", "ratio"):
        with pytest.raises(AttributeError, match="not one of the metrics"):
            vals.get(name)


def test_proposed_n6_hand_substitution():
    vals = proposed_metrics(6)
    assert vals.t_count == 152
    assert vals.t_depth == 76
    assert vals.qubits == 58
    assert vals.cnot_count == 349
    assert vals.cnot_depth == 236
    assert vals.kq_t == 4408


def test_proposed_n5_hand_substitution():
    vals = proposed_metrics(5)
    assert vals.t_count == 92
    assert vals.t_depth == 46
    assert vals.qubits == 36
    assert vals.cnot_count == 206
    assert vals.cnot_depth == 140
    assert vals.kq_t == 1656


def test_kq_identity_for_all_widths():
    for n in range(5, 51):
        vals = proposed_metrics(n)
        assert vals.kq_t == vals.qubits * vals.t_depth


def test_kq_matches_published_quartics():
    for n in range(5, 21):
        vals = proposed_metrics(n)
        if n % 2 == 0:
            quartic = (15 * n**4 - 2 * n**3 - 40 * n**2 + 8 * n + 16) // 4
        else:
            quartic = (15 * n**4 - 18 * n**3 - 24 * n**2 + 18 * n + 9) // 4
        assert vals.kq_t == quartic


def test_parity_dispatch_is_total():
    for n in range(5, 30):
        report = _by_metric(closed_form_rows("proposed", n))
        assert list(report) == list(METRICS)
        t_count = 5 * n * n - 4 * n - 4 if n % 2 == 0 else 5 * n * n - 6 * n - 3
        assert report["t_count"].closed_form == t_count, n


def test_proposed_rejects_small_widths():
    for n in (0, 3, 4):
        with pytest.raises(UnsupportedWidthError):
            proposed_metrics(n)


# a width that is not an int is refused, by its repr, at each entry
# point: the polynomials would take a float or a bool and return
# fractional or meaningless costs
@pytest.mark.parametrize("entry", [row_widths, arrange, synthesize_squarer, proposed_metrics,
                                   built_metrics, lambda n: baseline_costs("thapliyal", n)],
                         ids=["row_widths", "arrange", "synthesize_squarer", "proposed_metrics",
                              "built_metrics", "baseline_costs"])
def test_width_that_is_not_an_int_rejected(entry):
    for n in (5.0, 5.5, "6", None, True):
        with pytest.raises(ValueError, match=re.escape(repr(n)) + "$"):
            entry(n)


def test_and_count_closed_forms():
    # the paper books 4 T per AND: C(n,2) partial products in phase 1 and
    # one AND per adder bit, i.e. the sum of the stage widths
    assert proposed_metrics(6).t_count == 4 * (15 + 23)
    assert proposed_metrics(5).t_count == 4 * (10 + 13)
    for n in range(5, 60):
        ands = n * (n - 1) // 2 + sum(row_widths(n)[1:])
        assert proposed_metrics(n).t_count == 4 * ands, n


def test_thapliyal_n6():
    vals = baseline_costs("thapliyal", 6)
    assert vals.t_count == 440
    assert vals.kq_t == 5 * 1296 + 7 * 216 - 3 * 36 - 7 * 6 - 2 == 7840
    assert vals.kq_t == vals.qubits * vals.t_depth


def test_nagamani_n6():
    vals = baseline_costs("nagamani-osu", 6)
    assert vals.t_count == 636
    assert vals.kq_t == vals.qubits * vals.t_depth
    quartic = 4 * 6**4 + 17 * 6**3 - 3 * 36 - 32 * 6 - 16
    assert vals.kq_t == quartic


def test_baselines_are_integer_valued_from_two():
    for design in ("thapliyal", "nagamani-osu"):
        for n in range(2, 30):
            baseline_costs(design, n)  # _exact_div raises on any remainder


def test_unknown_design_rejected():
    with pytest.raises(ValueError):
        baseline_costs("banerjee", 6)


def test_reduction_ratios_reproduce_all_published_percentages():
    ratios = reduction_ratios()
    assert ratios[("t_count", "thapliyal")] == 66.67
    assert ratios[("t_depth", "thapliyal")] == 50.0
    assert ratios[("cnot_count", "thapliyal")] == 29.41
    assert ratios[("cnot_depth", "thapliyal")] == 42.86
    assert ratios[("kq_t", "thapliyal")] == 25.0
    assert ratios[("t_count", "nagamani-osu")] == 77.27
    assert ratios[("t_depth", "nagamani-osu")] == 68.75
    assert ratios[("cnot_count", "nagamani-osu")] == 50.0
    assert ratios[("cnot_depth", "nagamani-osu")] == 61.90
    assert ratios[("kq_t", "nagamani-osu")] == 6.25


def test_ratios_depend_only_on_leading_coefficients():
    # recomputing from the full polynomials at growing n converges to the same
    from fractions import Fraction

    for metric in ("t_count", "cnot_depth", "kq_t"):
        big = 10**7 if metric != "kq_t" else 10**5
        prop = getattr(proposed_metrics(big), metric)
        base = getattr(baseline_costs("thapliyal", big), metric)
        limit = round(float(100 * (1 - Fraction(prop, base))), 2)
        assert limit == reduction_ratios()[(metric, "thapliyal")]


# ---- reconciliation -----------------------------------------------------------

@pytest.mark.parametrize("n", range(5, 13))
def test_reconcile_t_count_is_four_per_and_macro(n):
    nl = synthesize_squarer(n)
    report = _by_metric(reconcile(nl))
    step1 = sum(isinstance(op, LogicalAnd) for op in nl.gates)
    adds = [op for op in nl.gates if isinstance(op, AddInPlace)]
    adders = sum(adder_and_count(len(op.a_wires), op.carry_out is not None) for op in adds)
    assert step1 == n * (n - 1) // 2
    assert report["t_count"].measured == 4 * (step1 + adders)
    assert built_metrics(n).t_count == 4 * (step1 + adders)


@pytest.mark.parametrize("n", range(5, 13))
def test_reconcile_measured_t_depth_below_closed_form(n):
    report = _by_metric(reconcile(synthesize_squarer(n)))
    line = report["t_depth"]
    assert line.measured <= line.closed_form


@pytest.mark.parametrize("n", range(5, 13))
def test_reconcile_carry_less_stage_delta_formula(n):
    nl = synthesize_squarer(n)
    report = _by_metric(reconcile(nl))
    carry_less = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
    assert carry_less_stages(n) == carry_less == sum(
        isinstance(op, AddInPlace) and op.carry_out is None for op in nl.gates)
    assert built_metrics(n).t_count - proposed_metrics(n).t_count == -4 * carry_less
    assert report["t_count"].delta == -4 * carry_less


def test_built_metrics_equal_measurement():
    # the exact account of the circuit as built, all six metrics, at
    # every width its docstring names; the T-depth quadratics start at
    # n = 9, below which the values are listed
    for n in [*range(5, 65), 100, 127, 128, 160, 256]:
        assert measure_circuit(synthesize_squarer(n)) == built_metrics(n), n
    assert [built_metrics(n).t_depth for n in range(5, 9)] == [21, 34, 45, 64]


@functools.cache
def _own_depths(cls, shape):
    """(T-depth, CNOT-depth) of one op alone: ``schedule_asap`` of a
    netlist that holds only it, on fresh wires.  ``shape`` is a
    primitive's (kind, arity) or an adder's (width, has carry-out)."""
    nl = Netlist()
    if cls is AddInPlace:
        m, carry = shape
        w = nl.new_wires(2 * m + carry)
        nl.append(AddInPlace(tuple(w[:m]), tuple(w[m:2 * m]), w[-1] if carry else None))
    elif cls is Gate:
        kind, arity = shape
        nl.append(Gate(kind, tuple(nl.new_wires(arity))))
    else:
        nl.append(cls(*nl.new_wires(3)))
    return schedule_asap(nl)


def _shape(op):
    if type(op) is AddInPlace:
        return len(op.a_wires), op.carry_out is not None
    if type(op) is Gate:
        assert op.cbit is None
        return op.kind, len(op.wires)
    return None


def test_paper_depths_are_own_depths_plus_booking():
    # the paper's depths are block-sequential sums: the own depths of the
    # netlist's ops, summed, plus an exact offset in the adder stage
    # widths m_1, m_2, ... = row_widths(n)[1:]
    for n in range(5, 65):
        own = [_own_depths(type(op), _shape(op)) for op in synthesize_squarer(n).gates]
        m = row_widths(n)[1:]
        paper = proposed_metrics(n)
        assert paper.t_depth == sum(t for t, _ in own) + (m[0] - 1) + sum(m[1:]), n
        assert paper.cnot_depth == sum(c for _, c in own) + 2 * (n // 2 - 2), n


def test_built_metrics_rejects_small_widths():
    for n in (0, 3, 4):
        with pytest.raises(UnsupportedWidthError):
            built_metrics(n)


def test_reconcile_deltas_equal_built_minus_paper():
    for n in range(5, 13):
        report = _by_metric(reconcile(synthesize_squarer(n)))
        built, paper = built_metrics(n), proposed_metrics(n)
        for metric in METRICS:
            line = report[metric]
            assert line.closed_form == paper.get(metric)
            assert line.delta == line.measured - line.closed_form
            assert line.delta == built.get(metric) - paper.get(metric), (n, metric)
        for metric in ("t_count", "t_depth", "qubits"):
            assert report[metric].delta != 0, (n, metric)


def test_reconcile_and_counts():
    # n = 6: 15 phase-1 ANDs; the adders' 23 booked ANDs against the 21
    # the lowering builds (stage widths 9, 8, 6; two drop their carry-out)
    nl = synthesize_squarer(6)
    report = _by_metric(reconcile(nl))
    assert sum(isinstance(op, LogicalAnd) for op in nl.gates) == 15
    assert sum(row_widths(6)[1:]) == 23
    assert report["t_count"].closed_form == 4 * (15 + 23)
    assert report["t_count"].measured == built_metrics(6).t_count == 4 * (15 + 21)


# ---- rendering ------------------------------------------------------------------

def test_csv_rows_shape():
    rows = reconcile(synthesize_squarer(6)) + closed_form_rows("thapliyal", 6)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,design,metric,closed_form,measured,delta"
    assert len(lines) == 1 + 2 * len(METRICS)
    assert "6,proposed,t_count,152,144,-8" in lines
    assert "6,thapliyal,t_count,440,," in lines
    # the proposed design's closed-form rows are the reconciled rows
    # with nothing measured
    assert closed_form_rows("proposed", 6) == [
        row._replace(measured="", delta="") for row in rows[:len(METRICS)]]
    assert all(type(row) is CostRow for row in rows)


def test_comparison_table_mentions_both_designs():
    rows = closed_form_rows("thapliyal", 6) + closed_form_rows("proposed", 6)
    text = comparison_table(6, ("proposed", "thapliyal"), rows)
    assert "152" in text and "440" in text
    # columns follow the designs named, whatever order the rows come in
    assert text.splitlines()[0].split()[-2:] == ["proposed", "thapliyal"]


def test_ratios_table_renders_two_decimals():
    text = ratios_table()
    assert "66.67%" in text and "61.90%" in text and "6.25%" in text
