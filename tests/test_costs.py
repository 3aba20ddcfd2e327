"""Closed-form evaluators, baselines, ratios, and measured reconciliation."""

import pytest

from qsquare.blocks import adder_and_count
from qsquare.costs import (
    METRICS,
    baseline_costs,
    baseline_rows,
    built_metrics,
    carry_less_stages,
    comparison_table,
    measure_circuit,
    proposed_costs,
    proposed_metrics,
    ratios_table,
    reconcile,
    reduction_ratios,
    report_rows,
    rows_to_csv,
)
from qsquare.ir import AddInPlace, LogicalAnd
from qsquare.layout import UnsupportedWidthError, row_widths
from qsquare.synth import synthesize_squarer


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
        report = proposed_costs(n)
        assert set(report.metrics) == set(METRICS)
        t_count = 5 * n * n - 4 * n - 4 if n % 2 == 0 else 5 * n * n - 6 * n - 3
        assert report.metrics["t_count"].closed_form == t_count, n


def test_proposed_rejects_small_widths():
    for n in (0, 3, 4):
        with pytest.raises(UnsupportedWidthError):
            proposed_metrics(n)


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
    circuit = synthesize_squarer(n)
    report = reconcile(circuit)
    step1 = sum(isinstance(op, LogicalAnd) for op in circuit.netlist.gates)
    adds = [op for op in circuit.netlist.gates if isinstance(op, AddInPlace)]
    adders = sum(adder_and_count(len(op.a_wires), op.carry_out is not None) for op in adds)
    assert step1 == n * (n - 1) // 2
    assert report.metrics["t_count"].measured == 4 * (step1 + adders)
    assert built_metrics(n).t_count == 4 * (step1 + adders)


@pytest.mark.parametrize("n", range(5, 13))
def test_reconcile_measured_t_depth_below_closed_form(n):
    report = reconcile(synthesize_squarer(n))
    line = report.metrics["t_depth"]
    assert line.measured <= line.closed_form


@pytest.mark.parametrize("n", range(5, 13))
def test_reconcile_carry_less_stage_delta_formula(n):
    circuit = synthesize_squarer(n)
    report = reconcile(circuit)
    carry_less = (n - 2) // 2 if n % 2 == 0 else (n - 3) // 2
    assert carry_less_stages(n) == carry_less == sum(
        isinstance(op, AddInPlace) and op.carry_out is None for op in circuit.netlist.gates)
    assert built_metrics(n).t_count - proposed_metrics(n).t_count == -4 * carry_less
    assert report.metrics["t_count"].delta == -4 * carry_less


def test_built_metrics_equal_measurement():
    # the exact account of the circuit as built, all six metrics; the
    # T-depth quadratics start at n = 9, below which the values are listed
    for n in range(5, 45):
        assert measure_circuit(synthesize_squarer(n)) == built_metrics(n), n
    assert [built_metrics(n).t_depth for n in range(5, 9)] == [21, 34, 45, 64]


def test_built_metrics_rejects_small_widths():
    for n in (0, 3, 4):
        with pytest.raises(UnsupportedWidthError):
            built_metrics(n)


def test_reconcile_deltas_equal_built_minus_paper():
    for n in range(5, 13):
        report = reconcile(synthesize_squarer(n))
        built, paper = built_metrics(n), proposed_metrics(n)
        for metric in METRICS:
            line = report.metrics[metric]
            assert line.closed_form == paper.get(metric)
            assert line.delta == line.measured - line.closed_form
            assert line.delta == built.get(metric) - paper.get(metric), (n, metric)
        for metric in ("t_count", "t_depth", "qubits"):
            assert report.metrics[metric].delta != 0, (n, metric)


def test_reconcile_and_counts():
    # n = 6: 15 phase-1 ANDs; the adders' 23 booked ANDs against the 21
    # the lowering builds (stage widths 9, 8, 6; two drop their carry-out)
    circuit = synthesize_squarer(6)
    report = reconcile(circuit)
    assert sum(isinstance(op, LogicalAnd) for op in circuit.netlist.gates) == 15
    assert sum(row_widths(6)[1:]) == 23
    assert report.metrics["t_count"].closed_form == 4 * (15 + 23)
    assert report.metrics["t_count"].measured == built_metrics(6).t_count == 4 * (15 + 21)


# ---- rendering ------------------------------------------------------------------

def test_csv_rows_shape():
    report = reconcile(synthesize_squarer(6))
    rows = report_rows(report) + baseline_rows("thapliyal", 6)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,design,metric,closed_form,measured,delta"
    assert len(lines) == 1 + 2 * len(METRICS)
    assert "6,proposed,t_count,152,144,-8" in lines
    assert "6,thapliyal,t_count,440,," in lines


def test_comparison_table_mentions_both_designs():
    text = comparison_table(6, ("proposed", "thapliyal"))
    assert "152" in text and "440" in text


def test_ratios_table_renders_two_decimals():
    text = ratios_table()
    assert "66.67%" in text and "61.90%" in text and "6.25%" in text
