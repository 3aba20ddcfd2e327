"""Closed-form resource polynomials: the paper's, the circuit's as built,
and the published baselines; and the reconciliation of the paper's
closed forms against netlist measurements.

``proposed_metrics(n)`` evaluates the paper's polynomials.  They count
blocks fully sequentially (every logical-AND contributes its whole
T-depth 2, every adder its whole published budget), and book one AND per
adder bit including carry-less stages, while the chosen adder uses m-1
ANDs when no carry-out is produced; the published text itself states
both "m ANDs per m-bit adder" and "4(m-1) T gates per m-bit adder",
which cannot hold at once.

``built_metrics(n)`` is the exact account of the circuit
``synthesize_squarer(n)`` builds: what ``measure_circuit`` measures on
it, for every width.  Its counts are the paper's plus one offset per
documented cause (and-count convention, adder CNOT budget, ancilla
census); its depths are ASAP layer counts, pinned by measurement.
``reconcile`` reports measured - paper as signed deltas, each of which
``built_metrics(n)`` minus ``proposed_metrics(n)`` gives exactly.

All evaluators are exact integer arithmetic.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from .layout import UnsupportedWidthError
from .synth import SquarerCircuit

METRICS = ("t_count", "t_depth", "cnot_count", "cnot_depth", "qubits", "kq_t")
RATIO_METRICS = ("t_count", "t_depth", "cnot_count", "cnot_depth", "kq_t")
BASELINES = ("thapliyal", "nagamani-osu")

# T-depths of the built circuit below n = 9, where its quadratics start
_SMALL_T_DEPTH = {5: 21, 6: 34, 7: 45, 8: 64}


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num}/{den} is not an integer")
    return q


@dataclass(frozen=True)
class MetricValues:
    """One full set of the six cost metrics."""

    t_count: int
    t_depth: int
    cnot_count: int
    cnot_depth: int
    qubits: int
    kq_t: int

    def get(self, metric: str) -> int:
        return getattr(self, metric)


@dataclass(frozen=True)
class MetricLine:
    closed_form: int
    measured: int | None = None
    delta: int | None = None


@dataclass(frozen=True)
class CostReport:
    """Closed-form and (optionally) measured metrics for one width."""

    n: int
    metrics: dict[str, MetricLine]


def proposed_metrics(n: int) -> MetricValues:
    """Closed-form metrics of the squaring circuit, by parity of n."""
    if n <= 4:
        raise UnsupportedWidthError(n)
    if n % 2 == 0:
        t = 5 * n * n - 4 * n - 4
        qubits = _exact_div(3 * n * n + 2 * n - 4, 2)
        cnot = _exact_div(24 * n * n - 23 * n - 28, 2)
        cnot_depth = 8 * n * n - 7 * n - 10
    else:
        t = 5 * n * n - 6 * n - 3
        qubits = _exact_div(3 * n * n - 3, 2)
        cnot = _exact_div(24 * n * n - 35 * n - 13, 2)
        cnot_depth = 8 * n * n - 11 * n - 5
    t_depth = _exact_div(t, 2)
    return MetricValues(t, t_depth, cnot, cnot_depth, qubits, qubits * t_depth)


def carry_less_stages(n: int) -> int:
    """Adder stages built without a carry-out: all but the first of the
    n//2 stages."""
    return n // 2 - 1


def built_metrics(n: int) -> MetricValues:
    """Exact metrics of ``synthesize_squarer(n)``, as measured by
    ``measure_circuit``.  With K = ``carry_less_stages(n)``, each count
    is the paper's plus one offset:

        T-count     -4K          and-count convention: -4 per carry-less stage
        CNOT-count  3 - 6K       adder CNOT budget: published 12m-9 against the
                                 lowering's 12m-6 (+3, the first stage, with
                                 carry-out) and 12m-15 (-6 per carry-less stage)
        qubits      (n-1)//2     ancilla census: the published count omits the
                                 input-copy ancillae and books the first carry
                                 apart from its AND target

    The depths are ASAP layer counts, one quadratic per parity of n; the
    T-depth quadratics hold from n = 9 on, and n = 5..8 measure 21, 34,
    45 and 64.  Both depth forms are pinned by measurement (exact for
    n = 5..160), not derived from the construction.  KQ_T is qubits x
    T-depth.
    """
    paper = proposed_metrics(n)
    k = carry_less_stages(n)
    qubits = paper.qubits + (n - 1) // 2
    if n % 2 == 0:
        t_depth = _exact_div(3 * n * n + 28 * n - 164, 4)
        cnot_depth = _exact_div(12 * n * n - 11 * n - 12, 2)
    else:
        t_depth = _exact_div(3 * n * n + 26 * n - 161, 4)
        cnot_depth = _exact_div(12 * n * n - 19 * n + 3, 2)
    t_depth = _SMALL_T_DEPTH.get(n, t_depth)
    return MetricValues(paper.t_count - 4 * k, t_depth, paper.cnot_count + 3 - 6 * k,
                        cnot_depth, qubits, qubits * t_depth)


def proposed_costs(n: int) -> CostReport:
    """Closed-form side of the cost report (measured fields empty)."""
    vals = proposed_metrics(n)
    return CostReport(n, {m: MetricLine(vals.get(m)) for m in METRICS})


def baseline_costs(design: str, n: int) -> MetricValues:
    """Closed-form metrics of a published baseline design for n >= 2.

    "thapliyal" is the Toffoli/Peres-based squarer; "nagamani-osu" is the
    optimized squaring unit after Bennett-style garbage removal (its
    published row already includes the 2n+1 extra qubits and doubled
    gate counts of that adjustment).
    """
    if n < 2:
        raise ValueError(f"baseline polynomials need n >= 2, got {n}")
    if design == "thapliyal":
        qubits = n * n + 2 * n + 1
        t_depth = 5 * n * n - 3 * n - 2
        return MetricValues(
            t_count=15 * n * n - 17 * n + 2,
            t_depth=t_depth,
            cnot_count=17 * n * n - 23 * n + 8,
            cnot_depth=14 * n * n - 14 * n + 2,
            qubits=qubits,
            kq_t=qubits * t_depth,
        )
    if design == "nagamani-osu":
        qubits = _exact_div(n * n + 5 * n + 4, 2)
        t_depth = 8 * n * n - 6 * n - 8
        return MetricValues(
            t_count=22 * n * n - 24 * n - 12,
            t_depth=t_depth,
            cnot_count=24 * n * n - 52 * n - 6,
            cnot_depth=21 * n * n - 21 * n - 12,
            qubits=qubits,
            kq_t=qubits * t_depth,
        )
    raise ValueError(f"unknown baseline design {design!r}")


def _leading(values, metric: str) -> Fraction:
    """Leading coefficient of ``values(n).get(metric)`` as a polynomial in
    even n, by exact finite differences of step 2: kq_t = qubits x T-depth
    is quartic, every other metric quadratic."""
    degree = 4 if metric == "kq_t" else 2
    diffs = [Fraction(values(n).get(metric)) for n in range(6, 8 + 2 * degree, 2)]
    for _ in range(degree):
        diffs = [hi - lo for lo, hi in zip(diffs, diffs[1:])]
    return diffs[0] / (math.factorial(degree) * 2 ** degree)


def reduction_ratios() -> dict[tuple[str, str], float]:
    """Asymptotic percentage reduction of each metric versus each baseline,
    from leading coefficients, rounded to two decimals."""
    out: dict[tuple[str, str], float] = {}
    for design in BASELINES:
        for metric in RATIO_METRICS:
            ratio = 1 - (_leading(proposed_metrics, metric)
                         / _leading(functools.partial(baseline_costs, design), metric))
            out[(metric, design)] = round(float(100 * ratio), 2)
    return out


def measure_circuit(circuit: SquarerCircuit) -> MetricValues:
    """Measured metrics of the expanded netlist."""
    t_count, t_depth, cnot_count, cnot_depth, qubits = circuit.netlist.measure()
    return MetricValues(t_count, t_depth, cnot_count, cnot_depth, qubits, qubits * t_depth)


def reconcile(circuit: SquarerCircuit) -> CostReport:
    """Measured values and signed deltas (measured - closed form) against
    the paper's closed forms; ``built_metrics`` accounts for each delta."""
    closed = proposed_metrics(circuit.n)
    measured = measure_circuit(circuit)
    return CostReport(circuit.n, {
        m: MetricLine(closed.get(m), measured.get(m), measured.get(m) - closed.get(m))
        for m in METRICS})


# ---- rendering ------------------------------------------------------------

def report_rows(report: CostReport, design: str = "proposed") -> list[tuple]:
    """(n, design, metric, closed_form, measured, delta) CSV rows."""
    rows = []
    for m in METRICS:
        line = report.metrics[m]
        rows.append((report.n, design, m, line.closed_form,
                     "" if line.measured is None else line.measured,
                     "" if line.delta is None else line.delta))
    return rows


def baseline_rows(design: str, n: int) -> list[tuple]:
    vals = baseline_costs(design, n)
    return [(n, design, m, vals.get(m), "", "") for m in METRICS]


def rows_to_csv(rows: list[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "design", "metric", "closed_form", "measured", "delta"])
    writer.writerows(rows)
    return buf.getvalue()


def comparison_table(n: int, designs: tuple[str, ...],
                     report: CostReport | None = None) -> str:
    """Side-by-side metric table for one width, one column per design."""
    cols: dict[str, dict[str, str]] = {}
    for design in designs:
        if design == "proposed":
            rep = report if report is not None else proposed_costs(n)
            cols[design] = {}
            for m in METRICS:
                line = rep.metrics[m]
                text = str(line.closed_form)
                if line.measured is not None:
                    text += f" (measured {line.measured}, delta {line.delta:+d})"
                cols[design][m] = text
        else:
            vals = baseline_costs(design, n)
            cols[design] = {m: str(vals.get(m)) for m in METRICS}
    name_w = max(len(m) for m in METRICS)
    widths = {d: max(len(d), max(len(cols[d][m]) for m in METRICS)) for d in designs}
    header = f"{'metric (n=%d)' % n:<{name_w + 8}}" + "  ".join(
        f"{d:>{widths[d]}}" for d in designs)
    lines = [header, "-" * len(header)]
    for m in METRICS:
        lines.append(f"{m:<{name_w + 8}}" + "  ".join(
            f"{cols[d][m]:>{widths[d]}}" for d in designs))
    return "\n".join(lines) + "\n"


def ratios_table() -> str:
    """Asymptotic reduction percentages versus both baselines."""
    ratios = reduction_ratios()
    lines = [f"{'metric':<12}{'vs thapliyal':>14}{'vs nagamani-osu':>18}",
             "-" * 44]
    for metric in RATIO_METRICS:
        lines.append(f"{metric:<12}"
                     f"{ratios[(metric, 'thapliyal')]:>13.2f}%"
                     f"{ratios[(metric, 'nagamani-osu')]:>17.2f}%")
    return "\n".join(lines) + "\n"
