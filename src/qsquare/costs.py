"""Closed-form resource polynomials: the paper's, the circuit's as built,
and the published baselines; the measurement of a netlist, which only
``measure_circuit`` does; and the reconciliation of the paper's closed
forms against it.

``proposed_metrics(n)`` evaluates the paper's polynomials.  They count
blocks fully sequentially (every logical-AND contributes its whole
T-depth 2, every adder its whole published budget), and book one AND per
adder bit including carry-less stages, while the chosen adder uses m-1
ANDs when no carry-out is produced; the published text itself states
both "m ANDs per m-bit adder" and "4(m-1) T gates per m-bit adder",
which cannot hold at once.

``built_metrics(n)`` is the exact account of the circuit
``synthesize_squarer(n)`` builds: what ``measure_circuit`` measures on
it, for every width.  Its T and CNOT counts are the paper's plus, per
adder stage, ``adder_counts`` (the adder as lowered) minus the paper's
booking of it; its qubits add the ancillae the paper omits; its depths
are ASAP layer counts, pinned by measurement.
A report is a list of ``CostRow``s, which the CSV writes as they are and
``comparison_table`` renders, computing nothing: ``closed_form_rows``
gives any design's, ``reconcile`` the proposed design's, measured on a
squarer netlist, with measured - paper as signed deltas, each of which
``built_metrics(n)`` minus ``proposed_metrics(n)`` gives exactly.

All evaluators are exact integer arithmetic.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections import Counter
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .blocks import adder_and_count
from .ir import (_T_KINDS, AddInPlace, Gate, LogicalAnd, Netlist, UncomputeAnd,
                 _same_type_eq, _same_type_ne, count_gates, expand, schedule_asap)
from .layout import _check_width, row_widths

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


class MetricValues(NamedTuple):
    """One full set of the six cost metrics."""

    t_count: int
    t_depth: int
    cnot_count: int
    cnot_depth: int
    qubits: int
    kq_t: int

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    def get(self, metric: str) -> int:
        """The value of one of the six metrics, named as in ``METRICS``;
        any other name, a tuple method's such as "count" too, raises
        ``AttributeError``."""
        if metric not in METRICS:
            raise AttributeError(f"{metric!r} is not one of the metrics {METRICS}")
        return getattr(self, metric)


class CostRow(NamedTuple):
    """One CSV row: a design's metric at width n, its closed form and,
    on a reconciled proposed design, the measured value and the signed
    delta measured - closed form, both "" where nothing was measured."""

    n: int
    design: str
    metric: str
    closed_form: int
    measured: int | str
    delta: int | str

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__


def proposed_metrics(n: int) -> MetricValues:
    """Closed-form metrics of the squaring circuit, by parity of n."""
    _check_width(n)
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


def adder_counts(m: int, carry_out: bool) -> tuple[int, int]:
    """(T count, CNOT count) of an m-bit adder as lowered: 4 T and 6
    CNOTs per AND (``blocks.adder_and_count`` of them), plus 6m-6 explicit
    CNOTs with a carry-out and 6m-9 without."""
    ands = adder_and_count(m, carry_out)
    return 4 * ands, 6 * ands + 6 * m - (6 if carry_out else 9)


def _paper_adder_counts(m: int) -> tuple[int, int]:
    """(T count, CNOT count) the paper books per m-bit adder: an AND per bit."""
    return 4 * m, 12 * m - 9


def built_metrics(n: int) -> MetricValues:
    """Exact metrics of ``synthesize_squarer(n)``, as measured by
    ``measure_circuit``.

    The T and CNOT counts are the paper's plus, summed over the adder
    stages of widths ``row_widths(n)[1:]``, ``adder_counts`` minus the
    paper's (4m, 12m-9) per m-bit adder.  The first stage has a
    carry-out and differs by (0, +3); each of the
    ``carry_less_stages(n)`` others has m-1 ANDs and differs by (-4, -6).
    The qubits are the paper's plus (n-1)//2: the published count omits
    the input-copy ancillae and books the first carry apart from its AND
    target.

    The depths are ASAP layer counts, one quadratic per parity of n; the
    T-depth quadratics hold from n = 9 on, and n = 5..8 measure 21, 34,
    45 and 64.  Both depth forms are pinned by measurement, not derived
    from the construction.  All six metrics are checked equal to
    ``measure_circuit`` at n = 5..64, 100, 127, 128, 160 and 256 by the
    tests, and at n = 1024 by CI.  KQ_T is qubits x T-depth.
    """
    paper = proposed_metrics(n)
    t_count, cnot_count = paper.t_count, paper.cnot_count
    for i, m in enumerate(row_widths(n)[1:]):
        (t, cnot), (paper_t, paper_cnot) = adder_counts(m, i == 0), _paper_adder_counts(m)
        t_count += t - paper_t
        cnot_count += cnot - paper_cnot
    qubits = paper.qubits + (n - 1) // 2
    if n % 2 == 0:
        t_depth = _exact_div(3 * n * n + 28 * n - 164, 4)
        cnot_depth = _exact_div(12 * n * n - 11 * n - 12, 2)
    else:
        t_depth = _exact_div(3 * n * n + 26 * n - 161, 4)
        cnot_depth = _exact_div(12 * n * n - 19 * n + 3, 2)
    t_depth = _SMALL_T_DEPTH.get(n, t_depth)
    return MetricValues(t_count, t_depth, cnot_count, cnot_depth, qubits, qubits * t_depth)


def baseline_costs(design: str, n: int) -> MetricValues:
    """Closed-form metrics of a published baseline design for n >= 2.

    "thapliyal" is the Toffoli/Peres-based squarer; "nagamani-osu" is the
    optimized squaring unit after Bennett-style garbage removal (its
    published row already includes the 2n+1 extra qubits and doubled
    gate counts of that adjustment).
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"baseline polynomials need an int n >= 2, got {n!r}")
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


def _leading(values, metric: str):
    """Leading coefficient of ``values(n).get(metric)`` as a polynomial in
    even n, an exact ``Fraction``, by finite differences of step 2: kq_t =
    qubits x T-depth is quartic, every other metric quadratic."""
    from fractions import Fraction  # only --ratios needs it

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


def _shape_counts(gates) -> Counter:
    """How many ops of ``gates`` have each shape: a primitive's kind, or
    ``(LogicalAnd,)``, ``(UncomputeAnd,)`` or ``(AddInPlace, m, carry)``
    for an adder of width m with (``carry`` True) or without a
    carry-out.  It dispatches on the exact type as ``ir._lower`` does."""
    counts: Counter = Counter()
    for cls, ops in groupby(gates, type):
        if cls is LogicalAnd:
            counts[LogicalAnd,] += len([*ops])
        elif cls is UncomputeAnd:
            counts[UncomputeAnd,] += len([*ops])
        elif cls is Gate:
            counts.update(map(itemgetter(0), ops))
        else:  # AddInPlace
            counts.update((AddInPlace, len(op.a_wires), op.carry_out is not None)
                          for op in ops)
    return counts


@functools.cache
def _shape_cost(cls: type, m: int = 0, carry: bool = False) -> tuple[int, int, int]:
    """(T count, CNOT count, fresh wires) of one op once expanded: a
    ``LogicalAnd`` or ``UncomputeAnd`` ``cls``, or an ``AddInPlace`` of
    width ``m`` with or without a carry-out.  It is read off
    ``count_gates(expand(...))`` of a netlist of that one op, so it comes
    from the lowering the exports write.  The cache holds one 3-tuple per
    shape measured in the process: the AND's, the uncompute's and one per
    adder width and carry-out variant, 122 after ``compare 5..64
    --measured``."""
    nl = Netlist()
    if cls is AddInPlace:
        wires = nl.new_wires(2 * m + carry)
        nl.append(AddInPlace(tuple(wires[:m]), tuple(wires[m:2 * m]),
                             wires[-1] if carry else None))
    else:
        nl.append(cls(*nl.new_wires(3)))
    full = expand(nl)
    return (*count_gates(full), full.wire_count - nl.wire_count)


def measure_circuit(netlist: Netlist) -> MetricValues:
    """Measured metrics of the netlist's Clifford+T expansion, with none
    built whole: the depths are ``schedule_asap``'s of the macros, and
    the counts and qubits add up per op, a primitive by its kind and
    every other op at its shape's cost (``_shape_counts``, ``_shape_cost``)."""
    t_depth, cnot_depth = schedule_asap(netlist)
    t_count = cnot_count = 0
    qubits = netlist.wire_count
    for shape, k in _shape_counts(netlist.gates).items():
        if type(shape) is str:  # a primitive's kind
            t, cnot, fresh = shape in _T_KINDS, shape == "cx", 0
        else:
            t, cnot, fresh = _shape_cost(*shape)
        t_count += k * t
        cnot_count += k * cnot
        qubits += k * fresh
    return MetricValues(t_count, t_depth, cnot_count, cnot_depth, qubits, qubits * t_depth)


def closed_form_rows(design: str, n: int) -> list[CostRow]:
    """The six rows of a design's closed forms at width n, "proposed" or
    one of ``BASELINES``, with nothing measured."""
    vals = proposed_metrics(n) if design == "proposed" else baseline_costs(design, n)
    return [CostRow(n, design, m, v, "", "") for m, v in zip(METRICS, vals)]


def reconcile(netlist: Netlist) -> list[CostRow]:
    """The proposed design's six rows at the width of a squarer netlist,
    the length of its register ``A``: the paper's closed form, the
    measured value and the signed delta (measured - closed form);
    ``built_metrics`` accounts for each delta."""
    n = len(netlist.registers["A"])
    return [CostRow(n, "proposed", m, closed, measured, measured - closed)
            for m, closed, measured in zip(METRICS, proposed_metrics(n),
                                           measure_circuit(netlist))]


# ---- rendering ------------------------------------------------------------

def rows_to_csv(rows: list[CostRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CostRow._fields)
    writer.writerows(rows)
    return buf.getvalue()


def comparison_table(n: int, designs: tuple[str, ...], rows: list[CostRow]) -> str:
    """Side-by-side metric table of width n's ``rows``, one column per
    design in the order of ``designs``; a measured row shows its
    measurement and delta after its closed form."""
    cols: dict[str, dict[str, str]] = {d: {} for d in designs}
    for row in rows:
        text = str(row.closed_form)
        if row.measured != "":
            text += f" (measured {row.measured}, delta {row.delta:+d})"
        cols[row.design][row.metric] = text
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
