"""Operand-grid layout for n-bit squaring (circuit-free).

Squaring expands as a^2 = a_0 + sum_i a_i*2^(2i) + sum_{i<j} a_i*a_j*2^(i+j+1).
The terms are the partial products a_i*a_j and the single-bit copies
a_i (i >= 1).  They are packed into a grid of adder operand rows
T_0..T_R so that only R pairwise additions are needed, half as many as
a naive row-per-shift arrangement.  Rows T_0 and T_1 are 2n-3 cells
wide, row T_k is 2n-2k cells wide for k >= 2, and cells not holding a
term are zero.

Column c of rows T_0/T_1 carries weight 2^(c+2); column c of row T_k (k >= 2)
carries weight 2^(2k+c).  ``grid_value`` evaluates the whole grid under that
weighting and must reproduce a^2 exactly for every input; the exhaustive test
of that identity is the correctness contract for the placement rule.

The arrangement is one rule, ``stack``: the terms of each weight are
stacked top-down into the rows that have a cell of that weight.  The
grid has no type of its own; each user fills the rule with what it
needs: ``synth`` with the terms' wires and a fresh zero wire,
``arrange`` with the labels ``a{i}a{j}``, ``a{i}`` and ``0`` that
``dump_grid`` writes, and ``grid_value`` with the terms' bit values.
"""

from __future__ import annotations


class UnsupportedWidthError(ValueError):
    """Input width must be an int above 4."""

    def __init__(self, n):
        super().__init__(f"input width must be an int n > 4, got n={n!r}")
        self.n = n


def row_widths(n: int) -> tuple[int, ...]:
    """Cell counts of rows T_0..T_R: (2n-3, 2n-3, 2n-4, 2n-6, ...)."""
    _check_width(n)
    r = n // 2
    return (2 * n - 3, 2 * n - 3) + tuple(2 * n - 2 * k for k in range(2, r + 1))


def _check_width(n: int) -> None:
    if type(n) is not int or n <= 4:
        raise UnsupportedWidthError(n)


def stack(n: int, copies, products, empty) -> list[list]:
    """Rows T_0..T_R with each term in its cell and ``empty`` elsewhere.

    ``copies[i - 1]`` stands for the copy a_i (i = 1..n-1) and
    ``products[i][j - i - 1]`` for the product a_i*a_j (i < j), of any
    type.  The terms of weight 2^w, w = 2..2n-2, are the copy a_(w/2)
    when w is even, then a_i*a_(w-1-i) for ascending i with
    max(0, w-n) <= i < w//2.  They take that weight's cells in rows T_0,
    T_1, T_2, ... in order.  The rows with a cell at 2^w are T_k for
    k <= min(w//2, n//2), at column w - 2*max(k, 1).

    Those rows always suffice: a weight has at most w//2 + 1 terms, and
    above w = n at most n - ceil(w/2) + 1 <= n//2 + 1.  The same count,
    at most k terms at w >= 2n-2k+2, leaves the top 2(k-1) cells of each
    T_k (k >= 2) empty.
    """
    rows = [[empty] * width for width in row_widths(n)]  # validates n
    shifts = [2, *range(2, 2 * len(rows), 2)]  # 2*max(k, 1) for each row T_k
    for w in range(2, 2 * n - 1):
        terms = [copies[w // 2 - 1]] if w % 2 == 0 else []
        terms += [products[i][w - 2 - 2 * i] for i in range(max(0, w - n), w // 2)]
        for row, shift, term in zip(rows, shifts, terms):
            row[w - shift] = term
    return rows


def arrange(n: int) -> tuple[tuple[str, ...], ...]:
    """The operand grid as labels: ``stack`` of ``a{i}a{j}`` and ``a{i}``,
    with ``"0"`` in each empty cell."""
    _check_width(n)
    rows = stack(n, [f"a{i}" for i in range(1, n)],
                 [[f"a{i}a{j}" for j in range(i + 1, n)] for i in range(n - 1)], "0")
    return tuple(map(tuple, rows))


def grid_value(n: int, a: int) -> int:
    """The grid's value on input a: a_0 + sum_k T_k * 2^(2*max(k, 1)),
    each row ``stack`` of the terms' bit values (0 in each empty cell)
    read as a little-endian integer.  It equals a*a for every a."""
    _check_width(n)
    if type(a) is not int or not 0 <= a < 1 << n:
        raise ValueError(f"input must be an int in 0..2^{n}-1, got a={a!r}")
    bits = [(a >> i) & 1 for i in range(n)]
    rows = stack(n, bits[1:], [[x & y for y in bits[i + 1:]] for i, x in enumerate(bits)], 0)
    return bits[0] + sum(sum(bit << c for c, bit in enumerate(row)) << 2 * max(k, 1)
                         for k, row in enumerate(rows))


def dump_grid(rows) -> str:
    """One row of labels per line, cells comma-separated (``arrange``'s rows)."""
    return "\n".join(",".join(row) for row in rows) + "\n"
