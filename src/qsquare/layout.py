"""Operand-grid layout for n-bit squaring (circuit-free).

Squaring expands as a^2 = a_0 + sum_i a_i*2^(2i) + sum_{i<j} a_i*a_j*2^(i+j+1).
This module enumerates those terms (partial products a_i*a_j and single-bit
copies a_i) and packs them into a grid of adder operand rows T_0..T_R so that
only R pairwise additions are needed, half as many as a naive row-per-shift
arrangement.  Rows T_0 and T_1 are 2n-3 cells wide, row T_k is 2n-2k cells
wide for k >= 2, and cells not holding a term are zero pads.

Column c of rows T_0/T_1 carries weight 2^(c+2); column c of row T_k (k >= 2)
carries weight 2^(2k+c).  ``grid_value`` evaluates the whole grid under that
weighting and must reproduce a^2 exactly for every input; the exhaustive test
of that identity is the correctness contract for the placement rule.

Each cell holds a ``PartialProduct(i, j)``, an ``InputCopy(i)`` or the zero
pad ``ZERO`` (the one ``ZeroPad``).  The cell types and ``OperandGrid`` are
immutable named tuples that equal only a value of their own type, never a
plain tuple.

The arrangement is one rule, ``stack``: the terms of each weight are
stacked top-down into the rows that have a cell of that weight.  It has
two fillings: ``arrange`` stacks the cell types with ``ZERO`` in each
empty cell, and ``synth`` the terms' wires with a fresh zero wire.
"""

from __future__ import annotations

from typing import NamedTuple

from .ir import _same_type_eq, _same_type_ne


class UnsupportedWidthError(ValueError):
    """Input width must be an int above 4."""

    def __init__(self, n):
        super().__init__(f"input width must be an int n > 4, got n={n!r}")
        self.n = n


class PartialProduct(NamedTuple):
    """The term a_i * a_j with i < j."""

    i: int
    j: int

    # a term equals only a term of its own type, never a plain tuple
    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    def label(self) -> str:
        return f"a{self.i}a{self.j}"


class InputCopy(NamedTuple):
    """A copy of input bit a_i (the squared-bit term a_i * 2^(2i))."""

    i: int

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    def label(self) -> str:
        return f"a{self.i}"


class ZeroPad(NamedTuple):
    """An ancilla cell holding constant 0."""

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    def __bool__(self) -> bool:  # a cell, not an empty tuple
        return True

    def label(self) -> str:
        return "0"


ZERO = ZeroPad()


def row_widths(n: int) -> tuple[int, ...]:
    """Cell counts of rows T_0..T_R: (2n-3, 2n-3, 2n-4, 2n-6, ...)."""
    _check_width(n)
    r = n // 2
    return (2 * n - 3, 2 * n - 3) + tuple(2 * n - 2 * k for k in range(2, r + 1))


def _check_width(n: int) -> None:
    if type(n) is not int or n <= 4:
        raise UnsupportedWidthError(n)


class OperandGrid(NamedTuple):
    """Rows T_0..T_R of placed terms, least-significant column first.

    ``left_pads`` counts the top 2(k-1) cells of each row T_k with
    k >= 2, all zero; ``interior_pads`` every other zero cell.
    """

    n: int
    rows: tuple[tuple, ...]
    interior_pads: int
    left_pads: int

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def entry(self, row: int, col: int):
        return self.rows[row][col]

    def cells(self):
        """Yield (row, col, entry) in row-major order."""
        for r, row in enumerate(self.rows):
            for c, e in enumerate(row):
                yield r, c, e


def partial_products(n: int) -> list:
    """All grid source terms in generation order: for each i = 1..n-1 the
    products a_(i-1)*a_j for j = i..n-1, then the copy of a_i."""
    _check_width(n)
    out: list = []
    for i in range(1, n):
        for j in range(i, n):
            out.append(PartialProduct(i - 1, j))
        out.append(InputCopy(i))
    return out


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


def arrange(n: int) -> OperandGrid:
    """The operand grid: ``stack`` of the cell types, ``ZERO`` in each empty
    cell; the top 2(k-1) cells of each T_k (k >= 2) are ``left_pads``."""
    _check_width(n)
    rows = stack(n, [InputCopy(i) for i in range(1, n)],
                 [[PartialProduct(i, j) for j in range(i + 1, n)] for i in range(n - 1)], ZERO)
    r = len(rows) - 1
    left = r * (r - 1)  # 2(k-1) for each k = 2..r
    placed = (n + 2) * (n - 1) // 2  # the n(n-1)/2 products and n-1 copies
    return OperandGrid(n, tuple(map(tuple, rows)), sum(map(len, rows)) - placed - left, left)


def grid_value(grid: OperandGrid, a: int) -> int:
    """Evaluate the grid on input a: bit_0(a) + 4*(T_0 + T_1) + sum 4^k T_k,
    each row read as a little-endian integer of its cell values."""
    if not 0 <= a < (1 << grid.n):
        raise ValueError(f"input {a} out of range for n={grid.n}")
    bit = lambda i: (a >> i) & 1
    total = bit(0)
    for k, row in enumerate(grid.rows):
        row_val = 0
        for c, e in enumerate(row):
            if isinstance(e, PartialProduct):
                v = bit(e.i) & bit(e.j)
            elif isinstance(e, InputCopy):
                v = bit(e.i)
            else:
                v = 0
            row_val += v << c
        total += row_val * (4 if k <= 1 else 4 ** k)
    return total


def dump_grid(grid: OperandGrid) -> str:
    """One row per line, cells comma-separated as a{i}a{j} / a{i} / 0."""
    return "\n".join(",".join(e.label() for e in row) for row in grid.rows) + "\n"
