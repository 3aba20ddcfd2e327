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
of that identity is the correctness contract for the placement rules.

Each cell holds a ``PartialProduct(i, j)``, an ``InputCopy(i)`` or the zero
pad ``ZERO`` (the one ``ZeroPad``).  The cell types and ``OperandGrid`` are
immutable named tuples that equal only a value of their own type, never a
plain tuple.

Construction is assert-on-write: any double placement or leftover empty cell
raises, because an index slip in the four placement cases would otherwise
silently corrupt the grid.  Once every cell is placed, the terms' (i, j) keys
(i, -1 for a copy) must equal those of ``partial_products(n)`` in number and
as a set; the source terms are distinct, so that is exactly multiset equality.
"""

from __future__ import annotations

from typing import NamedTuple

from .ir import _same_type_eq, _same_type_ne


class UnsupportedWidthError(ValueError):
    """Input width must exceed 4 bits."""

    def __init__(self, n: int):
        super().__init__(f"input width must satisfy n > 4, got n={n}")
        self.n = n


class PlacementError(Exception):
    """Grid cell placed twice or left empty by the placement rules."""


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

GridEntry = "PartialProduct | InputCopy | ZeroPad"


def row_widths(n: int) -> tuple[int, ...]:
    """Cell counts of rows T_0..T_R: (2n-3, 2n-3, 2n-4, 2n-6, ...)."""
    _check_width(n)
    r = n // 2
    return (2 * n - 3, 2 * n - 3) + tuple(2 * n - 2 * k for k in range(2, r + 1))


def _check_width(n: int) -> None:
    if n <= 4:
        raise UnsupportedWidthError(n)


class OperandGrid(NamedTuple):
    """Rows T_0..T_R of placed terms, least-significant column first.

    ``interior_pads`` counts the zero cells placed while arranging the
    terms; ``left_pads`` the zero cells of the final high-order padding
    phase.
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


def _source_keys(n: int) -> set[tuple[int, int]]:
    """The (i, j) of every partial product and (i, -1) of every input
    copy in ``partial_products(n)``, taken from the same index ranges."""
    keys = {(i, j) for i in range(n - 1) for j in range(i + 1, n)}
    keys.update((i, -1) for i in range(1, n))
    return keys


class _GridBuilder:
    def __init__(self, n: int):
        self.n = n
        self.widths = row_widths(n)
        self.rows: list[list] = [[None] * w for w in self.widths]
        self.pad_counts = [0, 0]  # interior, left
        self.placed = 0

    def put(self, row: int, col: int, entry, pad_phase: int = 0) -> None:
        rows = self.rows
        if 0 <= row < len(rows):
            cells = rows[row]
            if 0 <= col < len(cells) and cells[col] is None:  # in-grid empty cell
                cells[col] = entry
                self.placed += 1
                if isinstance(entry, ZeroPad):
                    self.pad_counts[pad_phase] += 1
                return
        if not (0 <= row < len(rows) and 0 <= col < self.widths[row]):
            raise PlacementError(f"cell T({row},{col}) outside the grid for n={self.n}")
        raise PlacementError(
            f"cell T({row},{col}) placed twice: {rows[row][col]} then {entry}")

    def finish(self) -> OperandGrid:
        if self.placed < sum(self.widths):  # put refuses a second placement
            r, c = next((r, c) for r, row in enumerate(self.rows)
                        for c, e in enumerate(row) if e is None)
            raise PlacementError(f"cell T({r},{c}) never placed for n={self.n}")
        # (i, j) of a partial product, (i, -1) of an input copy
        placed = [(e.i, -1) if isinstance(e, InputCopy) else (e.i, e.j)
                  for row in self.rows for e in row if not isinstance(e, ZeroPad)]
        # the source terms are distinct, so equal length and equal set
        # mean the placed terms are exactly the source multiset
        source = _source_keys(self.n)
        if len(placed) != len(source) or set(placed) != source:
            raise PlacementError(f"grid terms differ from the source set for n={self.n}")
        return OperandGrid(self.n, tuple(map(tuple, self.rows)),
                           self.pad_counts[0], self.pad_counts[1])


def arrange(n: int) -> OperandGrid:
    """Place every partial product and input copy into the operand grid.

    The placement walks diagonal index i = 1..2n-3 (the output-bit weight
    of the terms being placed is 2^(i+1)) with four cases by parity of i
    and whether i exceeds n-1, then zero-pads first the interior gaps and
    finally the high-order (left) ends of rows T_2 and up so each row is
    a full adder operand.
    """
    _check_width(n)
    g = _GridBuilder(n)
    put = g.put
    for i in range(1, 2 * n - 2):
        odd = i % 2 == 1
        if i <= n - 1 and odd:
            put(0, i - 1, InputCopy((i + 1) // 2))
            put(1, i - 1, PartialProduct(0, i))
            if i > 1:
                for j in range(2, (i + 1) // 2 + 1):
                    put(j, i - 2 * j + 1, PartialProduct(j - 1, i - j + 1))
        elif i <= n - 1:
            for j in range(1, i // 2 + 1):
                col = i - 1 if j <= 2 else i - 2 * j + 3
                put(j - 1, col, PartialProduct(j - 1, i - j + 1))
            put(i // 2, 1, ZERO)
        elif odd:
            put(0, i - 1, InputCopy((i + 1) // 2))
            put(1, i - 1, PartialProduct(i - n + 1, n - 1))
            if i != 2 * n - 3:
                for j in range(2, (2 * n - i - 1) // 2 + 1):
                    put(j, i - 2 * j + 1, PartialProduct(i - n + j, n - j))
        else:
            for j in range(1, (2 * n - i - 2) // 2 + 1):
                col = i - 1 if j <= 2 else i - 2 * j + 3
                put(j - 1, col, PartialProduct(i - n + j, n - j))
            if n % 2 == 1:
                if i != 2 * n - 4:
                    put((2 * n - i - 2) // 2, 2 * (i - n) + 3, ZERO)
                    put((2 * n - i) // 2, 2 * (i - n) + 1, ZERO)
                else:
                    put((2 * n - i - 2) // 2, i - 1, ZERO)
                    put((2 * n - i) // 2, i - 3, ZERO)
            else:
                if i != 2 * n - 4 and i != n:
                    put((2 * n - i - 2) // 2, 2 * (i - n) + 3, ZERO)
                    put((2 * n - i) // 2, 2 * (i - n) + 1, ZERO)
                elif i == n:
                    put((2 * n - i - 2) // 2, 3, ZERO)
                    put((2 * n - i) // 2, 1, ZERO)
                else:
                    put((2 * n - i - 2) // 2, i - 1, ZERO)
                    put((2 * n - i) // 2, i - 3, ZERO)

    # left pads: fill the high-order end of rows T_2..T_R
    top = (n - 2) // 2
    for i in range(1, top + 1):
        for j in range(1, 2 * i + 1):
            put(i + 1, 2 * n - 3 - 4 * i + j, ZERO, pad_phase=1)
    return g.finish()


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
