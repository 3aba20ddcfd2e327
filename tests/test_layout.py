"""Operand-grid layout: golden placements, pad counts, and the squaring identity."""

import hashlib

import pytest

from qsquare.layout import (
    InputCopy,
    PartialProduct,
    UnsupportedWidthError,
    ZERO,
    arrange,
    dump_grid,
    grid_value,
    partial_products,
    row_widths,
)

# the full 6-bit grid, cell for cell (rows T_0..T_3, low column first)
GOLDEN_6 = [
    "a1,a0a2,a2,a0a4,a3,a1a5,a4,a3a5,a5",
    "a0a1,0,a0a3,a1a3,a0a5,a2a4,a2a5,0,a4a5",
    "a1a2,0,a1a4,0,a3a4,0,0,0",
    "a2a3,0,0,0,0,0",
]

# the 5-bit grid, cell for cell (rows T_0..T_2, low column first)
GOLDEN_5 = [
    "a1,a0a2,a2,a0a4,a3,a2a4,a4",
    "a0a1,0,a0a3,a1a3,a1a4,0,a3a4",
    "a1a2,0,a2a3,0,0,0",
]


def test_partial_product_counts_n5():
    entries = partial_products(5)
    assert sum(isinstance(e, PartialProduct) for e in entries) == 10
    assert sum(isinstance(e, InputCopy) for e in entries) == 4


def test_partial_product_counts_n6():
    entries = partial_products(6)
    assert sum(isinstance(e, PartialProduct) for e in entries) == 15
    assert sum(isinstance(e, InputCopy) for e in entries) == 5
    assert entries[0] == PartialProduct(0, 1)
    assert entries[5] == InputCopy(1)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_width_at_most_four_rejected(n):
    with pytest.raises(UnsupportedWidthError):
        partial_products(n)
    with pytest.raises(UnsupportedWidthError):
        arrange(n)


def test_arrange_n6_matches_golden_grid():
    assert dump_grid(arrange(6)).splitlines() == GOLDEN_6


def test_arrange_n5_matches_golden_grid():
    assert dump_grid(arrange(5)).splitlines() == GOLDEN_5


# sha256 of dump_grid at two wide odd widths; the CLI tests pin the even
# n=64, and CI pins n=1023 and n=1024
@pytest.mark.parametrize("n, digest", [
    (63, "a72f69f64d4ab010ac465529d44e3c4e1678c0fedb60e2f8b726018bf6a0dfa5"),
    (127, "1dcf185c5c3b85684a0462c53d4b29c98c34b634b6033c54e5da409365b18c64"),
])
def test_arrange_odd_width_matches_pinned_digest(n, digest):
    assert hashlib.sha256(dump_grid(arrange(n)).encode()).hexdigest() == digest


def test_arrange_n6_named_cells():
    grid = arrange(6)
    assert grid.entry(1, 0) == PartialProduct(0, 1)   # a0a1 -> T(1,0)
    assert grid.entry(2, 0) == PartialProduct(1, 2)   # a1a2 -> T(2,0)
    assert grid.entry(3, 0) == PartialProduct(2, 3)   # a2a3 -> T(3,0)
    assert grid.entry(2, 5) == ZERO
    assert grid.entry(2, 6) == ZERO
    assert grid.entry(2, 7) == ZERO
    assert all(grid.entry(3, c) == ZERO for c in range(1, 6))


@pytest.mark.parametrize("n", [*range(5, 65), 127, 128])
def test_row_shape_and_term_multiset(n):
    grid = arrange(n)
    widths = row_widths(n)
    assert tuple(len(r) for r in grid.rows) == widths
    assert widths[0] == widths[1] == 2 * n - 3
    assert all(widths[k] == 2 * n - 2 * k for k in range(2, len(widths)))
    expected_rows = (n // 2 if n % 2 == 0 else (n - 1) // 2) + 1
    assert grid.row_count == expected_rows
    placed = [e for _, _, e in grid.cells() if e != ZERO]
    assert sorted(placed, key=repr) == sorted(partial_products(n), key=repr)


@pytest.mark.parametrize("n", range(5, 13))
def test_zero_pad_counts_match_closed_forms(n):
    grid = arrange(n)
    if n % 2 == 0:
        assert grid.interior_pads == (3 * n - 6) // 2
        assert grid.left_pads == (n * n - 2 * n) // 4
    else:
        assert grid.interior_pads == (3 * n - 7) // 2
        assert grid.left_pads == (n * n - 4 * n + 3) // 4


def test_terms_are_values_of_their_own_type():
    for term, plain, text in [(PartialProduct(1, 2), (1, 2), "a1a2"),
                              (InputCopy(1), (1,), "a1")]:
        same = type(term)(*plain)
        assert term == same and not term != same and hash(term) == hash(same)
        assert term != plain and plain != term
        assert not term == plain and not plain == term
        assert term.label() == text
        with pytest.raises(AttributeError):
            term.i = 0
    assert PartialProduct(1, 2) != InputCopy(1) and InputCopy(1) != ZERO
    assert repr(PartialProduct(1, 2)) == "PartialProduct(i=1, j=2)"
    assert repr(InputCopy(1)) == "InputCopy(i=1)"


def test_grid_value_trivial_inputs():
    grid = arrange(6)
    assert grid_value(grid, 0) == 0
    assert grid_value(grid, 1) == 1


def test_grid_value_all_ones_n6():
    # brute-force oracle over all 6-bit inputs pins the largest case
    assert grid_value(arrange(6), 63) == 3969


@pytest.mark.parametrize("n", range(5, 13))
def test_squaring_identity_exhaustive(n):
    grid = arrange(n)
    for a in range(1 << n):
        assert grid_value(grid, a) == a * a


def test_grid_value_rejects_out_of_range():
    with pytest.raises(ValueError):
        grid_value(arrange(5), 32)
