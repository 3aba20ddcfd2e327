"""Operand-grid layout: golden placements, pad counts, and the squaring identity."""

import collections
import hashlib
import random

import pytest

from qsquare.layout import UnsupportedWidthError, arrange, dump_grid, grid_value, row_widths

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


@pytest.mark.parametrize("n", [0, 1, 4])
def test_width_at_most_four_rejected(n):
    with pytest.raises(UnsupportedWidthError):
        arrange(n)
    with pytest.raises(UnsupportedWidthError):
        grid_value(n, 0)


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
    assert grid[1][0] == "a0a1"   # T(1,0)
    assert grid[2][0] == "a1a2"   # T(2,0)
    assert grid[3][0] == "a2a3"   # T(3,0)
    assert grid[2][5] == grid[2][6] == grid[2][7] == "0"
    assert all(grid[3][c] == "0" for c in range(1, 6))


@pytest.mark.parametrize("n", [*range(5, 65), 127, 128])
def test_row_shape_and_term_multiset(n):
    grid = arrange(n)
    widths = row_widths(n)
    assert type(grid) is tuple and all(type(row) is tuple for row in grid)
    assert tuple(len(r) for r in grid) == widths
    assert widths[0] == widths[1] == 2 * n - 3
    assert all(widths[k] == 2 * n - 2 * k for k in range(2, len(widths)))
    expected_rows = (n // 2 if n % 2 == 0 else (n - 1) // 2) + 1
    assert len(grid) == expected_rows
    # the n(n-1)/2 products and n-1 copies, each placed once
    terms = [f"a{i}a{j}" for i in range(n) for j in range(i + 1, n)]
    terms += [f"a{i}" for i in range(1, n)]
    placed = collections.Counter(label for row in grid for label in row if label != "0")
    assert placed == collections.Counter(terms) and len(terms) == (n + 2) * (n - 1) // 2


@pytest.mark.parametrize("n", range(5, 13))
def test_zero_pad_counts_match_closed_forms(n):
    grid = arrange(n)
    # the top 2(k-1) cells of each T_k (k >= 2) are all zero
    left = [label for k, row in enumerate(grid[2:], 2) for label in row[len(row) - 2 * (k - 1):]]
    assert set(left) == {"0"}
    interior = sum(row.count("0") for row in grid) - len(left)
    if n % 2 == 0:
        assert interior == (3 * n - 6) // 2
        assert len(left) == (n * n - 2 * n) // 4
    else:
        assert interior == (3 * n - 7) // 2
        assert len(left) == (n * n - 4 * n + 3) // 4


def test_grid_value_trivial_inputs():
    assert grid_value(6, 0) == 0
    assert grid_value(6, 1) == 1


def test_grid_value_all_ones_n6():
    # brute-force oracle over all 6-bit inputs pins the largest case
    assert grid_value(6, 63) == 3969


@pytest.mark.parametrize("n", range(5, 13))
def test_squaring_identity_exhaustive(n):
    for a in range(1 << n):
        assert grid_value(n, a) == a * a


@pytest.mark.parametrize("n", [64, 127, 128])
def test_squaring_identity_wide(n):
    rng = random.Random(n)
    for a in [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(16))]:
        assert grid_value(n, a) == a * a


def test_grid_value_rejects_out_of_range():
    # an input that is not an int in 0..2^n-1, a bool or a float included,
    # is refused by its repr; so is a width the grid does not have
    for a in (32, -1, True, 2.0):
        with pytest.raises(ValueError, match=f"got a={a!r}$"):
            grid_value(5, a)
    for n in (4, 5.0):
        with pytest.raises(UnsupportedWidthError):
            grid_value(n, 0)
