import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloc import _core, reorder
from reference_models import (
    Grid,
    core_codes,
    core_grid,
    core_walk,
    hilbert_decode_oracle,
    morton_decode_oracle,
)


def ref_morton(coords, d, b):
    """Independent bit-interleave oracle via string assembly."""
    bits = []
    for k in range(b):
        for j in range(d):
            bits.append((coords[j] >> k) & 1)
    return sum(bit << i for i, bit in enumerate(bits))


def ref_hilbert_2d(n, d):
    """Recursive 2-D Hilbert construction (rotate-and-flip), index -> (x, y)."""
    x = y = 0
    t = d
    s = 1
    while s < n:
        rx = 1 & (t // 2)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x, y = s - 1 - x, s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t //= 4
        s *= 2
    return x, y


class TestQuantize:
    """Each axis's grid runs from its min to its max over the rows."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            reorder.reorder_sfc(np.array([[0.5, 0.5], [bad, 0.5]]), "zorder", 4)

    def test_lower_bound_maps_to_zero(self):
        assert core_grid([[0.0, -1.0, 5.0], [1.0, 1.0, 9.0]], 4)[0].tolist() == [0, 0, 0]

    def test_upper_bound_maps_to_top(self):
        assert core_grid([[0.0, 0.0], [1.0, 2.0]], 4)[1].tolist() == [15, 15]

    def test_half_rounds_up(self):
        # floor(0.5 * 7 + 0.5) = 4
        assert core_grid([[0.0], [1.0], [0.5]], 3)[2].tolist() == [4]

    def test_degenerate_dimension(self):
        assert core_grid([[0.7, 3.0], [0.0, 3.0], [1.0, 3.0]], 4)[:, 1].tolist() == [0, 0, 0]

    def test_signed_zero_bound_moves_no_cell(self):
        rows = np.array([[0.0, 2.0], [-0.0, 1.0], [1.0, 0.0], [0.5, -0.0]])
        assert np.array_equal(core_grid(rows, 5), core_grid(np.abs(rows), 5))
        assert np.array_equal(core_grid(rows[::-1], 5), core_grid(rows, 5)[::-1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"non-empty \(n, m\) array"):
            reorder.reorder_sfc(np.array([0.1]), "zorder", 4)

    def test_rows_matches_scalar(self):
        # A row's cell depends on the rows only through the bounds.
        rng = np.random.default_rng(0)
        bounds = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        pts = rng.random((50, 3))
        rows = core_grid(np.vstack([bounds, pts]), 6)[2:]
        for p, r in zip(pts, rows):
            assert np.array_equal(core_grid(np.vstack([bounds, p]), 6)[2], r)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50)
    def test_componentwise_monotone(self, a, b):
        lo, hi = sorted([a, b])
        grid = core_grid([[0.0], [1.0], [lo], [hi]], 8)
        assert grid[2] <= grid[3]

    @given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=50), st.integers(1, 64))
    @settings(max_examples=200)
    def test_wide_grids_stay_in_range_and_monotone(self, values, bits):
        pts = np.sort(np.array(values))[:, None]
        grid = core_grid(pts, bits)[:, 0]
        assert np.all(grid[1:] >= grid[:-1])
        assert [int(g) < 1 << bits for g in grid] == [True] * len(grid)
        span = pts[-1, 0] - pts[0, 0]
        if bits <= 53 and span > 0:  # exact float64 grid: plain round-half-up and clamp
            top = (1 << bits) - 1
            cells = np.floor((pts[:, 0] - pts[0, 0]) / span * top + 0.5)
            assert np.array_equal(grid, np.clip(cells, 0, top))
            assert grid[0] == 0 and grid[-1] == top

    def test_grid_wider_than_64_bits_rejected(self):
        with pytest.raises(ValueError, match="64-bit grid"):
            reorder.reorder_sfc(np.zeros((1, 1)), "hilbert", 65)


class TestMorton:
    def test_zero(self):
        assert core_codes([(0, 0, 0)], Grid(3, 4), "zorder") == [0]

    def test_known_value(self):
        assert core_codes([(3, 5)], Grid(2, 3), "zorder") == [39]

    def test_one_dimension_is_identity(self):
        xs = [0, 1, 17, 511]
        assert core_codes([(x,) for x in xs], Grid(1, 9), "zorder") == xs

    def test_matches_reference_interleave(self):
        rng = random.Random(1)
        for d, b in [(2, 3), (3, 5), (4, 8), (7, 11)]:
            points = [tuple(rng.randrange(1 << b) for _ in range(d)) for _ in range(200)]
            assert core_codes(points, Grid(d, b), "zorder") == [
                ref_morton(p, d, b) for p in points]

    def test_decode_known(self):
        assert core_walk(2, 3, "zorder")[39].tolist() == [3, 5]

    def test_roundtrip_random(self):
        rng = random.Random(2)
        cfg = Grid(4, 10)
        codes = [rng.randrange(1 << 40) for _ in range(10_000)]
        assert core_codes([morton_decode_oracle(c, cfg) for c in codes], cfg, "zorder") == codes

    def test_top_bits_identify_orthant(self):
        # The most significant d-bit group is the orthant of the point.
        rng = random.Random(3)
        points = [tuple(rng.randrange(16) for _ in range(3)) for _ in range(300)]
        for p, code in zip(points, core_codes(points, Grid(3, 4), "zorder")):
            assert code >> (3 * 3) == sum(((c >> 3) & 1) << j for j, c in enumerate(p))


# Every grid of at most 2^16 cells: small enough to walk whole.
SMALL_GRIDS = [(d, b) for d in range(1, 17) for b in range(1, 16 // d + 1)]


class TestHilbert:
    def test_origin(self):
        assert core_codes([(0, 0)], Grid(2, 4), "hilbert") == [0]
        assert core_walk(3, 5, "hilbert")[0].tolist() == [0, 0, 0]

    def test_base_cell_order(self):
        assert core_walk(2, 1, "hilbert").tolist() == [[0, 0], [0, 1], [1, 1], [1, 0]]

    def test_matches_recursive_2d_oracle(self):
        for b in (1, 2, 3, 4):
            side = 1 << b
            assert core_walk(2, b, "hilbert").tolist() == [
                list(ref_hilbert_2d(side, idx)) for idx in range(side * side)]

    @pytest.mark.parametrize("d,b", SMALL_GRIDS, ids=[f"{d}-{b}" for d, b in SMALL_GRIDS])
    def test_adjacency_exhaustive(self, d, b):
        """The core's walk of the whole grid takes unit steps, its codes
        are a permutation of [0, 2^(d*b)), and its first cells are the
        bit-loop decoder's."""
        cfg = Grid(d, b)
        walk = core_walk(d, b, "hilbert")
        assert (np.abs(np.diff(walk, axis=0)).sum(axis=1) == 1).all()
        assert sorted(core_codes(walk, cfg, "hilbert")) == list(range(1 << d * b))
        head = min(300, 1 << d * b)
        assert list(map(tuple, walk[:head].tolist())) == [
            hilbert_decode_oracle(idx, cfg) for idx in range(head)]

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for d, b in [(1, 12), (2, 12), (4, 8), (8, 12)]:
            cfg = Grid(d, b)
            codes = [rng.randrange(1 << (d * b)) for _ in range(2500)]
            assert core_codes([hilbert_decode_oracle(c, cfg) for c in codes], cfg,
                              "hilbert") == codes


class TestConfig:
    def test_bit_budget_cap(self):
        with pytest.raises(ValueError, match="128-bit code budget"):
            reorder.reorder_sfc(np.zeros((2, 17)), "zorder", 8)

    def test_bad_bounds(self):
        # max - min overflows: the core writes no grid.
        data = np.array([[-1e308, 0.0], [1e308, 1.0]])
        grid = np.full(data.shape, 7, dtype=np.uint64)
        assert _core.load().memloc_quantize(*data.shape, data, 4, grid) == 1
        assert grid.tolist() == [[7, 7], [7, 7]]
        with pytest.raises(ValueError, match="hi - lo must be finite"):
            core_grid(data, 4)

    def test_reorder_sfc_rejects_bounds_it_cannot_quantize(self):
        data = np.array([[-1e308], [1e308], [0.0], [5e307]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(ValueError, match="hi - lo must be finite"):
                reorder.reorder_sfc(data, "hilbert")

    def test_bits_positive(self):
        with pytest.raises(ValueError, match="bits must be >= 1"):
            reorder.reorder_sfc(np.zeros((2, 2)), "zorder", 0)
