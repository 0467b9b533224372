import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloc import reorder
from memloc.sfc import QuantizerConfig, quantize_rows
from reference_models import (
    core_codes,
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


def cell(point, cfg):
    """quantize_rows of one point."""
    return tuple(quantize_rows(np.asarray(point, dtype=np.float64)[None], cfg)[0].tolist())


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
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_rejected(self, bad):
        cfg = QuantizerConfig(2, 4, (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="NaN or infinite"):
            quantize_rows(np.array([[0.5, 0.5], [bad, 0.5]]), cfg)

    def test_lower_bound_maps_to_zero(self):
        cfg = QuantizerConfig(3, 4, (0.0, -1.0, 5.0), (1.0, 1.0, 9.0))
        assert cell([0.0, -1.0, 5.0], cfg) == (0, 0, 0)

    def test_upper_bound_maps_to_top(self):
        cfg = QuantizerConfig(2, 4, (0.0, 0.0), (1.0, 2.0))
        assert cell([1.0, 2.0], cfg) == (15, 15)

    def test_half_rounds_up(self):
        cfg = QuantizerConfig(1, 3, (0.0,), (1.0,))
        # floor(0.5 * 7 + 0.5) = 4
        assert cell([0.5], cfg) == (4,)

    def test_degenerate_dimension(self):
        cfg = QuantizerConfig(2, 4, (0.0, 3.0), (1.0, 3.0))
        assert cell([0.7, 3.0], cfg)[1] == 0

    def test_dimension_mismatch(self):
        cfg = QuantizerConfig(2, 4)
        with pytest.raises(ValueError):
            cell([0.1], cfg)

    def test_clamped_outside_bounds(self):
        cfg = QuantizerConfig(1, 4, (0.0,), (1.0,))
        assert cell([2.5], cfg) == (15,)
        assert cell([-2.5], cfg) == (0,)

    def test_rows_matches_scalar(self):
        cfg = QuantizerConfig(3, 6, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        rng = np.random.default_rng(0)
        pts = rng.random((50, 3))
        rows = quantize_rows(pts, cfg)
        for p, r in zip(pts, rows):
            assert cell(p, cfg) == tuple(r)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=50)
    def test_componentwise_monotone(self, a, b):
        cfg = QuantizerConfig(1, 8, (0.0,), (1.0,))
        lo, hi = sorted([a, b])
        assert cell([lo], cfg) <= cell([hi], cfg)

    @given(st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=50), st.integers(1, 64))
    @settings(max_examples=200)
    def test_wide_grids_stay_in_range_and_monotone(self, values, bits):
        cfg = QuantizerConfig(1, bits, (0.0,), (1.0,))
        pts = np.sort(np.array(values))[:, None]
        grid = quantize_rows(pts, cfg)[:, 0]
        assert np.all(grid[1:] >= grid[:-1])
        assert [int(g) < 1 << bits for g in grid] == [True] * len(grid)
        if bits <= 53:  # exact float64 grid: plain round-half-up and clamp
            top = (1 << bits) - 1
            assert np.array_equal(grid, np.clip(np.floor(pts[:, 0] * top + 0.5), 0, top))

    def test_grid_wider_than_64_bits_rejected(self):
        with pytest.raises(ValueError, match="64-bit grid"):
            quantize_rows(np.zeros((1, 1)), QuantizerConfig(1, 65))


class TestMorton:
    def test_zero(self):
        assert core_codes([(0, 0, 0)], QuantizerConfig(3, 4), "zorder") == [0]

    def test_known_value(self):
        assert core_codes([(3, 5)], QuantizerConfig(2, 3), "zorder") == [39]

    def test_one_dimension_is_identity(self):
        xs = [0, 1, 17, 511]
        assert core_codes([(x,) for x in xs], QuantizerConfig(1, 9), "zorder") == xs

    def test_matches_reference_interleave(self):
        rng = random.Random(1)
        for d, b in [(2, 3), (3, 5), (4, 8), (7, 11)]:
            points = [tuple(rng.randrange(1 << b) for _ in range(d)) for _ in range(200)]
            assert core_codes(points, QuantizerConfig(d, b), "zorder") == [
                ref_morton(p, d, b) for p in points]

    def test_decode_known(self):
        assert core_walk(2, 3, "zorder")[39].tolist() == [3, 5]

    def test_roundtrip_random(self):
        rng = random.Random(2)
        cfg = QuantizerConfig(4, 10)
        codes = [rng.randrange(1 << 40) for _ in range(10_000)]
        assert core_codes([morton_decode_oracle(c, cfg) for c in codes], cfg, "zorder") == codes

    def test_top_bits_identify_orthant(self):
        # The most significant d-bit group is the orthant of the point.
        rng = random.Random(3)
        points = [tuple(rng.randrange(16) for _ in range(3)) for _ in range(300)]
        for p, code in zip(points, core_codes(points, QuantizerConfig(3, 4), "zorder")):
            assert code >> (3 * 3) == sum(((c >> 3) & 1) << j for j, c in enumerate(p))


# Every grid of at most 2^16 cells: small enough to walk whole.
SMALL_GRIDS = [(d, b) for d in range(1, 17) for b in range(1, 16 // d + 1)]


class TestHilbert:
    def test_origin(self):
        assert core_codes([(0, 0)], QuantizerConfig(2, 4), "hilbert") == [0]
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
        cfg = QuantizerConfig(d, b)
        walk = core_walk(d, b, "hilbert")
        assert (np.abs(np.diff(walk, axis=0)).sum(axis=1) == 1).all()
        assert sorted(core_codes(walk, cfg, "hilbert")) == list(range(1 << d * b))
        head = min(300, 1 << d * b)
        assert list(map(tuple, walk[:head].tolist())) == [
            hilbert_decode_oracle(idx, cfg) for idx in range(head)]

    def test_roundtrip_random(self):
        rng = random.Random(4)
        for d, b in [(1, 12), (2, 12), (4, 8), (8, 12)]:
            cfg = QuantizerConfig(d, b)
            codes = [rng.randrange(1 << (d * b)) for _ in range(2500)]
            assert core_codes([hilbert_decode_oracle(c, cfg) for c in codes], cfg,
                              "hilbert") == codes


class TestConfig:
    def test_bit_budget_cap(self):
        with pytest.raises(ValueError):
            QuantizerConfig(17, 8)

    def test_bad_bounds(self):
        inf, nan = float("inf"), float("nan")
        for lo, hi, match in [((1.0,), (0.0,), "hi must be >= lo"),
                              ((-inf,), (inf,), "finite"), ((0.0,), (inf,), "finite"),
                              ((nan,), (1.0,), "finite"), ((0.0, 0.0), (1.0, nan), "finite"),
                              ((-1e308,), (1e308,), "hi - lo must be finite"),
                              ((np.float64(-1e308),), (np.float64(1e308),), "hi - lo")]:
            with pytest.raises(ValueError, match=match):
                QuantizerConfig(len(lo), 4, lo, hi)

    def test_reorder_sfc_rejects_bounds_it_cannot_quantize(self):
        data = np.array([[-1e308], [1e308], [0.0], [5e307]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning on the way
            with pytest.raises(ValueError, match="hi - lo must be finite"):
                reorder.reorder_sfc(data, "hilbert")

    def test_bits_positive(self):
        with pytest.raises(ValueError):
            QuantizerConfig(2, 0)
