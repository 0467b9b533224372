import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloc import pipeline, reorder
from memloc.kdtree import KdTree
from memloc.sfc import QuantizerConfig, morton_encode, quantize_rows


def is_bijection(perm, n):
    return np.array_equal(np.sort(perm), np.arange(n))


class TestFirstTouch:
    def test_hand_traced(self):
        perm = reorder.reorder_first_touch([2, 0, 2, 1], 3)
        assert perm.tolist() == [2, 0, 1]

    def test_already_ordered(self):
        assert reorder.reorder_first_touch([0, 1, 2], 3).tolist() == [0, 1, 2]

    def test_empty_sequence_keeps_order(self):
        assert reorder.reorder_first_touch([], 3).tolist() == [0, 1, 2]

    def test_untouched_rows_appended_ascending(self):
        perm = reorder.reorder_first_touch([4, 1], 6)
        assert perm.tolist() == [4, 1, 0, 2, 3, 5]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reorder.reorder_first_touch([3], 3)

    def test_replay_is_monotone_in_first_occurrence(self):
        rng = np.random.default_rng(0)
        seq = rng.integers(0, 40, 300)
        perm = reorder.reorder_first_touch(seq, 40)
        inv = reorder.invert_permutation(perm)
        firsts = []
        seen = set()
        for i in seq:
            if i not in seen:
                seen.add(i)
                firsts.append(inv[i])
        assert firsts == sorted(firsts)


class TestRcb:
    def test_small_set_is_identity(self):
        data = np.random.default_rng(1).random((5, 3))
        assert reorder.reorder_rcb(data, 5).tolist() == [0, 1, 2, 3, 4]

    def test_1d_is_stable_sort(self):
        data = np.array([[5.0], [1.0], [4.0], [2.0]])
        assert reorder.reorder_rcb(data, 1).tolist() == [1, 3, 2, 0]

    def test_1d_random_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.random((97, 1))
        perm = reorder.reorder_rcb(data, 1)
        assert perm.tolist() == np.argsort(data[:, 0], kind="stable").tolist()

    def test_separated_clusters_split_cleanly(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 0.1, (50, 2))
        b = rng.normal(10.0, 0.1, (50, 2))
        data = np.vstack([a, b])[rng.permutation(100)]
        perm = reorder.reorder_rcb(data, 50)
        halves = {tuple(sorted(set(data[perm[:50], 0] > 5))),
                  tuple(sorted(set(data[perm[50:], 0] > 5)))}
        assert halves == {(False,), (True,)}

    def test_leaf_imbalance_at_most_one(self):
        rng = np.random.default_rng(4)
        data = rng.random((101, 3))
        perm = reorder.reorder_rcb(data, 8)
        assert is_bijection(perm, 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reorder.reorder_rcb(np.empty((0, 2)), 4)

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="dataset must be a non-empty"):
            reorder.reorder_rcb(np.empty((5, 0)), 1)

    def test_leaf_size_past_int64_is_identity(self):
        data = np.random.default_rng(5).random((9, 2))
        assert reorder.reorder_rcb(data, 10**30).tolist() == list(range(9))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        data = np.random.default_rng(4).random((6, 2))
        data[3, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            reorder.reorder_rcb(data, 1)


NOT_FEATURE_MATRICES = {
    "no-rows": np.empty((0, 2)), "no-columns": np.empty((5, 0)), "1-d": np.ones(5),
    "3-d": np.ones((2, 2, 2)), "nan": np.array([[0.1, np.nan]] * 3),
    "inf": np.array([[0.1, 0.2], [-np.inf, 0.3]]),
}
ONE_CHECK = r"^dataset must be a non-empty \(n, m\) array with no NaN or infinite values$"


@pytest.mark.parametrize("bad", NOT_FEATURE_MATRICES.values(), ids=NOT_FEATURE_MATRICES)
@pytest.mark.parametrize("build", [
    KdTree, lambda d: reorder.reorder_rcb(d, 1), lambda d: reorder.reorder_sfc(d, "hilbert"),
    lambda d: reorder.reorder_sfc(d, "zorder"), reorder.reorder_queries_zorder,
], ids=["kdtree", "rcb", "hilbert", "zorder", "query-zorder"])
def test_every_feature_matrix_meets_one_check(build, bad):
    with pytest.raises(ValueError, match=ONE_CHECK):
        build(bad)


@pytest.mark.parametrize("method", ["rcb", "hilbert", "zorder", "zorder-comp"])
def test_reorder_by_reports_the_check_at_reorder(method):
    with pytest.raises(pipeline.PipelineError, match="^reorder: " + ONE_CHECK[1:]):
        pipeline.reorder_by(method, pipeline.resolve_config({}), points=np.empty((5, 0)))


class TestSfcReorder:
    def test_identical_rows_identity(self):
        data = np.ones((7, 2))
        for curve in ("hilbert", "zorder"):
            assert reorder.reorder_sfc(data, curve).tolist() == list(range(7))

    def test_1d_is_value_sort(self):
        rng = np.random.default_rng(5)
        data = rng.random((40, 1))
        order = np.argsort(data[:, 0], kind="stable").tolist()
        for curve in ("hilbert", "zorder"):
            assert reorder.reorder_sfc(data, curve, bits=12).tolist() == order

    @pytest.mark.parametrize("bits", [54, 60, 64])
    def test_1d_is_value_sort_on_wide_grids(self, bits):
        rng = np.random.default_rng(5)
        data = rng.random((40, 1))
        order = np.argsort(data[:, 0], kind="stable").tolist()
        for curve in ("hilbert", "zorder"):
            assert reorder.reorder_sfc(data, curve, bits=bits).tolist() == order

    def test_grid_wider_than_64_bits_rejected(self):
        data = np.random.default_rng(5).random((40, 1))
        for bits in (65, 100):
            with pytest.raises(ValueError, match="64-bit grid"):
                reorder.reorder_sfc(data, "hilbert", bits=bits)

    def test_hilbert_unit_square_order(self):
        data = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        perm = reorder.reorder_sfc(data, "hilbert", bits=1)
        # Hilbert d=2 b=1 visits (0,0),(0,1),(1,1),(1,0)
        assert perm.tolist() == [0, 2, 3, 1]

    def test_zorder_matches_sort_by_key_oracle(self):
        rng = np.random.default_rng(6)
        data = rng.random((120, 3))
        bits = 6
        cfg = QuantizerConfig(3, bits, tuple(data.min(0)), tuple(data.max(0)))
        codes = [morton_encode(g, cfg) for g in quantize_rows(data, cfg).tolist()]
        oracle = sorted(range(120), key=codes.__getitem__)
        assert reorder.reorder_sfc(data, "zorder", bits).tolist() == oracle

    def test_bit_budget_rejected(self):
        data = np.random.default_rng(7).random((4, 20))
        with pytest.raises(ValueError):
            reorder.reorder_sfc(data, "zorder", bits=10)

    @pytest.mark.parametrize("curve", ["hilbert", "zorder"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, curve, bad):
        # A NaN used to make that axis's bounds NaN, and the axis was then
        # silently ignored: the rows came back in the other axis's order.
        data = np.array([[0.1, 0.4], [0.2, 0.3], [0.5, 0.9], [0.7, 0.1]])
        data[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            reorder.reorder_sfc(data, curve)

    @pytest.mark.parametrize("curve", ["hilbert", "zorder"])
    def test_empty_rejected(self, curve):
        with pytest.raises(ValueError, match="^dataset must be a non-empty"):
            reorder.reorder_sfc(np.empty((0, 2)), curve)


class TestQueryZorder:
    def test_single_query_identity(self):
        assert reorder.reorder_queries_zorder(np.array([[0.3, 0.4]])).tolist() == [0]

    def test_sorted_input_identity(self):
        rng = np.random.default_rng(8)
        q = rng.random((60, 2))
        perm = reorder.reorder_queries_zorder(q, bits=8)
        again = reorder.reorder_queries_zorder(q[perm], bits=8)
        assert again.tolist() == list(range(60))

    def test_non_finite_queries_rejected(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            reorder.reorder_queries_zorder(np.array([[0.3, 0.4], [np.nan, 0.1]]))

    def test_reduces_mean_consecutive_distance(self):
        rng = np.random.default_rng(9)
        q = rng.random((500, 2))
        perm = reorder.reorder_queries_zorder(q, bits=10)
        def mean_step(pts):
            return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).mean())
        assert mean_step(q[perm]) < mean_step(q)


class TestBlockByPage:
    def test_window_one_is_identity(self):
        seq = [5, 1, 9, 1]
        assert reorder.block_by_page(seq, 64, window=1).tolist() == seq

    def test_hand_grouped(self):
        out = reorder.block_by_page([0, 100, 1, 101], 64, window=4)
        assert out.tolist() == [0, 1, 100, 101]

    def test_page_sorted_input_unchanged(self):
        seq = [0, 1, 2, 64, 65, 128]
        assert reorder.block_by_page(seq, 64, window=6).tolist() == seq

    def test_multiset_preserved(self):
        rng = np.random.default_rng(10)
        seq = rng.integers(0, 500, 1000)
        out = reorder.block_by_page(seq, 64, window=128)
        assert sorted(out.tolist()) == sorted(seq.tolist())

    def test_rows_past_byte_2_63_rejected(self):
        # 2**58 * 64 wraps to 0 in int64, which put row 1 in row 2**58's group.
        outside = r"rows start at bytes 64 to \d+, outside \[-2\*\*63, 2\*\*63\)"
        with pytest.raises(ValueError, match=outside):
            reorder.block_by_page([2**58, 2**58 + 64, 1, 2**58 + 1], 64, 4)
        with pytest.raises(ValueError, match="outside"):
            reorder.block_by_page([0, -(2**57) - 1], 64, 4)
        last = 2**63 // 64 - 1  # the last row that starts below byte 2**63
        assert reorder.block_by_page([last, 0, last], 64, 4).tolist() == [last, last, 0]
        with pytest.raises(ValueError, match="outside"):
            reorder.block_by_page([last + 1], 64, 4)
        with pytest.raises(ValueError, match="row_stride_bytes must be >= 1 and below 2"):
            reorder.block_by_page([0, 0], 2**70, 4)  # numpy would raise OverflowError

    def test_never_more_page_transitions(self):
        rng = np.random.default_rng(11)
        seq = rng.integers(0, 300, 400)
        out = reorder.block_by_page(seq, 64, window=100)
        def transitions(s):
            pages = (np.asarray(s) * 64) // 4096
            return int((np.diff(pages) != 0).sum())
        assert transitions(out) <= transitions(seq)


class TestApplyPermutation:
    def test_identity(self):
        data = np.random.default_rng(12).random((6, 2))
        assert np.array_equal(reorder.apply_permutation(data, np.arange(6)), data)

    def test_roundtrip_through_inverse(self):
        rng = np.random.default_rng(13)
        data = rng.random((30, 4))
        perm = rng.permutation(30)
        out = reorder.apply_permutation(data, perm)
        back = reorder.apply_permutation(out, reorder.invert_permutation(perm))
        assert np.array_equal(back, data)

    def test_reversal(self):
        data = np.arange(6, dtype=float).reshape(3, 2)
        out = reorder.apply_permutation(data, np.array([2, 1, 0]))
        assert np.array_equal(out, data[::-1])

    def test_length_mismatch_rejected(self):
        data = np.zeros((3, 2))
        with pytest.raises(ValueError):
            reorder.apply_permutation(data, np.array([0, 1]))

    def test_non_bijection_rejected(self):
        data = np.zeros((3, 2))
        with pytest.raises(ValueError):
            reorder.apply_permutation(data, np.array([0, 0, 2]))


@given(st.lists(st.integers(0, 30), max_size=200), st.integers(1, 64))
@settings(max_examples=60)
def test_block_by_page_multiset_property(seq, window):
    out = reorder.block_by_page(seq, 128, window=window)
    assert sorted(out.tolist()) == sorted(seq)


def test_block_by_page_allocates_only_its_output():
    # 1M gather rows: the core computes each row's page, so no product or
    # page array is made beside the output, and the caller's rows are
    # left as they were.
    seq = np.random.default_rng(16).integers(0, 4_000_000, 1_000_000)
    before = seq.copy()
    tracemalloc.start()
    try:
        out = reorder.block_by_page(seq, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * out.nbytes
    assert np.array_equal(seq, before)
    assert np.array_equal(np.sort(out), np.sort(seq))


@given(st.lists(st.integers(0, 19), max_size=100))
@settings(max_examples=60)
def test_first_touch_always_bijection(seq):
    perm = reorder.reorder_first_touch(seq, 20)
    assert is_bijection(perm, 20)


def test_permutation_csv_roundtrip(tmp_path):
    perm = np.random.default_rng(14).permutation(50)
    path = tmp_path / "perm.csv"
    reorder.save_permutation(path, perm)
    assert np.array_equal(reorder.load_permutation(path), perm)


def test_dataset_file_roundtrip(tmp_path):
    data = np.random.default_rng(15).random((17, 3))
    path = tmp_path / "d.bin"
    reorder.save_dataset(path, data)
    assert np.array_equal(reorder.load_dataset(path), data)
