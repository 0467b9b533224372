import hashlib

import numpy as np
import pytest

from memloc import kernels, pipeline
from memloc.kernels import AddressModel
from memloc.traceio import KIND_READ


def page_transitions(vaddr):
    pages = np.asarray(vaddr) // 4096
    return int((np.diff(pages.astype(np.int64)) != 0).sum())


class TestAddressModel:
    def test_unaligned_base_rejected(self):
        with pytest.raises(ValueError):
            AddressModel(base=100)

    def test_line_aligned_base_off_a_page_rejected(self):
        # block_by_page counts pages from the matrix's first byte.
        with pytest.raises(ValueError, match="page-aligned"):
            AddressModel(base=0x1000_0040)

    def test_for_matrix_default_stride_packs_rows(self):
        assert AddressModel.for_matrix(3).row_stride_bytes == 24
        addr = AddressModel.for_matrix(3, 64, 8)
        assert (addr.row_stride_bytes, addr.row_bytes) == (64, 8)

    def test_row_lines_cover_row(self):
        addr = AddressModel(row_stride_bytes=160, row_bytes=160)
        lines = kernels.rows_to_lines([1], addr)
        # row 1 spans bytes [160, 320) -> lines 2, 3, 4
        assert (lines - addr.base).tolist() == [128, 192, 256]

    def test_addresses_line_aligned_and_in_range(self):
        addr = AddressModel(row_stride_bytes=24, row_bytes=24)
        rows = np.arange(100)
        lines = kernels.rows_to_lines(rows, addr)
        assert np.all(lines % 64 == 0)
        assert lines.min() >= addr.base
        assert lines.max() < addr.base + 100 * 24 + 64


class TestKnn:
    def test_single_row_touches_its_lines(self):
        data = np.array([[0.1] * 16])
        addr = AddressModel.for_matrix(16)  # 128-byte rows
        trace, rows = kernels.gen_knn_trace(data, np.array([[0.5] * 16]), 1, addr)
        assert rows.tolist() == [0]
        assert len(trace) == 2  # ceil(128 / 64)

    def test_k_too_large_rejected(self):
        data = np.random.default_rng(0).random((3, 2))
        with pytest.raises(ValueError):
            kernels.gen_knn_trace(data, data, 4, AddressModel.for_matrix(2))

    def test_k_below_one_rejected(self):
        data = np.random.default_rng(0).random((3, 2))
        with pytest.raises(ValueError, match="k must be"):
            kernels.gen_knn_trace(data, data, 0, AddressModel.for_matrix(2))

    @pytest.mark.parametrize("where", ["data", "queries"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, where, bad):
        inputs = {"data": np.random.default_rng(0).random((20, 2)),
                  "queries": np.random.default_rng(1).random((4, 2))}
        inputs[where][2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            kernels.gen_knn_trace(inputs["data"], inputs["queries"], 3, AddressModel.for_matrix(2))

    def test_duplicate_queries_repeat_subsequence(self):
        rng = np.random.default_rng(1)
        data = rng.random((200, 2))
        q = np.vstack([rng.random((1, 2))] * 2)
        _, rows = kernels.gen_knn_trace(data, q, 3, AddressModel.for_matrix(2))
        half = len(rows) // 2
        assert rows[:half].tolist() == rows[half:].tolist()

    def test_finds_true_neighbors(self):
        rng = np.random.default_rng(2)
        data = rng.random((300, 3))
        q = rng.random(3)
        from memloc.kdtree import KdTree
        found = [r for _, r in KdTree(data).knn(q, 5)]
        brute = np.argsort(((data - q) ** 2).sum(1), kind="stable")[:5]
        assert sorted(found) == sorted(brute.tolist())

    def test_zorder_queries_fewer_page_transitions(self):
        # Every query restarts at the tree root, so raw-trace transition
        # counts are order-invariant; the locality shows once the hot
        # tree top is cached, i.e. on the DRAM-reaching subsequence.
        from memloc import memsys, reorder
        rng = np.random.default_rng(3)
        data = kernels.make_clustered(5000, 2, 16, seed=3)
        q = data[rng.integers(0, 5000, 2000)]
        addr = AddressModel(row_stride_bytes=64, row_bytes=16)
        cache = memsys.CacheConfig(l3=memsys.LevelConfig(64 * 1024, 16))
        t_rand, _ = kernels.gen_knn_trace(data, q, 3, addr)
        perm = reorder.reorder_queries_zorder(q)
        t_z, _ = kernels.gen_knn_trace(data, q[perm], 3, addr)
        d_rand, _ = memsys.filter_to_dram(t_rand, cache)
        d_z, _ = memsys.filter_to_dram(t_z, cache)
        assert page_transitions(d_z.vaddr) < page_transitions(d_rand.vaddr)


class TestDbscan:
    def test_tiny_radius_limits_to_tree_paths(self):
        rng = np.random.default_rng(4)
        data = rng.random((100, 2))
        addr = AddressModel.for_matrix(2)
        t_small, rows_small = kernels.gen_dbscan_trace(data, 1e-9, addr)
        t_big, rows_big = kernels.gen_dbscan_trace(data, 10.0, addr)
        assert len(rows_small) < len(rows_big)
        # full-coverage radius examines every row for every query
        assert len(rows_big) == 100 * 100

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            kernels.gen_dbscan_trace(np.zeros((2, 2)), 0.0, AddressModel.for_matrix(2))

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            kernels.gen_dbscan_trace(np.zeros((2, 2)), np.nan, AddressModel.for_matrix(2))

    def test_infinite_radius_visits_every_row(self):
        data = np.random.default_rng(4).random((30, 3))
        _, rows = kernels.gen_dbscan_trace(data, np.inf, AddressModel.for_matrix(3))
        assert len(rows) == 30 * 30

    def test_separated_clusters_stay_separate(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 0.4, (40, 2))
        b = rng.uniform(10.0, 10.4, (40, 2))
        data = np.vstack([a, b])
        from memloc.kdtree import KdTree
        tree = KdTree(data)
        for i in range(40):
            hits = tree.radius(data[i], 0.5)
            assert all(h < 40 for h in hits)


# SHA-256 of the little-endian int64 visit sequence, recorded with the
# recursive kd-tree: the implicit tree must visit the same rows in the
# same order, at widths other than the golden pipeline's m = 2.
KNN = {"kind": "knn", "n": 600, "k": 5, "queries": 60, "clusters": 8}
DBSCAN = {"kind": "dbscan", "n": 300, "clusters": 6}


@pytest.mark.parametrize("kernel, digest", [
    ({**KNN, "m": 2}, "ea6777512997d81a100149e1e0242ba0a37c250c24f2db09ce6086ac3a8358e8"),
    ({**KNN, "m": 4}, "3c823888031ec31aff6a83425716db2bc5ba14f172f43799bfb33d1da440b823"),
    ({**KNN, "m": 16}, "4b3012663f0d157e764dd8f7596593e41ab762c12d594e4e1fce0fee067c3cf2"),
    ({**DBSCAN, "m": 2, "radius": 0.05}, "17893129db99614d695c5827cf7371fc55de0e8aa889fd8d7111ae5e5319375d"),
    ({**DBSCAN, "m": 4, "radius": 0.08}, "decebeb377cc7cb16079baac3f6cacee89a2fee83b592083c45c7f0356e4b945"),
    ({**DBSCAN, "m": 16, "radius": 0.15}, "92891f148752a14b4b5d672e54e527b3e890affaa20ff1e3f70bb79a245800b1"),
], ids=["knn-m2", "knn-m4", "knn-m16", "dbscan-m2", "dbscan-m4", "dbscan-m16"])
def test_visit_sequence_matches_its_pinned_digest(kernel, digest):
    _, rows = pipeline.build_kernel({"seed": 3, "kernel": kernel}).generate()
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest


class TestDtree:
    def test_depth_one_scans_once(self):
        rng = np.random.default_rng(6)
        data = rng.random((50, 3))
        labels = rng.integers(0, 2, 50)
        _, rows = kernels.gen_dtree_trace(data, labels, 1, AddressModel.for_matrix(3))
        assert rows.tolist() == list(range(50))

    def test_pure_root_stops(self):
        data = np.random.default_rng(7).random((30, 2))
        _, rows = kernels.gen_dtree_trace(data, np.zeros(30, int), 5,
                                          AddressModel.for_matrix(2))
        assert rows.tolist() == list(range(30))

    def test_children_partition_root(self):
        data = np.arange(8, dtype=float).reshape(8, 1)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        _, rows = kernels.gen_dtree_trace(data, labels, 2, AddressModel.for_matrix(1))
        root, rest = rows[:8], rows[8:]
        assert root.tolist() == list(range(8))
        assert sorted(rest.tolist()) == list(range(8))
        assert rest[:4].tolist() == [0, 1, 2, 3]
        assert rest[4:].tolist() == [4, 5, 6, 7]


class TestGather:
    def test_single_row_one_line(self):
        trace, _ = kernels.gen_gather_trace(1, 50, AddressModel(row_stride_bytes=64), 0)
        assert len(set(trace.vaddr.tolist())) == 1

    def test_deterministic(self):
        a, _ = kernels.gen_gather_trace(1000, 500, AddressModel(row_stride_bytes=64), 42)
        b, _ = kernels.gen_gather_trace(1000, 500, AddressModel(row_stride_bytes=64), 42)
        assert a == b

    def test_large_gather_mostly_page_jumps(self):
        trace, _ = kernels.gen_gather_trace(1 << 20, 100_000,
                                            AddressModel(row_stride_bytes=64), 9)
        assert page_transitions(trace.vaddr) / (len(trace) - 1) > 0.95

    def test_all_reads(self):
        trace, _ = kernels.gen_gather_trace(16, 100, AddressModel(row_stride_bytes=64), 0)
        assert np.all(trace.kind == KIND_READ)


class TestTranslate:
    """Virtual-to-physical page translation inside rows_to_trace."""

    ROWS = np.random.default_rng(2).integers(0, 4096, 2000)

    def shuffled(self, seed):
        return AddressModel(row_stride_bytes=64, page_mapping="shuffle", seed=seed, rows=4096)

    def test_identity_unchanged(self):
        addr = AddressModel(row_stride_bytes=64, rows=4096)
        trace = kernels.rows_to_trace(self.ROWS, addr)
        assert np.array_equal(trace.vaddr, kernels.rows_to_lines(self.ROWS, addr))

    def test_shuffle_preserves_offsets(self):
        addr = self.shuffled(5)
        out = kernels.rows_to_trace(self.ROWS, addr)
        assert np.array_equal(out.vaddr % 4096, kernels.rows_to_lines(self.ROWS, addr) % 4096)

    def test_shuffle_deterministic(self):
        addr = self.shuffled(5)
        assert kernels.rows_to_trace(self.ROWS, addr) == kernels.rows_to_trace(self.ROWS, addr)

    def test_shuffle_is_per_page_bijection(self):
        addr = self.shuffled(6)
        vpages = kernels.rows_to_lines(self.ROWS, addr) // 4096
        ppages = kernels.rows_to_trace(self.ROWS, addr).vaddr // 4096
        mapping = {}
        for v, p in zip(vpages.tolist(), ppages.tolist()):
            assert mapping.setdefault(v, p) == p
        assert len(set(mapping.values())) == len(mapping)

    @pytest.mark.parametrize("row", [-1, 100, 200])
    def test_shuffle_rejects_rows_outside_the_matrix(self, row):
        addr = AddressModel(row_stride_bytes=64, page_mapping="shuffle", seed=5, rows=100)
        with pytest.raises(ValueError, match="outside the 100-row matrix"):
            kernels.rows_to_trace([0, row], addr)

    def test_shuffle_needs_the_row_count(self):
        with pytest.raises(ValueError, match="shuffle page mapping needs"):
            AddressModel(row_stride_bytes=64, page_mapping="shuffle", seed=5)


class TestReorderingEquivalence:
    def test_layout_permutation_preserves_logical_rows(self):
        from memloc import reorder
        rng = np.random.default_rng(8)
        data = rng.random((500, 2))
        q = rng.random((30, 2))
        addr = AddressModel.for_matrix(2)
        _, rows_orig = kernels.gen_knn_trace(data, q, 4, addr)
        perm = reorder.reorder_sfc(data, "hilbert", bits=8)
        _, rows_new = kernels.gen_knn_trace(data[perm], q, 4, addr)
        # same multiset of logical (original) rows per run
        assert sorted(perm[rows_new].tolist()) == sorted(rows_orig.tolist())
