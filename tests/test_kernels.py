import hashlib
import tracemalloc

import numpy as np
import pytest

from memloc import kernels, pipeline
from memloc.kdtree import KdTree
from memloc.kernels import AddressModel
from memloc.traceio import KIND_READ
from reference_models import _gini
from test_oracles import KdTreeOracle


def page_transitions(vaddr):
    pages = np.asarray(vaddr) // 4096
    return int((np.diff(pages.astype(np.int64)) != 0).sum())


class TestAddressModel:
    def test_for_matrix_default_stride_packs_rows(self):
        assert AddressModel.for_matrix(3).row_stride_bytes == 24
        addr = AddressModel.for_matrix(3, 64, 8)
        assert (addr.row_stride_bytes, addr.row_bytes) == (64, 8)

    def test_row_lines_cover_row(self):
        addr = AddressModel(row_stride_bytes=160, row_bytes=160)
        lines = kernels.rows_to_lines([1], addr)
        # row 1 spans bytes [160, 320) -> lines 2, 3, 4
        assert (lines - addr.base).tolist() == [128, 192, 256]

    def test_a_matrix_past_byte_2_63_rejected(self):
        # Row 4 of a 2**62-byte stride would wrap in int64 onto row 0's line.
        with pytest.raises(ValueError, match=r"^the 5-row matrix ends past byte 2\*\*63$"):
            AddressModel.for_matrix(2, 2**62, 8, rows=5)
        base = AddressModel().base
        with pytest.raises(ValueError, match="ends past byte"):
            AddressModel(row_stride_bytes=2**63 - 7 - base, row_bytes=8, rows=2)
        last = AddressModel(row_stride_bytes=2**63 - 8 - base, row_bytes=8, rows=2)
        assert kernels.rows_to_lines([0, 1], last).tolist() == [base, 2**63 - 64]
        assert AddressModel(row_stride_bytes=2**62).row_stride_bytes == 2**62  # rows unknown

    def test_single_line_rows_allocate_only_their_lines(self):
        # One int64 array, updated in place: no temporaries beside it, and
        # the caller's int64 rows are left as they were.
        rows = np.random.default_rng(1).integers(0, 4_000_000, 1_000_000)
        before = rows.copy()
        addr = AddressModel(row_stride_bytes=64, row_bytes=8)
        tracemalloc.start()
        try:
            lines = kernels.rows_to_lines(rows, addr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * lines.nbytes
        assert np.array_equal(rows, before)
        assert np.array_equal(lines, ((addr.base + rows * 64) // 64 * 64).astype(np.uint64))

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
        trace, rows, _ = kernels.gen_knn_trace(data, np.array([[0.5] * 16]), 1, addr)
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
        _, rows, _ = kernels.gen_knn_trace(data, q, 3, AddressModel.for_matrix(2))
        half = len(rows) // 2
        assert rows[:half].tolist() == rows[half:].tolist()

    def test_finds_true_neighbors(self):
        # The walk's visits are the oracle's, and the oracle finds the 5
        # nearest rows.
        rng = np.random.default_rng(2)
        data = rng.random((300, 3))
        q = rng.random(3)
        seen: list = []
        found = KdTreeOracle(data).knn(q, 5, visit=seen.append)
        brute = np.argsort(((data - q) ** 2).sum(1), kind="stable")[:5]
        assert sorted(r for _, r in found) == sorted(brute.tolist())
        assert KdTree(data).walk(q[None], k=5)[0].tolist() == seen

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
        t_rand, _, _ = kernels.gen_knn_trace(data, q, 3, addr)
        perm = reorder.reorder_queries_zorder(q)
        t_z, _, _ = kernels.gen_knn_trace(data, q[perm], 3, addr)
        d_rand, _ = memsys.filter_to_dram(t_rand, cache)
        d_z, _ = memsys.filter_to_dram(t_z, cache)
        assert page_transitions(d_z.vaddr) < page_transitions(d_rand.vaddr)


class TestDbscan:
    def test_tiny_radius_limits_to_tree_paths(self):
        rng = np.random.default_rng(4)
        data = rng.random((100, 2))
        addr = AddressModel.for_matrix(2)
        t_small, rows_small, _ = kernels.gen_dbscan_trace(data, 1e-9, addr)
        t_big, rows_big, _ = kernels.gen_dbscan_trace(data, 10.0, addr)
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
        _, rows, _ = kernels.gen_dbscan_trace(data, np.inf, AddressModel.for_matrix(3))
        assert len(rows) == 30 * 30

    def test_separated_clusters_stay_separate(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.0, 0.4, (40, 2))
        b = rng.uniform(10.0, 10.4, (40, 2))
        data = np.vstack([a, b])
        oracle, seen = KdTreeOracle(data), []
        assert all(h < 40 for q in data[:40] for h in oracle.radius(q, 0.5, visit=seen.append))
        assert KdTree(data).walk(data[:40], r2=0.5 * 0.5)[0].tolist() == seen


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
    _, rows, _ = pipeline.build_kernel({"seed": 3, "kernel": kernel}).generate()
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == digest


# SHA-256 of the little-endian int64 dtree rows and starts, recorded with
# the recursive Python induction on uniform data with balanced labels,
# and of the rows each layout derives from them, recorded when
# pipeline._derive relabelled the rows through the inverse permutation
# and sorted each node's.
DTREE = {"kind": "dtree", "n": 600, "max_depth": 6}


@pytest.mark.parametrize("seed, m, rows_digest, starts_digest, derived", [
    (1, 2, "2c97f876c78a41938e28b948f9147102286ca709c152059d027a2ff703568089",
     "e47f4cde2e1b4ce81c8e564354521f0ecc4965c9b15797fcfa619dd7b3e865d5",
     {"hilbert": "4726db6520d68110d0b70b58fc6a38aa454851c4200c04efe276785f56617f57",
      "zorder": "e89ca6dcc57a801958244dd7342ac2412825fdf9c73e4b63e0a85b91bac53edf",
      "rcb": "cc0677b6809cf6580dc4b46d5ee02bee956601306e0448492ca879d5c5aa6038"}),
    (2, 4, "da17c56c1eec44afba2feb5044249913ae5542dc118d54016ec6b471694789ab",
     "6dc1ca8e28071b5899d62dfd83ed28bd99675366f4665c1405150aea5d14a930",
     {"hilbert": "3a42741ebfa0f44e12a41e0223829a42ca110cd1c20802403cc682002a5369b5",
      "zorder": "cb354fd695f7f0d5a494f2e6357129d9206bcc180d9cd672bc421d14f34fd548",
      "rcb": "1166d352546fced40a36fb20b34a4ad888ad540bb1e6871b4074ab93602ebc6b"}),
    (0, 8, "3ea95d68c4978227392425a4445c24a5554bd263d6f93fa58d265ae44c13d9b5",
     "4b1e50b161c03131ee46832051bc28eb0be585f82622d91d96f6b54ac32fe8aa",
     {"hilbert": "92e2ee42b83d73209af1197bbb95accf4a513bbd6895824fbdfa01af057f4bad",
      "zorder": "ce0a71a1b1948f8da00e0d257e530669ff64339a0b5782f80afb2a23e8564a45",
      "rcb": "7a873b423c95546937fa19e5687633dce3590930007eafb948a456523f6f9156"}),
], ids=["dtree-m2", "dtree-m4", "dtree-m8"])
def test_dtree_nodes_match_their_pinned_digests(seed, m, rows_digest, starts_digest, derived):
    ctx = pipeline.build_kernel({"seed": seed, "kernel": {**DTREE, "m": m}})
    _, rows, starts = ctx.generate()
    assert hashlib.sha256(rows.astype("<i8").tobytes()).hexdigest() == rows_digest
    assert hashlib.sha256(starts.astype("<i8").tobytes()).hexdigest() == starts_digest
    for variant, digest in derived.items():
        perm, _ = pipeline.reorder_by(variant, ctx.cfg, kind="dtree", points=ctx.data)
        layout = pipeline._derive("dtree", variant, perm, rows, starts)
        assert hashlib.sha256(layout.astype("<i8").tobytes()).hexdigest() == digest, variant


def test_visit_buffer_grows_to_every_visit():
    # 50 all-covering queries over 2000 rows: 100k visits, far past the
    # core's first buffer, every row once per query.
    rng = np.random.default_rng(9)
    rows, _ = KdTree(rng.random((2000, 3))).walk(rng.random((50, 3)), r2=3.0)
    assert len(rows) == 100_000
    assert (np.sort(rows.reshape(50, 2000), axis=1) == np.arange(2000)).all()


def test_a_walk_of_no_queries_is_empty():
    tree = KdTree(np.random.default_rng(4).random((50, 3)))
    for kw in ({"r2": 0.1}, {"k": 4}):
        rows, starts = tree.walk(np.empty((0, 3)), **kw)
        assert rows.shape == (0,) and starts.tolist() == [0]


@pytest.mark.parametrize("r2", [-1.0, np.nan])
def test_walk_rejects_a_negative_or_nan_r2(r2):
    tree = KdTree(np.random.default_rng(4).random((50, 3)))
    with pytest.raises(ValueError, match="r2 must be >= 0"):
        tree.walk(np.random.default_rng(5).random((3, 3)), r2=r2)
    assert len(tree.walk(np.zeros((3, 3)), r2=np.inf)[0]) == 3 * 50


@pytest.mark.parametrize("queries", [1, 50], ids=["fits", "grows"])
def test_walk_returns_arrays_that_own_their_data(queries):
    rng = np.random.default_rng(11)
    tree = KdTree(rng.random((2000, 3)))
    for kw in ({"r2": 3.0}, {"r2": 0.01}, {"k": 3}):
        rows, starts = tree.walk(rng.random((queries, 3)), **kw)
        assert rows.flags.owndata and rows.dtype == np.int64 and len(rows) == starts[-1]


def test_tree_holds_little_more_than_its_data():
    data = np.random.default_rng(10).random((100_000, 16))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tree = KdTree(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tree.order.shape == (100_000,)
    assert held <= 1.5 * data.nbytes


class TestDtree:
    @pytest.mark.parametrize("counts", [(1, 2), (1, 4), (1, 2, 6)])
    def test_gini_sums_left_to_right(self, counts):
        # A BLAS dot product (fused multiply-add on some hosts) rounds
        # these sums differently.
        labels = np.repeat(np.arange(len(counts)), counts)
        total = 0.0
        for c in counts:
            share = c / sum(counts)
            total += share * share
        assert _gini(labels) == 1.0 - total

    def test_depth_one_scans_once(self):
        rng = np.random.default_rng(6)
        data = rng.random((50, 3))
        labels = rng.integers(0, 2, 50)
        _, rows, _ = kernels.gen_dtree_trace(data, labels, 1, AddressModel.for_matrix(3))
        assert rows.tolist() == list(range(50))

    def test_pure_root_stops(self):
        data = np.random.default_rng(7).random((30, 2))
        _, rows, _ = kernels.gen_dtree_trace(data, np.zeros(30, int), 5,
                                          AddressModel.for_matrix(2))
        assert rows.tolist() == list(range(30))

    @pytest.mark.parametrize("labels", [np.zeros(29, int), np.zeros(31, int),
                                        np.zeros((30, 1), int), np.zeros((2, 15), int)],
                             ids=["short", "long", "column", "matrix"])
    def test_labels_must_be_one_per_row(self, labels):
        data = np.random.default_rng(8).random((30, 2))
        with pytest.raises(ValueError, match="^labels must be a 1-D array of 30 entries"):
            kernels.gen_dtree_trace(data, labels, 3, AddressModel.for_matrix(2))

    def test_depth_past_int64_grows_the_whole_tree(self):
        rng = np.random.default_rng(12)
        data, labels = rng.random((40, 3)), rng.integers(0, 3, 40)
        addr = AddressModel.for_matrix(3)
        _, rows, starts = kernels.gen_dtree_trace(data, labels, 40, addr)
        _, deep_rows, deep_starts = kernels.gen_dtree_trace(data, labels, 10**30, addr)
        assert len(starts) > 20
        assert deep_rows.tolist() == rows.tolist() and deep_starts.tolist() == starts.tolist()

    def test_children_partition_root(self):
        data = np.arange(8, dtype=float).reshape(8, 1)
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        _, rows, _ = kernels.gen_dtree_trace(data, labels, 2, AddressModel.for_matrix(1))
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
        _, rows_orig, _ = kernels.gen_knn_trace(data, q, 4, addr)
        perm = reorder.reorder_sfc(data, "hilbert", bits=8)
        _, rows_new, _ = kernels.gen_knn_trace(data[perm], q, 4, addr)
        # same multiset of logical (original) rows per run
        assert sorted(perm[rows_new].tolist()) == sorted(rows_orig.tolist())
