"""Differential tests: the vectorised glue against the loops it replaced.

Each oracle below is the straightforward per-element loop that the
production function used to be.  Hypothesis draws inputs, and the two
must agree exactly.  The compiled simulator core is checked the same way
against the Python loops in reference_models.
"""

import csv
import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloc import dramsim, kernels, memsys, reorder, sfc
from memloc.kdtree import KdTree
from memloc.sfc import QuantizerConfig, quantize_rows
from memloc.traceio import KIND_PREFETCH, LINE_SHIFT, LINE_SIZE, PAGE_SIZE, Trace
from reference_models import _filter_reference, _simulate_reference


def first_touch_oracle(inspected, n):
    inspected = np.asarray(inspected, dtype=np.int64).ravel()
    seen = np.zeros(n, dtype=bool)
    order = []
    for i in inspected:
        if not seen[i]:
            seen[i] = True
            order.append(i)
    rest = np.flatnonzero(~seen)
    return np.concatenate([np.asarray(order, dtype=np.int64), rest]) if order else np.arange(n)


def block_by_page_oracle(seq, row_stride_bytes, window):
    seq = np.asarray(seq, dtype=np.int64).ravel()
    pages = (seq * row_stride_bytes) // PAGE_SIZE
    out = np.empty_like(seq)
    pos = 0
    for start in range(0, len(seq), window):
        groups: dict = {}
        for i, pg in zip(seq[start:start + window], pages[start:start + window]):
            groups.setdefault(int(pg), []).append(i)
        for grp in groups.values():
            out[pos:pos + len(grp)] = grp
            pos += len(grp)
    return out


def rows_to_lines_oracle(rows, addr):
    out = []
    for r in rows:
        start = addr.base + r * addr.row_stride_bytes
        line = start // LINE_SIZE * LINE_SIZE
        while line < start + addr.row_bytes:
            out.append(line)
            line += LINE_SIZE
    return out


def inject_oracle(trace, distance):
    demand_idx = np.flatnonzero(trace.kind != KIND_PREFETCH)
    stream = trace.vaddr[demand_idx]
    if distance >= len(stream):
        return Trace(trace.vaddr.copy(), trace.cycle.copy(), trace.kind.copy())
    vaddr, cycle, kind = [], [], []
    pos = 0
    for j, i in enumerate(demand_idx):
        while pos < i:
            vaddr.append(trace.vaddr[pos]); cycle.append(trace.cycle[pos]); kind.append(trace.kind[pos])
            pos += 1
        if j + distance < len(stream):
            vaddr.append(stream[j + distance]); cycle.append(trace.cycle[i]); kind.append(KIND_PREFETCH)
        vaddr.append(trace.vaddr[i]); cycle.append(trace.cycle[i]); kind.append(trace.kind[i])
        pos = i + 1
    while pos < len(trace):
        vaddr.append(trace.vaddr[pos]); cycle.append(trace.cycle[pos]); kind.append(trace.kind[pos])
        pos += 1
    return Trace(np.asarray(vaddr, np.uint64), np.asarray(cycle, np.uint32),
                 np.asarray(kind, np.uint8))


def save_permutation_oracle(path, perm):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["new_position", "old_index"])
        for new, old in enumerate(np.asarray(perm, dtype=np.int64)):
            w.writerow([new, int(old)])


def load_permutation_oracle(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    body = rows[1:] if rows and rows[0] and not rows[0][0].isdigit() else rows
    perm = np.full(len(body), -1, dtype=np.int64)
    for new, old in body:
        perm[int(new)] = int(old)
    return reorder.check_permutation(perm, len(body))


# The scalar SFC codecs as one bit loop per function and curve.

def _check_coords(coords, cfg: QuantizerConfig):
    if len(coords) != cfg.dims:
        raise ValueError(f"expected {cfg.dims} coordinates, got {len(coords)}")
    side = cfg.grid_side
    for c in coords:
        if not 0 <= c < side:
            raise ValueError(f"coordinate {c} outside [0, {side})")


def _check_code(code: int, cfg: QuantizerConfig):
    if not 0 <= code < (1 << cfg.code_bits):
        raise ValueError(f"code {code} outside [0, 2^{cfg.code_bits})")


def morton_encode_oracle(coords, cfg: QuantizerConfig) -> int:
    """Bit-interleave grid coordinates; dim 0 is the LSB of each group."""
    _check_coords(coords, cfg)
    d, b = cfg.dims, cfg.bits
    code = 0
    for j, c in enumerate(coords):
        c = int(c)
        for k in range(b):
            if (c >> k) & 1:
                code |= 1 << (k * d + j)
    return code


def morton_decode_oracle(code: int, cfg: QuantizerConfig):
    """Inverse of :func:`morton_encode_oracle`."""
    _check_code(code, cfg)
    d, b = cfg.dims, cfg.bits
    coords = [0] * d
    for k in range(b):
        for j in range(d):
            if (code >> (k * d + j)) & 1:
                coords[j] |= 1 << k
    return tuple(coords)


def _axes_to_transpose(x: list, bits: int) -> list:
    # Gray-code transpose form (Skilling-style), in place.
    n = len(x)
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list, bits: int) -> list:
    n = len(x)
    top = 2 << (bits - 1)
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def hilbert_encode_oracle(coords, cfg: QuantizerConfig) -> int:
    """Hilbert index of a grid point (canonical orientation).

    For d=2, b=1 the cell order is (0,0), (0,1), (1,1), (1,0).
    """
    _check_coords(coords, cfg)
    d, b = cfg.dims, cfg.bits
    x = _axes_to_transpose([int(c) for c in coords], b)
    # Interleave transpose bits, axis 0 most significant within each group.
    code = 0
    for k in range(b - 1, -1, -1):
        for i in range(d):
            code = (code << 1) | ((x[i] >> k) & 1)
    return code


def hilbert_decode_oracle(code: int, cfg: QuantizerConfig):
    """Inverse of :func:`hilbert_encode_oracle`."""
    _check_code(code, cfg)
    d, b = cfg.dims, cfg.bits
    x = [0] * d
    pos = d * b
    for k in range(b - 1, -1, -1):
        for i in range(d):
            pos -= 1
            if (code >> pos) & 1:
                x[i] |= 1 << k
    return tuple(_transpose_to_axes(x, b))


def reorder_sfc_oracle(data, curve, bits):
    """Stable sort of rows by a Python-int code per row, with a key function."""
    data = np.asarray(data, dtype=np.float64)
    cfg = QuantizerConfig(data.shape[1], bits, tuple(data.min(axis=0)), tuple(data.max(axis=0)))
    encode = morton_encode_oracle if curve == "zorder" else hilbert_encode_oracle
    codes = [encode(row, cfg) for row in quantize_rows(data, cfg).tolist()]
    return np.asarray(sorted(range(len(codes)), key=codes.__getitem__), dtype=np.int64)


class KdTreeOracle:
    """The recursive kd-tree the implicit one replaced: one stable argsort
    and one Python call per node into four node arrays, and the kNN and
    radius walks written out separately.  Its d2 is the production tree's
    left-to-right sum, so the comparison does not depend on the BLAS."""

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        n, self.m = self.data.shape
        self.row = np.empty(n, dtype=np.int64)
        self.axis = np.empty(n, dtype=np.int64)
        self.left = np.full(n, -1, dtype=np.int64)
        self.right = np.full(n, -1, dtype=np.int64)
        self._count = 0
        self.root = self._build(np.arange(n, dtype=np.int64), 0)

    def _build(self, idx, depth):
        if len(idx) == 0:
            return -1
        axis = depth % self.m
        idx = idx[np.argsort(self.data[idx, axis], kind="stable")]
        mid = len(idx) // 2
        node = self._count
        self._count += 1
        self.row[node] = idx[mid]
        self.axis[node] = axis
        self.left[node] = self._build(idx[:mid], depth + 1)
        self.right[node] = self._build(idx[mid + 1:], depth + 1)
        return node

    def in_order(self, node=None):
        node = self.root if node is None else node
        if node < 0:
            return []
        return self.in_order(self.left[node]) + [int(self.row[node])] + self.in_order(self.right[node])

    def _d2(self, r, q):
        d2 = 0.0
        for a, b in zip(self.data[r].tolist(), q.tolist()):
            d2 += (a - b) * (a - b)
        return d2

    def knn(self, query, k, visit):
        heap: list = []  # (-dist2, row)
        stack = [(self.root, False, 0.0)]
        q = np.asarray(query, dtype=np.float64)
        while stack:
            node, is_far, plane2 = stack.pop()
            if node < 0:
                continue
            if is_far and len(heap) == k and plane2 >= -heap[0][0]:
                continue
            r = self.row[node]
            visit(r)
            d2 = self._d2(r, q)
            if len(heap) < k:
                heapq.heappush(heap, (-d2, int(r)))
            elif d2 < -heap[0][0]:
                heapq.heapreplace(heap, (-d2, int(r)))
            ax = self.axis[node]
            delta = q[ax] - self.data[r, ax]
            near, far = ((self.left[node], self.right[node]) if delta < 0
                         else (self.right[node], self.left[node]))
            stack.append((far, True, delta * delta))
            stack.append((near, False, 0.0))
        return sorted((-d, r) for d, r in heap)

    def radius(self, query, radius, visit):
        r2 = radius * radius
        out = []
        stack = [self.root]
        q = np.asarray(query, dtype=np.float64)
        while stack:
            node = stack.pop()
            if node < 0:
                continue
            r = self.row[node]
            visit(r)
            if self._d2(r, q) <= r2:
                out.append(int(r))
            ax = self.axis[node]
            delta = q[ax] - self.data[r, ax]
            near, far = ((self.left[node], self.right[node]) if delta < 0
                         else (self.right[node], self.left[node]))
            if delta * delta <= r2:
                stack.append(far)
            stack.append(near)
        return out


@st.composite
def row_sequences(draw):
    n = draw(st.integers(1, 300))
    seq = draw(st.lists(st.integers(0, n - 1), max_size=400))
    return seq, n


@settings(max_examples=200, deadline=None)
@given(row_sequences())
def test_first_touch_matches_loop(case):
    seq, n = case
    new = reorder.reorder_first_touch(seq, n)
    assert new.dtype == np.int64
    assert np.array_equal(new, first_touch_oracle(seq, n))


@settings(max_examples=200, deadline=None)
@given(row_sequences(), st.sampled_from([8, 16, 64, 200]),
       st.sampled_from([1, 16]), st.integers(1, 64))
def test_block_by_page_matches_loop(case, stride, scale, window):
    # scale 16 groups rows as 256-byte pages would at the unscaled stride.
    seq, _ = case
    new = reorder.block_by_page(seq, stride * scale, window)
    assert new.dtype == np.int64
    assert np.array_equal(new, block_by_page_oracle(seq, stride * scale, window))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 5000), max_size=50),
       st.sampled_from([1, 8, 12, 16, 24, 64, 72, 100, 128, 200]),
       st.sampled_from([1, 8, 16, 24, 64, 65, 128, 200]))
def test_rows_to_lines_matches_loop(rows, stride, row_bytes):
    addr = kernels.AddressModel(row_stride_bytes=stride, row_bytes=row_bytes)
    new = kernels.rows_to_lines(rows, addr)
    assert new.dtype == np.uint64
    assert new.tolist() == rows_to_lines_oracle(rows, addr)


@st.composite
def traces(draw):
    n = draw(st.integers(0, 200))
    vaddr = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
    kind = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return Trace(np.array(vaddr, np.uint64), np.cumsum(gaps, dtype=np.int64), np.array(kind, np.uint8))


@settings(max_examples=200, deadline=None)
@given(traces(), st.integers(1, 40))
def test_inject_sw_prefetch_matches_loop(trace, distance):
    assert memsys.inject_sw_prefetch(trace, distance) == inject_oracle(trace, distance)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 120), seed=st.integers(0, 2**31))
def test_permutation_csv_matches_csv_module(tmp_path_factory, n, seed):
    d = tmp_path_factory.mktemp("perm")
    perm = np.random.default_rng(seed).permutation(n)
    reorder.save_permutation(d / "new.csv", perm)
    save_permutation_oracle(d / "old.csv", perm)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()
    assert np.array_equal(reorder.load_permutation(d / "old.csv"), perm)
    assert np.array_equal(load_permutation_oracle(d / "new.csv"), perm)


def test_load_permutation_without_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("0,2\r\n1,0\r\n2,1\r\n")
    assert reorder.load_permutation(path).tolist() == [2, 0, 1]
    assert load_permutation_oracle(path).tolist() == [2, 0, 1]


@st.composite
def grids(draw):
    """(dims, bits) with bits <= 64 per axis and a code of at most 128 bits."""
    d = draw(st.integers(1, 128))
    return d, draw(st.integers(1, min(64, 128 // d)))


@settings(max_examples=300, deadline=None)
@given(grids(), st.data())
def test_sfc_codecs_match_bit_loops(grid, data):
    d, b = grid
    cfg = QuantizerConfig(d, b)
    p = tuple(data.draw(st.lists(st.integers(0, (1 << b) - 1), min_size=d, max_size=d)))
    code = data.draw(st.integers(0, (1 << d * b) - 1))
    assert sfc.morton_encode(p, cfg) == morton_encode_oracle(p, cfg)
    assert sfc.hilbert_encode(p, cfg) == hilbert_encode_oracle(p, cfg)
    assert sfc.morton_decode(code, cfg) == morton_decode_oracle(code, cfg)
    assert sfc.hilbert_decode(code, cfg) == hilbert_decode_oracle(code, cfg)


@pytest.mark.parametrize("d, b", [(1, 128), (2, 64), (1, 64), (128, 1), (3, 42)])
def test_sfc_codecs_match_bit_loops_at_full_width(d, b):
    cfg = QuantizerConfig(d, b)
    rng = random.Random(d * 1000 + b)
    for _ in range(50):
        p = tuple(rng.randrange(1 << b) for _ in range(d))
        code = rng.randrange(1 << d * b)
        assert sfc.morton_encode(p, cfg) == morton_encode_oracle(p, cfg)
        assert sfc.hilbert_encode(p, cfg) == hilbert_encode_oracle(p, cfg)
        assert sfc.morton_decode(code, cfg) == morton_decode_oracle(code, cfg)
        assert sfc.hilbert_decode(code, cfg) == hilbert_decode_oracle(code, cfg)


@settings(max_examples=100, deadline=None)
@given(grids(), st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from(["hilbert", "zorder"]))
def test_column_codec_matches_bit_loops(grid, n, seed, curve):
    d, b = grid
    cfg = QuantizerConfig(d, b)
    cols = np.random.default_rng(seed).integers(0, 1 << b, (d, n), dtype=np.uint64)
    words = sfc.encode(list(cols), b, curve)
    oracle = morton_encode_oracle if curve == "zorder" else hilbert_encode_oracle
    for r in range(n):
        code = sum(int(w[r]) << 64 * i for i, w in enumerate(words))
        assert code == oracle(tuple(int(c) for c in cols[:, r]), cfg)
    assert np.array_equal(np.array(sfc.decode(words, d, b, curve)), cols)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 64), st.integers(1, 120),
       st.integers(0, 2**32 - 1), st.sampled_from([None, 0, 1, 2]), st.sampled_from(["hilbert", "zorder"]))
def test_reorder_sfc_matches_key_sort(d, bits, n, seed, decimals, curve):
    bits = min(bits, 128 // d)
    data = np.random.default_rng(seed).normal(0, 3, (n, d))
    if decimals is not None:
        data = data.round(decimals)  # coarse values: ties and degenerate axes
    perm = reorder.reorder_sfc(data, curve, bits)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, reorder_sfc_oracle(data, curve, bits))


@st.composite
def kd_cases(draw):
    """Points on a coarse grid (duplicates, ties on a coordinate) or a
    fine one, and queries that are data rows or grid points."""
    n, m = draw(st.integers(1, 64)), draw(st.integers(1, 16))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(0, levels, (n, m)) / levels
    if draw(st.booleans()):
        data[:, rng.integers(m)] = 0.5  # one coordinate tied everywhere
    queries = np.vstack([data[rng.integers(0, n, 3)], rng.integers(0, levels + 1, (3, m)) / levels])
    return data, queries


def _walks(tree, query, method, arg):
    seen: list = []
    found = getattr(tree, method)(query, arg, visit=seen.append)
    return [int(r) for r in seen], found


@settings(max_examples=300, deadline=None)
@given(kd_cases(), st.data())
def test_kdtree_knn_matches_recursive_tree(case, pick):
    data, queries = case
    n = len(data)
    k = pick.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    tree, oracle = KdTree(data), KdTreeOracle(data)
    assert tree.order.tolist() == oracle.in_order()
    for q in queries:
        assert _walks(tree, q, "knn", k) == _walks(oracle, q, "knn", k)


@settings(max_examples=300, deadline=None)
@given(kd_cases(), st.data())
def test_kdtree_radius_matches_recursive_tree(case, pick):
    data, queries = case
    m = data.shape[1]
    tree, oracle = KdTree(data), KdTreeOracle(data)
    radius = pick.draw(st.sampled_from([0.0, 0.1, 0.5, 2.0 * m ** 0.5, float("inf")]))
    for q in queries:
        got = _walks(tree, q, "radius", radius)
        assert got == _walks(oracle, q, "radius", radius)
        if radius >= 2.0 * m ** 0.5:  # covers every point: all rows, once each
            assert sorted(got[0]) == sorted(got[1]) == list(range(len(data)))


# The compiled core against the Python loops.

def filter_reference(trace, cache, pf):
    """filter_to_dram over the Python CacheHierarchy loop."""
    keep, stats = _filter_reference(
        (trace.vaddr >> np.uint64(LINE_SHIFT)).astype(np.int64), trace.kind, cache, pf)
    return Trace(trace.vaddr[keep], trace.cycle[keep], trace.kind[keep]), stats


def simulate_reference(trace, geom, timing, scheme, cap, arrival, arrival_gap, queue_depth):
    return _simulate_reference(
        *dramsim._prepare(trace, geom, scheme, arrival, arrival_gap), geom.banks, timing, cap,
        queue_depth, True)


def assert_same_filter(got, want):
    (dram, stats), (dram_ref, stats_ref) = got, want
    assert dram == dram_ref
    assert vars(stats) == vars(stats_ref)
    for value in (*stats.demand_accesses, *stats.demand_misses, stats.hw_prefetches_issued,
                  stats.hw_prefetches_useful, stats.sw_prefetches_seen,
                  stats.dram_demand_accesses):
        assert type(value) is int


def assert_same_dram(got, want):
    assert vars(got) == vars(want)
    assert list(got.per_bank.items()) == list(want.per_bank.items())  # sorted by bank
    for value in (got.hits, got.misses, got.conflicts, got.total):
        assert type(value) is int
    assert type(got.avg_latency) is float


@st.composite
def cache_setups(draw):
    """Tiny caches (1-4 sets, 2-4 ways), HW prefetch on or off, any SW target."""
    levels = [memsys.LevelConfig(draw(st.sampled_from([1, 2, 4])) * ways * 64, ways)
              for ways in draw(st.lists(st.integers(2, 4), min_size=3, max_size=3))]
    hw = draw(st.one_of(st.none(), st.builds(memsys.StridePrefetchConfig,
                                              st.integers(1, 4), st.integers(1, 4))))
    return memsys.CacheConfig(*levels), memsys.PrefetchConfig(hw, draw(st.sampled_from(
        memsys.LEVEL_NAMES)))


@st.composite
def line_traces(draw):
    """Strided runs over a few pages, ascending and descending (down to
    line 0, so stride prefetches go negative), then revisits of earlier
    lines, mixed with SW prefetches."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        start = draw(st.integers(0, 3)) * 64 + draw(st.integers(0, 12))
        stride = draw(st.integers(-4, 4))
        lines += [line for line in range(start, start + stride * draw(st.integers(1, 12)),
                                         stride or 1) if line >= 0]
    lines = lines or [0]
    lines += draw(st.lists(st.sampled_from(lines), max_size=60))
    kinds = draw(st.lists(st.sampled_from([0, 0, 0, 1, KIND_PREFETCH]),
                          min_size=len(lines), max_size=len(lines)))
    return Trace.from_addresses(np.array(lines, np.uint64) << np.uint64(LINE_SHIFT), kinds)


@settings(max_examples=300, deadline=None)
@given(line_traces(), cache_setups())
def test_filter_core_matches_cache_hierarchy(trace, setup):
    cache, pf = setup
    assert_same_filter(memsys.filter_to_dram(trace, cache, pf),
                       filter_reference(trace, cache, pf))


@pytest.mark.parametrize("target", memsys.LEVEL_NAMES)
@pytest.mark.parametrize("hw", [None, memsys.StridePrefetchConfig(4, 3)])
def test_filter_core_matches_on_a_long_trace(target, hw):
    rng = np.random.default_rng(7)
    sweep = np.tile(np.arange(512, dtype=np.uint64) * 64, 3)  # between L1 and L2 size
    vaddr = np.concatenate([rng.integers(0, 1 << 26, 3000, dtype=np.uint64),
                            np.arange(3000, dtype=np.uint64)[::-1] * 192, sweep])
    trace = memsys.inject_sw_prefetch(Trace.from_addresses(vaddr), 8)
    cache = memsys.CacheConfig(memsys.LevelConfig(4096, 4), memsys.LevelConfig(16384, 8),
                               memsys.LevelConfig(65536, 16))
    pf = memsys.PrefetchConfig(hw, target)
    assert_same_filter(memsys.filter_to_dram(trace, cache, pf), filter_reference(trace, cache, pf))


@st.composite
def dram_cases(draw):
    """Requests on a tiny geometry (1-4 banks, 4 rows of 2 lines), so
    rows collide; bursty cycles and every scheduler setting."""
    geom = dramsim.DramGeometry(banks=draw(st.sampled_from([1, 2, 4])), rows_per_bank=4,
                                row_size_bytes=128)
    n = draw(st.integers(1, 80))
    lines = draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 4, 30]), min_size=n, max_size=n))
    trace = Trace(np.array(lines, np.uint64) << np.uint64(LINE_SHIFT),
                  np.cumsum(gaps, dtype=np.int64), np.zeros(n, np.uint8))
    timing = dramsim.DramTiming(*draw(st.lists(st.integers(1, 20), min_size=4, max_size=4)))
    arrival = draw(st.sampled_from(["from-trace", "fixed-gap"]))
    return (trace, geom, timing, draw(st.sampled_from(dramsim.SCHEMES)),
            draw(st.integers(1, 6)), arrival, draw(st.integers(0, 8)), draw(st.integers(1, 40)))


@settings(max_examples=400, deadline=None)
@given(dram_cases())
def test_simulate_core_matches_reference(case):
    trace, geom, timing, scheme, cap, arrival, gap, depth = case
    got = dramsim.simulate(trace, geom, timing, scheme, cap, arrival, gap, depth,
                           collect_events=True)
    assert_same_dram(got, simulate_reference(*case))
    assert dramsim.simulate(trace, geom, timing, scheme, cap, arrival, gap, depth).events is None


@pytest.mark.parametrize("cap, depth", [(1, 32), (4, 32), (10 ** 30, 10 ** 30), (3, 1)])
def test_simulate_core_matches_on_a_long_trace(cap, depth):
    rng = np.random.default_rng(11)
    trace = Trace(rng.integers(0, 1 << 30, 5000, dtype=np.uint64) & ~np.uint64(63),
                  np.cumsum(rng.integers(0, 40, 5000)), np.zeros(5000, np.uint8))
    geom, timing = dramsim.DramGeometry(banks=8), dramsim.DramTiming()
    got = dramsim.simulate(trace, geom, timing, "ChRaBaRoCo", cap, "from-trace", 4, depth,
                           collect_events=True)
    assert_same_dram(got, simulate_reference(trace, geom, timing, "ChRaBaRoCo", cap,
                                             "from-trace", 4, depth))
