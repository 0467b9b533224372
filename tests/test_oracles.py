"""Differential tests: the vectorised glue against the loops it replaced.

Each oracle below is the straightforward per-element loop that the
production function used to be.  Hypothesis draws inputs, and the two
must agree exactly.  The compiled core is checked the same way against
the Python code in reference_models.
"""

import csv
import heapq
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memloc import _core, dramsim, kernels, memsys, pipeline, reorder, sfc, traceio
from memloc.kdtree import KdTree
from memloc.sfc import QuantizerConfig
from memloc.traceio import KIND_PREFETCH, LINE_SHIFT, LINE_SIZE, PAGE_SIZE, Trace
from reference_models import (
    _decompose_trace,
    _filter_reference,
    _simulate_reference,
    arrival_cycles,
    dtree_oracle,
    kdtree_order_oracle,
    quantize_rows_oracle,
    reorder_rcb_oracle,
    sort_segments_oracle,
)


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


def block_by_page_lexsort_oracle(seq, row_stride_bytes, window):
    """The lexsort form block_by_page had before its one-sort key."""
    seq = np.asarray(seq, dtype=np.int64).ravel()
    if not len(seq):
        return seq.copy()
    pages = (seq * row_stride_bytes) // PAGE_SIZE
    # Sort by (window, page), keeping index order inside each group ...
    order = np.lexsort((pages, np.arange(len(seq)) // window))
    s_pages, s_windows = pages[order], order // window
    starts = np.flatnonzero(np.concatenate(
        [[True], (s_pages[1:] != s_pages[:-1]) | (s_windows[1:] != s_windows[:-1])]))
    # ... then order the groups by their first index, which also orders windows.
    first = np.repeat(order[starts], np.diff(np.append(starts, len(seq))))
    return seq[order[np.argsort(first, kind="stable")]]


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
    codes = [encode(row, cfg) for row in quantize_rows_oracle(data, cfg).tolist()]
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
@given(row_sequences(), st.sampled_from([8, 16, 64, 200, 1 << 22]),
       st.sampled_from([1, 16]), st.integers(1, 64))
def test_block_by_page_matches_loop(case, stride, scale, window):
    # scale 16 groups rows as 256-byte pages would at the unscaled stride;
    # a stride of 1 << 22 puts rows 1,024 pages apart, pages whose hashes
    # share their low bits.
    seq, _ = case
    new = reorder.block_by_page(seq, stride * scale, window)
    assert new.dtype == np.int64
    assert np.array_equal(new, block_by_page_oracle(seq, stride * scale, window))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), st.sampled_from([1, 3, 40, 5000, 2**40]),
       st.integers(1, 50), st.integers(1, 4096), st.integers(0, 2**32 - 1))
def test_block_by_page_matches_lexsort(length, rows, window, stride, seed):
    # Few distinct rows give many repeats; 2**40 rows spread over many pages.
    seq = np.random.default_rng(seed).integers(0, rows, length)
    new = reorder.block_by_page(seq, stride, window)
    assert np.array_equal(new, block_by_page_lexsort_oracle(seq, stride, window))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4095), st.sampled_from([1, 2, 3, 2**40]),
       st.sampled_from([8, 64, 4096]), st.booleans(), st.integers(0, 2**32 - 1))
def test_block_by_page_matches_loop_over_full_windows(full, extra, pages, stride, negative,
                                                      seed):
    # Several full default windows and a partial one.  A few distinct
    # pages give each window a few large groups, all probing the same
    # slots; 2**40 pages make nearly every row its own group.
    rows = pages * PAGE_SIZE // stride
    seq = np.random.default_rng(seed).integers(-rows if negative else 0, rows,
                                               full * reorder.DEFAULT_BLOCK_WINDOW + extra)
    new = reorder.block_by_page(seq, stride)
    assert np.array_equal(new, block_by_page_oracle(seq, stride, reorder.DEFAULT_BLOCK_WINDOW))
    assert np.array_equal(new, block_by_page_lexsort_oracle(seq, stride,
                                                            reorder.DEFAULT_BLOCK_WINDOW))


@settings(max_examples=100, deadline=None)
@given(row_sequences(), st.sampled_from([8, 64, 4096]), st.integers(1, 2**70))
@example(([0, 100, 1, 101], 102), 64, 2**70)  # the core takes an int64 window
def test_block_by_page_window_past_the_sequence_is_one_window(case, stride, more):
    seq, _ = case
    new = reorder.block_by_page(seq, stride, len(seq) + more)
    assert np.array_equal(new, block_by_page_oracle(seq, stride, max(len(seq), 1)))


@pytest.mark.parametrize("window", [1, 3])
def test_block_by_page_key_stays_exact_past_int64(window):
    # Pages 0 and 2**51 - 1 alternate over 9000 accesses, some 3000
    # windows: pages 2**51 apart stay apart, and each window's groups
    # stay in it, though every window reuses the core's page table.
    seq = np.resize([0, 2**51 - 1], 9000)
    new = reorder.block_by_page(seq, 4096, window)
    assert np.array_equal(new, block_by_page_oracle(seq, 4096, window))
    assert np.array_equal(new, block_by_page_lexsort_oracle(seq, 4096, window))


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


def core_sfc(grid_rows: np.ndarray, bits: int, curve: str):
    """memloc_sfc's code words and order of the (n, d) uint64 grid."""
    n, d = grid_rows.shape
    words = np.empty((-(-d * bits // 64), n), dtype=np.uint64)
    order = np.empty(n, dtype=np.int64)
    _core.load().memloc_sfc(n, d, np.ascontiguousarray(grid_rows), bits, curve == "hilbert",
                            words, order)
    return words, order


@settings(max_examples=100, deadline=None)
@given(grids(), st.one_of(st.integers(1, 30), st.integers(500, 1100)), st.integers(0, 2**32 - 1),
       st.integers(0, 1), st.sampled_from(["hilbert", "zorder"]))
def test_column_codec_matches_bit_loops(grid, n, seed, coarse, curve):
    """The column codec against the bit loops on the first 30 rows, and
    memloc_sfc against the column codec and a stable lexsort of its words
    on all of them: past 500 rows the core encodes several blocks in
    every lane width.  Coarse grids repeat codes, so order ties."""
    d, b = grid
    cfg = QuantizerConfig(d, b)
    cols = np.random.default_rng(seed).integers(0, 1 << b, (d, n), dtype=np.uint64)
    if coarse:
        cols &= np.uint64(3)
    words = sfc.encode(list(cols), b, curve)
    oracle = morton_encode_oracle if curve == "zorder" else hilbert_encode_oracle
    for r in range(min(n, 30)):
        code = sum(int(w[r]) << 64 * i for i, w in enumerate(words))
        assert code == oracle(tuple(int(c) for c in cols[:, r]), cfg)
    assert np.array_equal(np.array(sfc.decode(words, d, b, curve)), cols)
    core_words, order = core_sfc(cols.T, b, curve)
    assert np.array_equal(core_words, np.array(words))
    # lexsort takes its last key as the primary one: the top code word.
    assert np.array_equal(order, np.lexsort(words))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 8, 16]), st.integers(1, 64), st.integers(1, 330),
       st.integers(0, 2**32 - 1), st.sampled_from([None, 0, 1, 2]), st.sampled_from(["hilbert", "zorder"]))
def test_reorder_sfc_matches_key_sort(d, bits, n, seed, decimals, curve):
    bits = min(bits, 128 // d)  # d = 5 gives codes of 5 * 13 = 65 bits, across two words
    data = np.random.default_rng(seed).normal(0, 3, (n, d))
    if decimals is not None:
        data = data.round(decimals)  # coarse values: ties and degenerate axes
    perm = reorder.reorder_sfc(data, curve, bits)
    assert perm.dtype == np.int64
    assert np.array_equal(perm, reorder_sfc_oracle(data, curve, bits))


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def quantizer_cases(draw):
    """A config of 1-64 bits and 1-4 axes, each axis ordinary, degenerate
    or of subnormal span, and rows of values in and around the bounds,
    -0.0, and values far enough out that x - lo overflows."""
    bits = draw(st.integers(1, 64))
    lo, hi = [], []
    for _ in range(draw(st.integers(1, min(4, 128 // bits)))):
        kind = draw(st.sampled_from(["wide", "unit", "degenerate", "subnormal"]))
        if kind == "wide":
            a, b = sorted([draw(FINITE), draw(FINITE)])
            if not np.isfinite(b - a):
                a, b = a / 2, b / 2
        elif kind == "unit":
            a = draw(st.sampled_from([0.0, -0.0, -1.0, 3.5]))
            b = a + 1.0
        elif kind == "degenerate":
            a = b = draw(st.sampled_from([0.0, -0.0, 1e308, -7.25]))
        else:
            a = draw(st.sampled_from([0.0, -0.0, 5e-324, -1e-310]))
            b = a + draw(st.floats(5e-324, 2e-308))
        lo.append(a)
        hi.append(b)
    cfg = QuantizerConfig(len(lo), bits, tuple(lo), tuple(hi))
    near = [v for a, b in zip(lo, hi) for v in (a, b, a + (b - a) / 2, -0.0, 1e308, -1e308)]
    value = st.one_of(FINITE, st.sampled_from(near))
    rows = draw(st.lists(st.lists(value, min_size=len(lo), max_size=len(lo)), min_size=1,
                         max_size=20))
    return cfg, np.array(rows, dtype=np.float64)


def _one_point(bits, lo, hi, point):
    return QuantizerConfig(1, bits, (lo,), (hi,)), np.array([[point]])


@settings(max_examples=400, deadline=None)
@given(quantizer_cases())
@example(_one_point(10, 1e308, 1.5e308, -1e308))   # x - lo overflows to -inf: grid 0
@example(_one_point(64, -1e308, -5e307, 1e308))    # x - lo overflows to +inf: the top cell
@example(_one_point(54, 0.0, 5e-324, 1.0))         # subnormal span: the quotient overflows
@example(_one_point(3, 0.0, 1.0, 0.5))             # a half rounds up
def test_core_quantizer_matches_numpy(case):
    cfg, data = case
    expect = quantize_rows_oracle(data, cfg)
    assert np.array_equal(sfc.quantize_rows(data, cfg), expect)
    assert sfc.quantize(data[0], cfg) == tuple(int(v) for v in expect[0])


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


def _walks(oracle, query, method, arg):
    seen: list = []
    found = getattr(oracle, method)(query, arg, visit=seen.append)
    return [int(r) for r in seen], found


def _tree_walks(tree, query, method, arg):
    """The visits of KdTree.walk over one query, as _walks reports the
    oracle's first."""
    rows, _ = tree.walk(query[None], **({"k": arg} if method == "knn" else {"r2": arg * arg}))
    return rows.tolist()


@settings(max_examples=300, deadline=None)
@given(kd_cases(), st.data())
def test_kdtree_knn_matches_recursive_tree(case, pick):
    data, queries = case
    n = len(data)
    k = pick.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    tree, oracle = KdTree(data), KdTreeOracle(data)
    assert tree.order.tolist() == oracle.in_order()
    for q in queries:
        assert _tree_walks(tree, q, "knn", k) == _walks(oracle, q, "knn", k)[0]


@settings(max_examples=200, deadline=None)
@given(kd_cases(), st.data())
def test_kdtree_oracle_finds_what_brute_force_finds(case, pick):
    # KdTree.walk reports visits alone; the tests above pin them to the
    # oracle's, whose k nearest and in-range rows are checked here.
    data, queries = case
    n = len(data)
    oracle = KdTreeOracle(data)
    k = pick.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    radius = pick.draw(st.sampled_from([0.0, 0.1, 0.5, float("inf")]))
    for q in queries:
        d2 = [oracle._d2(r, q) for r in range(n)]
        best = _walks(oracle, q, "knn", k)[1]
        assert [d for d, _ in best] == sorted(d2)[:k]
        assert all(d == d2[r] for d, r in best) and len({r for _, r in best}) == k
        in_range = _walks(oracle, q, "radius", radius)[1]
        assert sorted(in_range) == [r for r in range(n) if d2[r] <= radius * radius]


@settings(max_examples=100, deadline=None)
@given(kd_cases(), st.integers(1, 70))
def test_kdtree_walk_starts_split_the_walk_by_query(case, k):
    # One walk over every query is the single-query walks back to back,
    # and starts splits it into the oracle's walks.
    data, queries = case
    tree, oracle = KdTree(data), KdTreeOracle(data)
    for kw, method, arg in (({"k": k}, "knn", min(k, len(data))),
                            ({"r2": 0.5 * 0.5}, "radius", 0.5)):
        rows, starts = tree.walk(queries, **kw)
        single = [tree.walk(q[None], **kw)[0] for q in queries]
        assert starts.tolist() == np.cumsum([0] + [len(r) for r in single]).tolist()
        assert rows.tolist() == np.concatenate(single).tolist()
        for i, q in enumerate(queries):
            assert rows[starts[i]:starts[i + 1]].tolist() == _walks(oracle, q, method, arg)[0]


@st.composite
def covering_walks(draw):
    """Radius walks with r2 = inf, so every query examines all n rows:
    with n >= 97 and at least 3 queries that overflows the walk's first
    buffers (room for n + 64 visits per query)."""
    n, m = draw(st.integers(97, 300)), draw(st.integers(1, 4))
    levels = draw(st.sampled_from([1, 3, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(0, levels, (n, m)) / levels
    return data, rng.integers(0, levels + 1, (draw(st.integers(3, 8)), m)) / levels


def _counted_walk(tree, queries, **kw):
    """tree.walk, and the first query of each of its calls into the core."""
    lib, firsts = _core.load(), []

    class Core:
        def memloc_kdtree(self, *args):
            firsts.append(args[9])
            return lib.memloc_kdtree(*args)
    with mock.patch.object(_core, "load", Core):
        return tree.walk(queries, **kw), firsts


@settings(max_examples=60, deadline=None)
@given(covering_walks())
def test_kdtree_walk_resumes_where_its_buffers_filled(case):
    data, queries = case
    tree, oracle = KdTree(data), KdTreeOracle(data)
    (rows, starts), firsts = _counted_walk(tree, queries, r2=float("inf"))
    assert len(firsts) > 1 and firsts[0] == 0 and firsts == sorted(set(firsts))
    single = [tree.walk(q[None], r2=float("inf"))[0] for q in queries]
    assert rows.tolist() == np.concatenate(single).tolist()
    assert starts.tolist() == list(range(0, len(data) * len(queries) + 1, len(data)))
    for i, q in enumerate(queries):
        seen = _walks(oracle, q, "radius", float("inf"))[0]
        assert rows[starts[i]:starts[i + 1]].tolist() == seen


@settings(max_examples=30, deadline=None)
@given(covering_walks())
def test_a_knn_walk_passes_the_core_no_hit_mask(case):
    # k = n finds every row, so each query examines all n of them, and
    # the walk's first buffers overflow as the covering radius walks' do.
    data, queries = case
    tree, lib, masks = KdTree(data), _core.load(), []

    class Core:
        def memloc_kdtree(self, *args):
            masks.append(sum(isinstance(a, np.ndarray) and a.dtype == bool for a in args))
            return lib.memloc_kdtree(*args)
    with mock.patch.object(_core, "load", Core):
        rows, _ = tree.walk(queries, k=len(data))
    assert len(masks) > 1 and set(masks) == {0}
    single = [tree.walk(q[None], k=len(data))[0] for q in queries]
    assert rows.tolist() == np.concatenate(single).tolist()


@st.composite
def dtree_cases(draw):
    """Feature matrices with ties (values rounded to a few levels),
    duplicate rows, constant columns and -0.0 beside 0.0, labels of one
    to four classes with scattered values, and depths from a stump to
    deeper than n.  Values one ulp apart or near the largest double make
    the mean of an even node's two middle values round up to the upper
    one or overflow, so only np.median's (a + b) / 2 splits as it does."""
    n, m = draw(st.integers(1, 300)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([1, 2, 5, 1 << 20]))
    steps = rng.integers(-levels, levels + 1, (n, m))
    data = draw(st.sampled_from([steps / levels, 1.0 + steps * 2.0**-52, steps / levels * 1e308]))
    if draw(st.booleans()):
        data[:, draw(st.integers(0, m - 1))] = draw(st.sampled_from([0.0, 0.25]))
    data[data == 0.0] = np.where(rng.random((data == 0.0).sum()) < 0.5, -0.0, 0.0)
    if draw(st.booleans()):
        data = data[rng.integers(0, max(1, n // 3), n)]  # duplicate rows
    values = np.array(draw(st.sampled_from([[7], [0, 1], [-3, 4, 11], [11, -3, 4, 2]])))
    labels = values[rng.integers(0, len(values), n)]
    if draw(st.booleans()):  # labels that follow the data, so trees grow deep
        labels = values[(data > 0).sum(axis=1) % len(values)]
    return data, labels, draw(st.sampled_from([1, 5, n + 1, 10**30]))


@settings(max_examples=400, deadline=None)
@given(dtree_cases())
# 18 rows, one feature: the root's partition leaves its upper middle
# value, 9, at position k + 2, so a min scan that skipped that slot
# would split at 9.5 instead of 8.5.
@example((np.array([4, 12, 1, 10, 2, 6, 0, 5, 17, 15, 13, 16, 11, 8, 7, 3, 14, 9.])[:, None],
          np.array([0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0]), 2))
def test_dtree_core_matches_recursive_induction(case):
    data, labels, max_depth = case
    lib, calls = _core.load(), []

    class Core:
        def memloc_dtree(self, *args):
            calls.append(args)
            return lib.memloc_dtree(*args)

        def memloc_node_rows(self, *args):
            return lib.memloc_node_rows(*args)
    with mock.patch.object(_core, "load", Core):
        _, rows, starts = kernels.gen_dtree_trace(data, labels, max_depth,
                                                  kernels.AddressModel.for_matrix(data.shape[1]))
    with np.errstate(over="ignore"):  # np.median of values near the largest double
        nodes, leaves = dtree_oracle(data, labels, max_depth)
    assert starts.tolist() == np.cumsum([0] + [len(idx) for idx in nodes]).tolist()
    assert rows.tolist() == np.concatenate(nodes).tolist()
    # The core's index array ends as the leaves' rows in preorder, each in
    # storage order: its partitions are stable.
    assert len(calls) == 1 and calls[0][7].tolist() == np.concatenate(leaves).tolist()


@st.composite
def preorder_trees(draw):
    """(n, nodes, parents, bounds, src, order): a tree over the rows
    [0, n), its nodes' row lists in preorder, each shuffled, a subset of
    its parent's and disjoint from its siblings, with parents[s] the
    node's parent (-1 for the root).  The lists are stored back to back
    in src, in a random order of the nodes, node s at
    src[bounds[s, 0]:bounds[s, 1]].  A chain drops one row a level, so
    it is about n deep and ends in an empty node; a split deals a node's
    rows to one to three children, dropping some or none; a sparse
    tree's root leaves rows out.  order is a permutation or the
    identity."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["chain", "split", "sparse"]))
    drop = draw(st.sampled_from([0.0, 0.2]))
    root = rng.permutation(n)
    if shape == "sparse":
        root = root[:rng.integers(0, n + 1)]
    nodes, parents, stack = [], [], [(root, -1)]
    while stack:
        rows, parent = stack.pop()
        nodes.append(rows)
        parents.append(parent)
        s = len(nodes) - 1
        if shape == "chain":
            if len(rows):
                stack.append((rng.permutation(rows)[1:], s))
        elif len(rows) >= 2 and rng.random() < 0.75:
            k = rng.integers(1, 4)
            deal = np.where(rng.random(len(rows)) < drop, k, rng.integers(0, k, len(rows)))
            stack.extend((rng.permutation(rows[deal == c]), s) for c in reversed(range(k)))
    placed = rng.permutation(len(nodes))
    ends = np.cumsum([len(nodes[s]) for s in placed])
    bounds = np.empty((len(nodes), 2), dtype=np.int64)
    bounds[placed, 0], bounds[placed, 1] = ends - [len(nodes[s]) for s in placed], ends
    src = np.concatenate([nodes[s] for s in placed]).astype(np.int64)
    order = rng.permutation(n) if draw(st.booleans()) else np.arange(n, dtype=np.int64)
    return n, nodes, parents, bounds, src, order


@settings(max_examples=300, deadline=None)
@given(preorder_trees())
def test_node_rows_match_a_sort_of_each_node(tree):
    # Node by node, the new rows v whose old row order[v] the node holds,
    # ascending: the old rows relabelled through the inverse and sorted.
    n, nodes, _, bounds, src, order = tree
    starts = np.cumsum([0] + [len(rows) for rows in nodes])
    relabelled = reorder.invert_permutation(order)[np.concatenate(nodes).astype(np.int64)]
    expected = sort_segments_oracle(relabelled, starts, n)
    assert kernels.node_rows(bounds, src, order).tolist() == expected.tolist()


@settings(max_examples=300, deadline=None)
@given(preorder_trees(), st.sampled_from(["lacks", "twice", "overlap"]), st.randoms())
def test_node_rows_reject_nodes_that_are_not_a_tree(tree, fault, pick):
    # One non-first row of a node of two or more is replaced: by a row its
    # parent lacks, by another of its own rows, or by a row of an earlier
    # sibling.  (A node's first row only says who its parent is.)
    n, nodes, parents, bounds, src, order = tree
    wide = [s for s, rows in enumerate(nodes) if len(rows) >= 2]
    if fault == "lacks":
        wide = [s for s in wide if parents[s] >= 0 and len(nodes[parents[s]]) < n]
        others = lambda s: np.setdiff1d(np.arange(n), nodes[parents[s]])
    elif fault == "twice":
        others = lambda s: nodes[s][:1]
    else:
        earlier = lambda s: [t for t in range(s) if parents[t] == parents[s] and len(nodes[t])]
        wide = [s for s in wide if parents[s] >= 0 and earlier(s)]
        others = lambda s: nodes[pick.choice(earlier(s))]
    assume(wide)
    s = pick.choice(wide)
    src = src.copy()
    src[bounds[s, 0] + pick.randrange(1, len(nodes[s]))] = pick.choice(others(s).tolist())
    total = int(src.size)
    out = np.full(total, -7, dtype=np.int64)
    assert _core.load().memloc_node_rows(n, len(bounds), bounds, src, order, out) < total
    assert (out == -7).all()
    with pytest.raises(ValueError, match=r"^the nodes' rows are not a tree in preorder$"):
        kernels.node_rows(bounds, src, order)


@pytest.mark.parametrize("bounds, src, order", [
    ([[0, 2], [2, 1]], [0, 1], [0, 1]),
    ([[0, 2]], [0, 2], [0, 1]),
    ([[0, 2]], [1, -1], [0, 1]),
    ([[0, 2]], [0, 1], [1, 1]),
    ([[0, 2]], [0, 1], [1 << 40, 1]),
], ids=["node-ends-before-it-starts", "row-past-n", "negative-row", "order-repeats-a-row",
        "order-far-past-n"])
def test_node_rows_return_short_on_a_range_or_order_out_of_place(bounds, src, order):
    # Over two rows.  A node past its range, or a row outside [0, n),
    # writes nothing; an order that is not a permutation misses a row.
    bounds, src, order = (np.array(a, dtype=np.int64) for a in (bounds, src, order))
    total = int((bounds[:, 1] - bounds[:, 0]).sum())
    out = np.full(total, -7, dtype=np.int64)
    assert _core.load().memloc_node_rows(2, len(bounds), bounds, src, order, out) < total
    if order.tolist() == [0, 1]:
        assert (out == -7).all()
    with pytest.raises(ValueError, match=r"^the nodes' rows are not a tree in preorder$"):
        kernels.node_rows(bounds, src, order)


DTREE_CONFIG = {"seed": 1, "kernel": {"kind": "dtree", "n": 600, "m": 2, "max_depth": 6}}


def test_a_layout_over_nodes_that_are_not_a_tree_fails_at_gen():
    ctx = pipeline.build_kernel(DTREE_CONFIG)
    trace, rows, starts = ctx.generate()
    rows = rows.copy()
    rows[starts[1] + 1] = rows[starts[1]]  # node 1, the root's left child, holds a row twice
    with pytest.raises(pipeline.PipelineError,
                       match=r"^gen: the nodes' rows are not a tree in preorder$"):
        pipeline.run_variant(ctx, "hilbert", (trace, rows, starts))


def test_a_tree_whose_root_holds_a_row_twice_fails_at_gen():
    lib = _core.load()

    class Core:
        def memloc_dtree(self, *args):
            nodes = lib.memloc_dtree(*args)
            args[7][1] = args[7][0]  # idx: the root holds its first row twice
            return nodes

        def memloc_node_rows(self, *args):
            return lib.memloc_node_rows(*args)
    with mock.patch.object(_core, "load", Core):
        with pytest.raises(pipeline.PipelineError,
                           match=r"^gen: the nodes' rows are not a tree in preorder$"):
            pipeline.build_kernel(DTREE_CONFIG).generate()


@settings(max_examples=300, deadline=None)
@given(kd_cases(), st.data())
def test_kdtree_radius_matches_recursive_tree(case, pick):
    data, queries = case
    m = data.shape[1]
    tree, oracle = KdTree(data), KdTreeOracle(data)
    radius = pick.draw(st.sampled_from([0.0, 0.1, 0.5, 2.0 * m ** 0.5, float("inf")]))
    for q in queries:
        got = _tree_walks(tree, q, "radius", radius)
        assert got == _walks(oracle, q, "radius", radius)[0]
        if radius >= 2.0 * m ** 0.5:  # covers every point: all rows, once each
            assert sorted(got) == list(range(len(data)))


@st.composite
def bisect_data(draw):
    """Points on a coarse grid centred on zero (duplicates, ties, mixed
    0.0 and -0.0) or a fine one, optionally with one constant column."""
    n, m = draw(st.integers(1, 300)), draw(st.integers(1, 16))
    levels = draw(st.sampled_from([1, 2, 3, 5, 1 << 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.integers(-levels, levels, (n, m)) / levels
    data[(data == 0) & (rng.random((n, m)) < 0.5)] = -0.0
    if draw(st.booleans()):
        data[:, rng.integers(m)] = 0.5
    return data


@settings(max_examples=200, deadline=None)
@given(bisect_data(), st.data())
def test_reorder_rcb_matches_recursive_oracle(data, pick):
    leaf = pick.draw(st.integers(1, len(data) + 1))
    assert reorder.reorder_rcb(data, leaf).tolist() == reorder_rcb_oracle(data, leaf).tolist()


@settings(max_examples=200, deadline=None)
@given(bisect_data())
def test_kdtree_order_matches_lexsort_oracle(data):
    assert KdTree(data).order.tolist() == kdtree_order_oracle(data).tolist()


def select_killer(n: int, k: int) -> np.ndarray:
    """n distinct values in [0, 1) on which memloc_bisect's selection of
    rank k narrows its range by a few rows per partition: McIlroy's
    adversary ("A killer adversary for quicksort", SP&E 1999) played
    against a model of its pivot choice (the median of the rows at the
    quartiles and the middle) and its partition (the rows below the
    pivot from the front, the rest from the back), so the core runs out
    of partitions and sorts."""
    gas, val, frozen, candidate = n, [n] * n, 0, 0

    def before(x, y):
        nonlocal frozen, candidate
        if val[x] == gas and val[y] == gas:
            val[x if x == candidate else y] = frozen
            frozen += 1
        if val[x] == gas:
            candidate = x
        elif val[y] == gas:
            candidate = y
        return val[x] < val[y]

    a, lo, hi = list(range(n)), 0, n - 1
    while hi - lo >= 16:
        u, v, w = lo + (hi - lo) // 4, lo + (hi - lo) // 2, hi - (hi - lo) // 4
        if before(a[v], a[u]):
            u, v = v, u
        p = (u if before(a[w], a[u]) else w) if before(a[w], a[v]) else v
        x, a[p] = a[p], a[hi]
        below, above = [], []
        for t in a[lo:hi]:
            (below if before(t, x) else above).append(t)
        a[lo:hi + 1] = below + [x] + above[::-1]
        s = lo + len(below)
        if s == k:
            break
        lo, hi = (lo, s - 1) if k < s else (s + 1, hi)
    for i in range(n):
        if val[i] == gas:
            val[i], frozen = frozen, frozen + 1
    return np.asarray(val) / n


def knn_scale_data(kind: str, n: int) -> np.ndarray:
    """Inputs whose ties and runs a random draw of up to 300 rows never
    reaches.  The grid has three columns, so that ties on the split axis
    fall to two others, in an order that matters."""
    rng = np.random.default_rng(n)
    up = np.arange(n) / n
    pipe = np.minimum(up, up[::-1])
    if kind == "sorted":
        return np.column_stack([up, 2 * up])
    if kind == "reversed":
        return np.column_stack([up, 2 * up])[::-1].copy()
    if kind == "equal-column":
        return np.column_stack([np.full(n, 0.5), rng.random(n)])
    if kind == "two-values":
        return rng.choice([0.25, 0.75], (n, 2))
    if kind == "organ-pipe":
        return np.column_stack([pipe, np.roll(pipe, n // 3)])
    if kind == "grid":
        data = rng.integers(-3, 3, (n, 3)) / 3
        data[(data == 0) & (rng.random((n, 3)) < 0.5)] = -0.0
        return data
    # For even n the roots of the kd-tree and of RCB (whose widest axis
    # is column 0) both select rank n / 2 on column 0.
    return np.column_stack([select_killer(n, n // 2), rng.random(n) / 4])


@pytest.mark.parametrize("n", [1000, 4096])
@pytest.mark.parametrize("kind", ["sorted", "reversed", "equal-column", "two-values",
                                  "organ-pipe", "grid", "killer"])
def test_bisection_matches_the_oracles_at_knn_scale(kind, n):
    data = knn_scale_data(kind, n)
    assert KdTree(data).order.tolist() == kdtree_order_oracle(data).tolist()
    for leaf in (1, 32, n):
        assert reorder.reorder_rcb(data, leaf).tolist() == reorder_rcb_oracle(data, leaf).tolist()


# The compiled core against the Python loops.

def filter_core(trace, cache, pf):
    """filter_to_dram's (DRAM trace, stats) and the core's level per record."""
    return (*memsys.filter_to_dram(trace, cache, pf), memsys._levels(trace, cache, pf)[0])


def filter_reference(trace, cache, pf):
    """filter_core over the Python CacheHierarchy loop."""
    level, stats = _filter_reference(
        (trace.vaddr >> np.uint64(LINE_SHIFT)).astype(np.int64), trace.kind, cache, pf)
    keep = level == 3
    return Trace(trace.vaddr[keep], trace.cycle[keep], trace.kind[keep]), stats, level


def simulate_reference(trace, dram):
    bank, row = _decompose_trace(trace, dram)
    return _simulate_reference(bank, row, arrival_cycles(trace, dram), dram, True)


def assert_same_filter(got, want):
    (dram, stats, level), (dram_ref, stats_ref, level_ref) = got, want
    assert dram == dram_ref
    assert level.tolist() == level_ref.tolist()
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
    """Tiny caches (1-4 sets; 1-4 ways, or the benchmark's 8 and 16), HW
    prefetch on or off (its degree + distance up to the 2**56 bound, so
    prefetch lines reach past +-2**61), any SW target."""
    ways = st.one_of(st.integers(1, 4), st.sampled_from([8, 16]))
    levels = [memsys.LevelConfig(draw(st.sampled_from([1, 2, 4])) * w * 64, w)
              for w in draw(st.lists(ways, min_size=3, max_size=3))]
    degree = draw(st.integers(1, 4))
    distance = draw(st.sampled_from([1, 2, 3, 4, (1 << 56) - degree]))
    hw = draw(st.sampled_from([False, True]))
    return memsys.CacheConfig(*levels), memsys.PrefetchConfig(
        hw, degree, distance, draw(st.sampled_from(memsys.LEVEL_NAMES)))


@st.composite
def line_traces(draw):
    """Strided runs over a few pages, ascending and descending (down to
    line 0, so stride prefetches go negative), then revisits of earlier
    lines, mixed with SW prefetches; on some draws all moved up to just
    below the last line, 2**58 - 1, so vaddrs near 2**64."""
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        start = draw(st.integers(0, 3)) * 64 + draw(st.integers(0, 12))
        stride = draw(st.integers(-4, 4))
        lines += [line for line in range(start, start + stride * draw(st.integers(1, 12)),
                                         stride or 1) if line >= 0]
    lines = lines or [0]
    lines += draw(st.lists(st.sampled_from(lines), max_size=60))
    top = draw(st.sampled_from([0, 0, (1 << 58) - 256]))
    lines = [line + top for line in lines]
    kinds = draw(st.lists(st.sampled_from([0, 0, 0, 1, KIND_PREFETCH]),
                          min_size=len(lines), max_size=len(lines)))
    return _line_trace(lines, kinds)


def _line_trace(lines, kinds=0):
    return Trace.from_addresses(np.array(lines, np.uint64) << np.uint64(LINE_SHIFT), kinds)


# One set per level, 8, 8 and 16 ways, so every line shares a set.
_ONE_SET = memsys.CacheConfig(memsys.LevelConfig(8 * 64, 8), memsys.LevelConfig(8 * 64, 8),
                              memsys.LevelConfig(16 * 64, 16))


@settings(max_examples=300, deadline=None)
@given(line_traces(), cache_setups())
# Lines 0-15 fill L3, whose LRU way then serves 0; L1 serves 0 again
# from its MRU way and 9 from its LRU way; L3 serves 8 from a middle
# way and 1 from its LRU way.
@example(_line_trace([*range(16), 0, 0, 9, 8, 1]),
         (_ONE_SET, memsys.PrefetchConfig(sw_target="L1")))
# SW prefetches of lines 20-27 fill L2; prefetches of 20 then hit its
# LRU and its MRU way, and demands of 21 and 22 hit its LRU way.
@example(_line_trace([*range(20, 28), 20, 20, 21, 22], [KIND_PREFETCH] * 10 + [0, 0]),
         (_ONE_SET, memsys.PrefetchConfig(sw_target="L2")))
# The same sweeps with the stride prefetcher flagging L2's ways.
@example(_line_trace([*range(16), 0, 0, 9, 8, 1, *range(20, 28), 20, 20, 21, 22]),
         (_ONE_SET, memsys.PrefetchConfig(True, 1, 1, "L3")))
# Demand 3's next-line prefetch flags 4 in L2; a SW prefetch of 4 moves
# it to MRU and one of 8 shifts it down, both keeping the flag, so the
# demand of 4 counts it useful.
@example(_line_trace([3, 4, 8, 4], [0, KIND_PREFETCH, KIND_PREFETCH, 0]),
         (_ONE_SET, memsys.PrefetchConfig(True, 1, 1, "L2")))
# Line 0's next-line prefetch, 1, fills one-way L2 between the lookup
# of 0 and its fill, so the fill of 0 evicts 1 and the demand of 1 misses.
@example(_line_trace([0, 1]), (memsys.CacheConfig(*[memsys.LevelConfig(64, 1)] * 3),
                                  memsys.PrefetchConfig(True, 1, 1, "L2")))
def test_filter_core_matches_cache_hierarchy(trace, setup):
    cache, pf = setup
    assert_same_filter(filter_core(trace, cache, pf), filter_reference(trace, cache, pf))


@pytest.mark.parametrize("target", memsys.LEVEL_NAMES)
@pytest.mark.parametrize("hw", [None, {"hw": True, "hw_degree": 4, "hw_distance": 3}])
def test_filter_core_matches_on_a_long_trace(target, hw, tmp_path):
    rng = np.random.default_rng(7)
    sweep = np.tile(np.arange(512, dtype=np.uint64) * 64, 3)  # between L1 and L2 size
    # Pages 1,024 apart share the low bits of their hash, and 2,000 of
    # them grow the stride prefetcher's page table past its first slots.
    apart = np.arange(2000, dtype=np.uint64) << 22
    vaddr = np.concatenate([rng.integers(0, 1 << 26, 3000, dtype=np.uint64),
                            np.arange(3000, dtype=np.uint64)[::-1] * 192, sweep, apart])
    trace = memsys.inject_sw_prefetch(Trace.from_addresses(vaddr), 8)
    cache = memsys.CacheConfig(memsys.LevelConfig(4096, 4), memsys.LevelConfig(16384, 8),
                               memsys.LevelConfig(65536, 16))
    pf = memsys.PrefetchConfig(**(hw or {}), sw_target=target)
    got = filter_core(trace, cache, pf)
    assert_same_filter(got, filter_reference(trace, cache, pf))
    # A trace read from a file, whose columns are contiguous, gives the same.
    traceio.write_trace(tmp_path / "t.trace", trace)
    read = traceio.read_trace(tmp_path / "t.trace")
    assert read.vaddr.flags.c_contiguous and read.kind.flags.c_contiguous
    assert_same_filter(filter_core(read, cache, pf), got)


@st.composite
def dram_cases(draw):
    """Requests on a tiny geometry (1-4 banks, 4 rows of 2 lines), so
    rows collide, or on one whose rows or columns take more bits than a
    vaddr has; lines past the capacity, on some draws near the last line,
    2**58 - 1; bursty cycles and every scheduler setting."""
    rows, row_bytes = draw(st.sampled_from([(4, 128), (4, 128), (2**70, 128), (4, 2**70)]))
    banks = draw(st.sampled_from([1, 2, 4]))
    n = draw(st.integers(1, 80))
    top = draw(st.sampled_from([0, 0, 1 << 20, (1 << 58) - 64]))
    lines = [top + line for line in draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))]
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 4, 30]), min_size=n, max_size=n))
    trace = Trace(np.array(lines, np.uint64) << np.uint64(LINE_SHIFT),
                  np.cumsum(gaps, dtype=np.int64), np.zeros(n, np.uint8))
    timing = draw(st.lists(st.integers(1, 20), min_size=4, max_size=4))
    return trace, dramsim.DramConfig(
        banks, rows, row_bytes, *timing, scheme=draw(st.sampled_from(dramsim.SCHEMES)),
        cap=draw(st.integers(1, 6)), arrival=draw(st.sampled_from(dramsim.ARRIVALS)),
        arrival_gap=draw(st.integers(0, 8)), queue_depth=draw(st.integers(1, 40)))


def _dram_case(lines, cycles, cap=4, depth=32):
    """Lines on 2 banks of 4 rows of 2 lines, line = row << 2 | bank << 1
    | column, arriving at the given cycles; a hit takes 5 cycles, a
    closed bank 9 and a conflict 13."""
    trace = Trace(np.array(lines, np.uint64) << np.uint64(LINE_SHIFT),
                  np.array(cycles, np.int64), np.zeros(len(lines), np.uint8))
    return trace, dramsim.DramConfig(2, 4, 128, 4, 4, 4, 1, cap=cap, queue_depth=depth)


@settings(max_examples=400, deadline=None)
@given(dram_cases())
# Row 0 of bank 0 opens with a window of no hits behind it, then bank 0
# serves row 1, and line 5, on that row, arrives behind line 8: the
# arrival hits and must be served before 8.
@example(_dram_case([0, 4, 8, 5], [0, 1, 2, 12]))
# Line 4 opens row 1 of bank 0 while line 5, on that row, waits behind
# line 8: 5 is served next, though no arrival came between.
@example(_dram_case([0, 4, 8, 5], [0, 1, 2, 3]))
# With cap 2, the hit 1 bypasses line 6 (bank 1, row 1), so 6 is capped
# and served next, though a hit, line 0 again, waits behind it; that is
# still a hit behind 10 (bank 1, row 2), and the scheduler must find it.
@example(_dram_case([0, 6, 1, 10, 0], [0, 1, 2, 3, 4], cap=2))
# One slot: FCFS, with hits, closed banks and conflicts.
@example(_dram_case([0, 1, 4, 0, 2, 8, 9, 3], [0] * 8, depth=1))
def test_simulate_core_matches_reference(case):
    trace, dram = case
    got = dramsim.simulate(trace, dram, collect_events=True)
    assert_same_dram(got, simulate_reference(trace, dram))
    assert dramsim.simulate(trace, dram).events is None


def test_simulate_core_matches_at_the_default_geometry():
    # 20,000 random lines at the default 16 banks, cap 4 and depth 32,
    # arriving faster than they are served, so the window stays full and
    # mostly holds no hit; one request in 16 repeats the row of one of the
    # 40 before it, so rows reopen with requests to them still queued, and
    # some arrive on an open row.
    rng = np.random.default_rng(12)
    n = 20000
    lines = rng.integers(0, 1 << 30, n, dtype=np.uint64)
    repeat = np.flatnonzero(rng.random(n) < 1 / 16)
    repeat = repeat[repeat >= 40]
    back = repeat - rng.integers(1, 41, len(repeat))
    lines[repeat] = (lines[back] & ~np.uint64(127)) | rng.integers(0, 128, len(repeat),
                                                                   dtype=np.uint64)
    trace = Trace(lines << np.uint64(LINE_SHIFT), np.cumsum(rng.integers(0, 8, n)),
                  np.zeros(n, np.uint8))
    dram = dramsim.DramConfig()
    got = dramsim.simulate(trace, dram, collect_events=True)
    assert_same_dram(got, simulate_reference(trace, dram))
    assert 0 < got.hits < n // 8


@pytest.mark.parametrize("cap, depth", [(1, 32), (4, 32), (10 ** 30, 10 ** 30), (3, 1)])
def test_simulate_core_matches_on_a_long_trace(cap, depth, tmp_path):
    rng = np.random.default_rng(11)
    trace = Trace(rng.integers(0, 1 << 30, 5000, dtype=np.uint64) & ~np.uint64(63),
                  np.cumsum(rng.integers(0, 40, 5000)), np.zeros(5000, np.uint8))
    dram = dramsim.DramConfig(banks=8, scheme="ChRaBaRoCo", cap=cap, queue_depth=depth)
    got = dramsim.simulate(trace, dram, collect_events=True)
    assert_same_dram(got, simulate_reference(trace, dram))
    # A trace read from a file, whose columns are contiguous, gives the same.
    traceio.write_trace(tmp_path / "t.trace", trace)
    read = traceio.read_trace(tmp_path / "t.trace")
    assert read.vaddr.flags.c_contiguous and read.cycle.flags.c_contiguous
    assert_same_dram(dramsim.simulate(read, dram, collect_events=True), got)
    for arrival in dramsim.ARRIVALS:
        ideal = dramsim.DramConfig(arrival=arrival)
        assert dramsim.simulate_ideal(read, ideal) == dramsim.simulate_ideal(trace, ideal)
