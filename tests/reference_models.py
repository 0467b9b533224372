"""Python reference loops of memloc's two simulators, the closed form of
its all-row-hit DRAM bound, its two median-bisection builders, its
decision-tree induction, its tree nodes' row lists, its grid quantiser
and its two space-filling curves, and the test-side views of the
compiled core that they are compared with.

The cache filter (CacheHierarchy, driven by _filter_reference, which
reports the level that served each record and keeps its own counters),
the FR-FCFS-Cap scheduler (_simulate_reference, over _decompose_trace's
bank and row arrays), the all-hit bound (ideal_oracle), recursive
coordinate bisection (reorder_rcb_oracle), the kd-tree's order
(kdtree_order_oracle), the decision tree's nodes (dtree_oracle, with
its _gini), each node's sorted rows (sort_segments_oracle), the SFC
grid (quantize_rows_oracle) and the Morton and Hilbert codes
(morton_*_oracle, hilbert_*_oracle) in Python and numpy.
memsys.filter_to_dram, dramsim.simulate, dramsim.simulate_ideal,
reorder.reorder_rcb, kdtree.KdTree, kernels.gen_dtree_trace,
kernels.node_rows and reorder.reorder_sfc run the compiled core,
_core.c, which must give identical results; test_oracles.py,
test_sfc.py and test_dramsim.py check that, through core_grid,
core_sfc, core_codes, core_walk and core_events where the package
returns less than the core computes, and test_memsys.py and
test_acceptance.py drive the simulator loops directly.  Imported by the
tests, not collected as one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from memloc import _core
from memloc.dramsim import _FIELD_ORDER, DramConfig, DramStats, _bank_row, _schedule
from memloc.memsys import (
    _PAGE_LINES_SHIFT,
    LEVEL_NAMES,
    CacheConfig,
    LevelConfig,
    MemsysStats,
    PrefetchConfig,
)
from memloc.traceio import KIND_PREFETCH, LINE_SHIFT, Trace


class _Level:
    """One set-associative LRU level.  Way order encodes recency (MRU last)."""

    __slots__ = ("ways", "set_mask", "sets")

    def __init__(self, cfg: LevelConfig):
        self.ways = cfg.associativity
        self.set_mask = cfg.num_sets - 1
        self.sets = [[] for _ in range(cfg.num_sets)]

    def lookup(self, line: int) -> bool:
        """Hit: refresh recency and return True.  No fill on miss."""
        ways = self.sets[line & self.set_mask]
        try:
            ways.remove(line)
        except ValueError:
            return False
        ways.append(line)
        return True

    def fill(self, line: int) -> int | None:
        """Insert as MRU; returns the evicted line, if any."""
        ways = self.sets[line & self.set_mask]
        victim = None
        if len(ways) >= self.ways:
            victim = ways.pop(0)
        ways.append(line)
        return victim

    def contains(self, line: int) -> bool:
        return line in self.sets[line & self.set_mask]


class _StridePrefetcher:
    """Per-4KB-page stream table feeding prefetches into L2.

    Trains on the L2 access stream (L1 demand misses).  A confirmed
    stride (two consecutive same-page deltas equal) issues `hw_degree`
    line prefetches ahead; an L2 demand miss also issues a next-line
    prefetch, modeling default next-line behavior.
    """

    def __init__(self, cfg: PrefetchConfig):
        self.cfg = cfg
        self.table: dict = {}  # page -> (last_line, stride)

    def observe(self, line: int, l2_miss: bool):
        page = line >> _PAGE_LINES_SHIFT
        out = []
        entry = self.table.get(page)
        if entry is not None:
            last, stride = entry
            delta = line - last
            if delta != 0 and delta == stride:
                for i in range(1, self.cfg.hw_degree + 1):
                    out.append(line + delta * (self.cfg.hw_distance + i - 1))
            self.table[page] = (line, delta)
        else:
            self.table[page] = (line, 0)
        if l2_miss:
            out.append(line + 1)
        return out


class CacheHierarchy:
    """Three-level demand filter with prefetch accounting."""

    def __init__(self, cache: CacheConfig = CacheConfig(),
                 pf: PrefetchConfig = PrefetchConfig()):
        self.levels = [_Level(c) for c in cache.levels]
        self.pf = pf
        self.stats = MemsysStats()
        self.hw = _StridePrefetcher(pf) if pf.hw else None
        self.pf_lines: set = set()  # hw-prefetched L2 lines not yet demand-hit
        self.sw_level = LEVEL_NAMES.index(pf.sw_target)

    def _fill_l2(self, line: int, prefetched: bool):
        victim = self.levels[1].fill(line)
        if prefetched:
            self.pf_lines.add(line)
        if victim is not None:
            self.pf_lines.discard(victim)  # evicted unused -> stays useless

    def access_demand(self, line: int) -> int:
        """Returns the level that served the access: 0-2 for L1-L3, 3 for DRAM."""
        st = self.stats
        st.demand_accesses[0] += 1
        if self.levels[0].lookup(line):
            return 0
        st.demand_misses[0] += 1
        st.demand_accesses[1] += 1
        l2_hit = self.levels[1].lookup(line)
        if l2_hit and line in self.pf_lines:
            self.pf_lines.discard(line)
            st.hw_prefetches_useful += 1
        if not l2_hit:
            st.demand_misses[1] += 1
        if self.hw is not None:
            for pline in self.hw.observe(line, not l2_hit):
                if not self.levels[1].contains(pline):
                    st.hw_prefetches_issued += 1
                    self._fill_l2(pline, prefetched=True)
        if l2_hit:
            self.levels[0].fill(line)
            return 1
        st.demand_accesses[2] += 1
        if self.levels[2].lookup(line):
            self._fill_l2(line, prefetched=False)
            self.levels[0].fill(line)
            return 2
        st.demand_misses[2] += 1
        self.levels[2].fill(line)
        self._fill_l2(line, prefetched=False)
        self.levels[0].fill(line)
        st.dram_demand_accesses += 1
        return 3

    def access_prefetch(self, line: int) -> bool:
        """Software prefetch: fills only the target level; not demand."""
        self.stats.sw_prefetches_seen += 1
        lvl = self.levels[self.sw_level]
        if lvl.lookup(line):
            return False
        victim = lvl.fill(line)
        if self.sw_level == 1 and victim is not None:
            self.pf_lines.discard(victim)
        return True


def _filter_reference(lines: np.ndarray, kinds: np.ndarray, cache: CacheConfig,
                      pf: PrefetchConfig):
    """(level per record, stats) of the Python loop over CacheHierarchy:
    the reference for tests.  A demand record's level is the one that
    served it (3 for DRAM), a prefetch record's 4; the stats are the
    hierarchy's own counters, not derived from the levels."""
    hier = CacheHierarchy(cache, pf)
    demand = hier.access_demand
    prefetch = hier.access_prefetch
    level = np.empty(len(lines), dtype=np.uint8)
    for i, (line, kind) in enumerate(zip(lines.tolist(), kinds.tolist())):
        if kind == KIND_PREFETCH:
            prefetch(line)
            level[i] = 4
        else:
            level[i] = demand(line)
    return level, hier.stats


def _decompose_trace(trace: Trace, dram: DramConfig):
    """(bank, row) int64 arrays of a trace's lines, the scheme's fields
    taken from the LSB up: the scheduler reference's address mapping,
    which dramsim._bank_row's shifts and masks must agree with."""
    line = (trace.vaddr >> np.uint64(LINE_SHIFT)).astype(np.int64)
    bits, fields = dram.field_bits(), {}
    for name in _FIELD_ORDER[dram.scheme]:
        width = min(bits[name], 63)  # lines have 58 bits: a wider field takes them all
        fields[name] = line & ((1 << width) - 1)
        line = line >> width
    return fields["bank"], fields["row"]


def _simulate_reference(bank_arr, row_arr, arrive_arr, dram: DramConfig):
    """(stats, kinds 'h'/'m'/'c' in service order) of the FR-FCFS-Cap
    loop in Python over _decompose_trace's bank and row arrays and
    arrival_cycles, with dram's bank count, latencies, cap and window
    depth: the reference for tests."""
    n = len(bank_arr)
    t_hit, t_closed, t_conflict = dram.hit, dram.closed, dram.conflict
    nbanks, queue_depth = dram.banks, dram.queue_depth
    stats = DramStats(total=n)

    bank_id = bank_arr.tolist()
    row = row_arr.tolist()
    arrive = arrive_arr.tolist()
    open_row = [-1] * nbanks
    bank_stats: dict = {}
    lat_sum = 0
    next_req = 0
    window: list = []  # [req_index, bypass_count, bank, row], arrival order
    queued = {}  # (bank, row) -> number of window entries
    hits_queued = 0  # window entries matching their bank's open row
    t = 0
    max_bypass = dram.cap - 1  # cap=1 -> no bypass -> FCFS
    events = []

    while window or next_req < n:
        while next_req < n and len(window) < queue_depth and arrive[next_req] <= t:
            b = bank_id[next_req]
            r = row[next_req]
            window.append([next_req, 0, b, r])
            key = (b, r)
            queued[key] = queued.get(key, 0) + 1
            if open_row[b] == r:
                hits_queued += 1
            next_req += 1
        if not window:
            t = arrive[next_req]
            continue
        pick_pos = 0
        if hits_queued and len(window) > 1:
            # A row-hit may bypass older requests only while none of the
            # bypassed ones has exhausted its budget of cap-1 bypasses.
            for pos, entry in enumerate(window):
                if open_row[entry[2]] == entry[3]:
                    pick_pos = pos
                    break
                if entry[1] >= max_bypass:
                    break
        req, _, b, r = window.pop(pick_pos)
        if pick_pos:
            for pos in range(pick_pos):
                window[pos][1] += 1
        key = (b, r)
        left = queued[key] - 1
        if left:
            queued[key] = left
        else:
            del queued[key]
        prev = open_row[b]
        if prev == r:
            kind, service = 0, t_hit
            hits_queued -= 1  # the popped entry itself was a hit
        else:
            if prev == -1:
                kind, service = 1, t_closed
            else:
                kind, service = 2, t_conflict
                hits_queued -= queued.get((b, prev), 0)
            hits_queued += queued.get(key, 0)
            open_row[b] = r
        start = t if t > arrive[req] else arrive[req]
        t = start + service
        lat_sum += t - arrive[req]
        bs = bank_stats.get(b)
        if bs is None:
            bs = bank_stats[b] = [0, 0, 0]
        bs[kind] += 1
        events.append("hmc"[kind])

    stats.avg_latency = lat_sum / n
    stats.per_bank = {
        b: {"hits": v[0], "misses": v[1], "conflicts": v[2]}
        for b, v in sorted(bank_stats.items())
    }
    stats.hits, stats.misses, stats.conflicts = map(sum, zip(*bank_stats.values()))
    return stats, events


def arrival_cycles(trace: Trace, dram: DramConfig) -> np.ndarray:
    """The int64 arrival cycles the simulators read: the record cycles,
    or one request every `dram.arrival_gap` cycles from cycle 0."""
    if dram.arrival == "from-trace":
        return trace.cycle.astype(np.int64)
    return np.arange(len(trace), dtype=np.int64) * dram.arrival_gap


def ideal_oracle(trace: Trace, dram: DramConfig) -> float:
    """simulate_ideal's mean latency in closed form.  All hits mean the
    scheduler never reorders, so the FCFS service chain
    t_i = max(t_{i-1}, arrive_i) + t_hit has the closed form below; it
    reads the arrivals alone, not where the requests map."""
    arrive_arr = arrival_cycles(trace, dram)
    n = len(trace)
    t_hit = dram.hit
    idx = np.arange(n, dtype=np.int64)
    finish = np.maximum.accumulate(arrive_arr - t_hit * idx) + t_hit * (idx + 1)
    return float(np.mean(finish - arrive_arr))


def reorder_rcb_oracle(data: np.ndarray, leaf_size: int) -> np.ndarray:
    """Recursive coordinate bisection.

    Splits at the lower median of the dimension with the largest spread
    (ties go to the lowest dimension index) until partitions have at
    most `leaf_size` points.  Splits are stable on equal keys.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (n, m) array")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if not np.isfinite(data).all():
        raise ValueError("data holds NaN or infinite values")

    out = []

    def split(idx: np.ndarray):
        if len(idx) <= leaf_size:
            out.append(idx)
            return
        pts = data[idx]
        spread = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spread))
        order = np.argsort(pts[:, axis], kind="stable")
        left = (len(idx) + 1) // 2
        split(idx[order[:left]])
        split(idx[order[left:]])

    split(np.arange(data.shape[0], dtype=np.int64))
    return np.concatenate(out)


def kdtree_order_oracle(data: np.ndarray) -> np.ndarray:
    """KdTree's `order`, built level by level with one stable lexsort per
    depth over every subtree at once."""
    data = np.asarray(data, dtype=np.float64)
    n, m = data.shape
    # group[p] is the first position of the subtree holding p at this
    # depth, so one stable lexsort sorts every subtree at once.  The
    # subtrees deeper than n.bit_length() - 2 hold one row at most.
    order, pos = np.arange(n), np.arange(n)
    group = np.zeros(n, dtype=np.int64)
    for depth in range(n.bit_length() - 1):
        order = order[np.lexsort((data[order, depth % m], group))]
        mid = group + np.bincount(group, minlength=n)[group] // 2
        group = np.where(pos < mid, group, np.minimum(pos, mid + 1))
    return order


def _gini(labels: np.ndarray) -> float:
    """1 - the sum of squared class shares, summed left to right (not by
    the host's BLAS), so splits are the same on every host."""
    _, counts = np.unique(labels, return_counts=True)
    total = 0.0
    for share in (counts / counts.sum()).tolist():
        total += share * share
    return 1.0 - total


def dtree_oracle(data: np.ndarray, labels: np.ndarray, max_depth: int):
    """(nodes, leaves): the row lists of the greedy threshold tree's
    nodes, depth first, and of its leaves, each in storage order, grown
    by one recursive call per node with np.median and _gini."""
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    nodes: list = []
    leaves: list = []

    def grow(idx: np.ndarray, depth: int):
        nodes.append(idx)
        best = None
        if depth < max_depth and (parent := _gini(labels[idx])) != 0.0:
            for j in range(data.shape[1]):
                col = data[idx, j]
                mask = col <= float(np.median(col))
                nl = int(mask.sum())
                if nl == 0 or nl == len(idx):
                    continue
                score = (nl * _gini(labels[idx[mask]])
                         + (len(idx) - nl) * _gini(labels[idx[~mask]])) / len(idx)
                if best is None or score < best[0]:
                    best = (score, mask)
        if best is None or best[0] >= parent:
            leaves.append(idx)
            return
        grow(idx[best[1]], depth + 1)
        grow(idx[~best[1]], depth + 1)

    grow(np.arange(data.shape[0], dtype=np.int64), 1)
    return nodes, leaves


def sort_segments_oracle(rows: np.ndarray, starts: np.ndarray, n: int) -> np.ndarray:
    """rows, values below n, with each segment rows[starts[i]:starts[i + 1]]
    sorted: one sort by segment * n + row.  kernels.node_rows gives this
    for a tree's nodes, their rows relabelled through the inverse of its
    order."""
    segment = np.repeat(np.arange(len(starts) - 1), np.diff(starts))
    return np.sort(segment * n + rows) % n


def quantize_rows_oracle(data: np.ndarray, bits: int) -> np.ndarray:
    """reorder.reorder_sfc's grid as numpy: floor((x - lo) / span * top + 0.5)
    between each axis's min and max, clamped to the grid, and 0 on an axis
    of span 0.  Above 53 bits float64 rounds `top` up to 2^bits, so the
    clamp stays below that."""
    data = np.asarray(data, dtype=np.float64)
    lo = data.min(axis=0)
    span = data.max(axis=0) - lo
    top = (1 << bits) - 1
    ceiling = min(float(top), np.nextafter(float(1 << bits), 0))
    out = np.zeros(data.shape, dtype=np.uint64)
    live = span > 0
    scaled = np.floor((data[:, live] - lo[live]) / span[live] * top + 0.5)
    out[:, live] = np.clip(scaled, 0, ceiling).astype(np.uint64)
    return out


def core_grid(data: np.ndarray, bits: int) -> np.ndarray:
    """memloc_quantize's grid of the (n, m) rows; ValueError when an axis's
    max - min is not finite."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    grid = np.empty(data.shape, dtype=np.uint64)
    if _core.load().memloc_quantize(*data.shape, data, bits, grid):
        raise ValueError("hi - lo must be finite")
    return grid


# The SFC codes as one bit loop per function and curve (Skilling, AIP
# Conf. Proc. 707, 2004, for Hilbert): the oracles of memloc_sfc.

class Grid(NamedTuple):
    """The oracles' grid: dims axes of bits bits each."""

    dims: int
    bits: int


def _check_coords(coords, cfg: Grid):
    if len(coords) != cfg.dims:
        raise ValueError(f"expected {cfg.dims} coordinates, got {len(coords)}")
    side = 1 << cfg.bits
    for c in coords:
        if not 0 <= c < side:
            raise ValueError(f"coordinate {c} outside [0, {side})")


def _check_code(code: int, cfg: Grid):
    if not 0 <= code < (1 << cfg.dims * cfg.bits):
        raise ValueError(f"code {code} outside [0, 2^{cfg.dims * cfg.bits})")


def morton_encode_oracle(coords, cfg: Grid) -> int:
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


def morton_decode_oracle(code: int, cfg: Grid):
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


def hilbert_encode_oracle(coords, cfg: Grid) -> int:
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


def hilbert_decode_oracle(code: int, cfg: Grid):
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


def core_sfc(grid_rows: np.ndarray, bits: int, curve: str):
    """memloc_sfc's code words, least significant word first, and order
    of the (n, d) uint64 grid."""
    n, d = grid_rows.shape
    words = np.empty((-(-d * bits // 64), n), dtype=np.uint64)
    order = np.empty(n, dtype=np.int64)
    _core.load().memloc_sfc(n, d, np.ascontiguousarray(grid_rows, dtype=np.uint64), bits,
                            curve == "hilbert", words, order)
    return words, order


def core_codes(points, cfg: Grid, curve: str) -> list:
    """memloc_sfc's codes of grid points, as Python ints."""
    grid = np.array(points, dtype=np.uint64).reshape(-1, cfg.dims)
    words, _ = core_sfc(grid, cfg.bits, curve)
    return [sum(w << 64 * i for i, w in enumerate(col)) for col in words.T.tolist()]


def core_walk(dims: int, bits: int, curve: str) -> np.ndarray:
    """The cells of the full grid of side 2^bits in dims dimensions, in
    memloc_sfc's order: the curve's walk, cell i of code i."""
    cells = np.indices((1 << bits,) * dims).reshape(dims, -1).T
    return cells[core_sfc(cells, bits, curve)[1]]


def core_events(trace: Trace, dram: DramConfig) -> list:
    """dramsim.simulate's request kinds in service order, 'h' hit, 'm'
    closed bank and 'c' conflict, from the core's events array."""
    _, events, _ = _schedule(trace, dram, _bank_row(dram), dram.banks,
                             (dram.hit, dram.closed, dram.conflict), dram.cap, dram.queue_depth)
    return ["hmc"[kind] for kind in events.tolist()]
