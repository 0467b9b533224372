"""Set-associative LRU cache hierarchy with prefetch models.

Filters a demand trace down to the accesses that reach DRAM.  The
hierarchy is non-inclusive with fill-on-miss along the lookup path.
A per-page stride prefetcher (with next-line behavior on misses)
models the default hardware prefetching into L2; software prefetch
records fill only their target level and are never counted as demand.
filter_to_dram runs a compiled copy of CacheHierarchy's loop (_core.c);
CacheHierarchy itself runs when that cannot be built, and in tests as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _core
from .traceio import KIND_PREFETCH, LINE_SHIFT, LINE_SIZE, PAGE_SIZE, Trace

LEVEL_NAMES = ("L1", "L2", "L3")
_PAGE_LINES_SHIFT = (PAGE_SIZE >> LINE_SHIFT).bit_length() - 1  # line -> page number


@dataclass(frozen=True)
class LevelConfig:
    capacity_bytes: int
    associativity: int

    def __post_init__(self):
        sets = self.num_sets
        if sets * self.associativity * LINE_SIZE != self.capacity_bytes:
            raise ValueError("capacity must be divisible by ways * line size")
        if sets & (sets - 1):
            raise ValueError("set count must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.capacity_bytes // (self.associativity * LINE_SIZE)


@dataclass(frozen=True)
class CacheConfig:
    l1: LevelConfig = LevelConfig(32 * 1024, 8)
    l2: LevelConfig = LevelConfig(256 * 1024, 8)
    l3: LevelConfig = LevelConfig(8 * 1024 * 1024, 16)

    @property
    def levels(self):
        return (self.l1, self.l2, self.l3)


@dataclass(frozen=True)
class StridePrefetchConfig:
    degree: int = 2
    distance: int = 1

    def __post_init__(self):
        if self.degree < 1 or self.distance < 1:
            raise ValueError("degree and distance must be >= 1")
        # A prefetch line, line + stride * (distance + degree - 1) with a
        # stride under one page, then stays inside int64.
        if self.degree + self.distance > 1 << 56:
            raise ValueError("degree + distance must be <= 2**56")


@dataclass(frozen=True)
class PrefetchConfig:
    hw: StridePrefetchConfig | None = None
    sw_target: str = "L2"  # target level for injected prefetch records

    def __post_init__(self):
        if self.sw_target not in LEVEL_NAMES:
            raise ValueError(f"sw target must be one of {LEVEL_NAMES}")


@dataclass
class MemsysStats:
    demand_accesses: list = field(default_factory=lambda: [0, 0, 0])
    demand_misses: list = field(default_factory=lambda: [0, 0, 0])
    hw_prefetches_issued: int = 0
    hw_prefetches_useful: int = 0
    sw_prefetches_seen: int = 0
    dram_demand_accesses: int = 0

    @property
    def hw_prefetches_useless(self) -> int:
        return self.hw_prefetches_issued - self.hw_prefetches_useful

    @property
    def useless_fraction(self) -> float:
        if self.hw_prefetches_issued == 0:
            return 0.0
        return self.hw_prefetches_useless / self.hw_prefetches_issued

    def miss_ratio(self, level: int) -> float:
        acc = self.demand_accesses[level]
        return self.demand_misses[level] / acc if acc else 0.0


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
    stride (two consecutive same-page deltas equal) issues `degree`
    line prefetches ahead; an L2 demand miss also issues a next-line
    prefetch, modeling default next-line behavior.
    """

    def __init__(self, cfg: StridePrefetchConfig):
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
                for i in range(1, self.cfg.degree + 1):
                    out.append(line + delta * (self.cfg.distance + i - 1))
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
        self.hw = _StridePrefetcher(pf.hw) if pf.hw else None
        self.pf_lines: set = set()  # hw-prefetched L2 lines not yet demand-hit
        self.sw_level = LEVEL_NAMES.index(pf.sw_target)

    def _fill_l2(self, line: int, prefetched: bool):
        victim = self.levels[1].fill(line)
        if prefetched:
            self.pf_lines.add(line)
        if victim is not None:
            self.pf_lines.discard(victim)  # evicted unused -> stays useless

    def access_demand(self, line: int) -> bool:
        """Returns True when the access misses all levels (reaches DRAM)."""
        st = self.stats
        st.demand_accesses[0] += 1
        if self.levels[0].lookup(line):
            return False
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
            return False
        st.demand_accesses[2] += 1
        if self.levels[2].lookup(line):
            self._fill_l2(line, prefetched=False)
            self.levels[0].fill(line)
            return False
        st.demand_misses[2] += 1
        self.levels[2].fill(line)
        self._fill_l2(line, prefetched=False)
        self.levels[0].fill(line)
        st.dram_demand_accesses += 1
        return True

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
    """(keep mask, stats) of the Python loop over CacheHierarchy: the
    fallback without a compiled core, and the reference for tests."""
    hier = CacheHierarchy(cache, pf)
    keep = np.zeros(len(lines), dtype=bool)
    demand = hier.access_demand
    prefetch = hier.access_prefetch
    for i, (line, kind) in enumerate(zip(lines.tolist(), kinds.tolist())):
        if kind == KIND_PREFETCH:
            prefetch(line)
        elif demand(line):
            keep[i] = True
    return keep, hier.stats


def _filter_core(core, lines: np.ndarray, kinds: np.ndarray, cache: CacheConfig,
                 pf: PrefetchConfig):
    """(keep mask, stats) of the compiled core's copy of the same loop."""
    keep = np.zeros(len(lines), dtype=np.uint8)
    counts = np.zeros(10, dtype=np.int64)
    degree, distance = (pf.hw.degree, pf.hw.distance) if pf.hw else (0, 0)
    if core.memloc_filter(len(lines), lines, np.ascontiguousarray(kinds), keep,
                          np.array([c.num_sets for c in cache.levels], dtype=np.int64),
                          np.array([c.associativity for c in cache.levels], dtype=np.int64),
                          LEVEL_NAMES.index(pf.sw_target), KIND_PREFETCH,
                          degree, distance, _PAGE_LINES_SHIFT, counts):
        raise MemoryError("cache filter: out of memory")
    c = counts.tolist()
    return keep.view(bool), MemsysStats(c[0:3], c[3:6], *c[6:])


def filter_to_dram(trace: Trace, cache: CacheConfig = CacheConfig(),
                   pf: PrefetchConfig = PrefetchConfig()):
    """Simulate the hierarchy; return (dram_trace, stats).

    The output is the order-preserving subsequence of demand accesses
    that miss every level.
    """
    trace.validate()
    lines = (trace.vaddr >> np.uint64(LINE_SHIFT)).astype(np.int64)
    core = _core.load()
    if core is None:
        keep, stats = _filter_reference(lines, trace.kind, cache, pf)
    else:
        keep, stats = _filter_core(core, lines, trace.kind, cache, pf)
    return Trace(trace.vaddr[keep], trace.cycle[keep], trace.kind[keep]), stats


def inject_sw_prefetch(trace: Trace, distance: int,
                       stream: np.ndarray | None = None) -> Trace:
    """Insert a prefetch record before each access for the address
    `distance` positions ahead in the demand stream.

    By default the annotated stream is the trace's own demand
    addresses (an oracle of the kernel's future accesses, standing in
    for compiler-inserted prefetch intrinsics).
    """
    if distance < 1:
        raise ValueError("distance must be >= 1")
    demand_idx = np.flatnonzero(trace.kind != KIND_PREFETCH)
    if stream is None:
        stream = trace.vaddr[demand_idx]
    stream = np.asarray(stream, dtype=np.uint64)
    if distance >= len(stream):
        return Trace(trace.vaddr.copy(), trace.cycle.copy(), trace.kind.copy())
    # Demand access j gets stream[j + distance] while that exists.
    at = demand_idx[:len(stream) - distance]
    return Trace(np.insert(trace.vaddr, at, stream[distance:distance + len(at)]),
                 np.insert(trace.cycle, at, trace.cycle[at]),
                 np.insert(trace.kind, at, KIND_PREFETCH))
