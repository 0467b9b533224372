"""Set-associative LRU cache hierarchy with prefetch models.

Filters a demand trace down to the accesses that reach DRAM.  The
hierarchy is non-inclusive with fill-on-miss along the lookup path.
A per-page stride prefetcher (with next-line behavior on misses)
models the default hardware prefetching into L2; software prefetch
records fill only their target level and are never counted as demand.
filter_to_dram runs the model and inject_sw_prefetch inserts those
records in the compiled core (_core.c), which needs a C compiler; the
Python loops the tests compare them against live in tests/.  The core
reads the trace's vaddr and kind columns as they are, keeps each cache
set as an LRU stack, an array in recency order that a hit or fill moves
to the front, and reports the level that served each record, 1 byte per
record, and the count of each level beside the HW counters.  From these
filter_to_dram sizes the DRAM trace exactly, and a second core pass,
memloc_take, copies the DRAM records into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
        if self.capacity_bytes < 1 or self.associativity < 1:
            raise ValueError("capacity and associativity must be >= 1")
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

    @cached_property
    def _geometry(self) -> tuple:
        """(sets, ways) per level, the arrays memloc_filter reads, built on
        a config's first filter."""
        return (np.array([c.num_sets for c in self.levels], dtype=np.int64),
                np.array([c.associativity for c in self.levels], dtype=np.int64))


@dataclass(frozen=True)
class PrefetchConfig:
    """The `prefetch` section of a pipeline config, field for field: the
    HW stride prefetcher into L2, on with `hw`, and the target level and
    distance of injected software prefetch records."""

    hw: bool = False
    hw_degree: int = 2
    hw_distance: int = 1
    sw_target: str = "L2"
    sw_distance: int = 16  # checked by inject_sw_prefetch, which takes it

    def __post_init__(self):
        if self.hw:
            if self.hw_degree < 1 or self.hw_distance < 1:
                raise ValueError("degree and distance must be >= 1")
            # A prefetch line, line + stride * (distance + degree - 1) with a
            # stride under one page, then stays inside int64.
            if self.hw_degree + self.hw_distance > 1 << 56:
                raise ValueError("degree + distance must be <= 2**56")
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


def _levels(trace: Trace, cache: CacheConfig, pf: PrefetchConfig):
    """The compiled filter's level per record and its stats (see memloc_filter):
    [HW issued, HW useful] and the records served at each of levels 0-4."""
    level = np.empty(len(trace), dtype=np.uint8)
    stats = np.zeros(7, dtype=np.int64)
    degree, distance = (pf.hw_degree, pf.hw_distance) if pf.hw else (0, 0)
    _core.load().memloc_filter(
        len(trace), trace.vaddr, LINE_SHIFT, trace.kind, level, *cache._geometry,
        LEVEL_NAMES.index(pf.sw_target), KIND_PREFETCH,
        degree, distance, _PAGE_LINES_SHIFT, stats)
    return level, stats.tolist()


def filter_to_dram(trace: Trace, cache: CacheConfig = CacheConfig(),
                   pf: PrefetchConfig = PrefetchConfig()):
    """Simulate the hierarchy; return (dram_trace, stats).

    The output is the order-preserving subsequence of demand accesses
    that miss every level.  No cycle is read, so the trace is not
    checked here: read_trace checks every trace that comes from a file.
    """
    level, (*hw, l1, l2, l3, dram, sw) = _levels(trace, cache, pf)
    misses = [l2 + l3 + dram, l3 + dram, dram]  # a level's misses are the next one's accesses
    out = Trace.empty(dram)
    _core.load().memloc_take(len(trace), level, 3, trace.vaddr, trace.cycle, trace.kind,
                             out.vaddr, out.cycle, out.kind)
    return out, MemsysStats([l1 + misses[0], *misses[:2]], misses, *hw, sw, dram)


def inject_sw_prefetch(trace: Trace, distance: int) -> Trace:
    """Insert a prefetch record before each demand access for the demand
    address `distance` positions ahead (an oracle of the kernel's future
    accesses, standing in for compiler-inserted prefetch intrinsics)."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    n = len(trace)
    demands = int(np.count_nonzero(trace.kind != KIND_PREFETCH))
    size = n + max(0, demands - distance)  # a prefetch for each demand but the last `distance`
    out = Trace.empty(size)
    # A distance past n + 1 injects nothing either, and fits in int64.
    _core.load().memloc_inject(n, trace.vaddr, trace.cycle, trace.kind, min(distance, n + 1),
                               KIND_PREFETCH, out.vaddr, out.cycle, out.kind)
    return out
