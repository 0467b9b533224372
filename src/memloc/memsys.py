"""Set-associative LRU cache hierarchy with prefetch models.

Filters a demand trace down to the accesses that reach DRAM.  The
hierarchy is non-inclusive with fill-on-miss along the lookup path.
A per-page stride prefetcher (with next-line behavior on misses)
models the default hardware prefetching into L2; software prefetch
records fill only their target level and are never counted as demand.
filter_to_dram runs the model in the compiled core (_core.c), which
needs a C compiler; tests/reference_models.py holds the Python loop the
tests compare it against.
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


def filter_to_dram(trace: Trace, cache: CacheConfig = CacheConfig(),
                   pf: PrefetchConfig = PrefetchConfig()):
    """Simulate the hierarchy; return (dram_trace, stats).

    The output is the order-preserving subsequence of demand accesses
    that miss every level.
    """
    trace.validate()
    lines = (trace.vaddr >> np.uint64(LINE_SHIFT)).astype(np.int64)
    keep = np.zeros(len(lines), dtype=np.uint8)
    counts = np.zeros(10, dtype=np.int64)
    degree, distance = (pf.hw.degree, pf.hw.distance) if pf.hw else (0, 0)
    if _core.load().memloc_filter(
            len(lines), lines, np.ascontiguousarray(trace.kind), keep,
            np.array([c.num_sets for c in cache.levels], dtype=np.int64),
            np.array([c.associativity for c in cache.levels], dtype=np.int64),
            LEVEL_NAMES.index(pf.sw_target), KIND_PREFETCH,
            degree, distance, _PAGE_LINES_SHIFT, counts):
        raise MemoryError("cache filter: out of memory")
    keep = keep.view(bool)
    c = counts.tolist()
    return (Trace(trace.vaddr[keep], trace.cycle[keep], trace.kind[keep]),
            MemsysStats(c[0:3], c[3:6], *c[6:]))


def inject_sw_prefetch(trace: Trace, distance: int) -> Trace:
    """Insert a prefetch record before each demand access for the demand
    address `distance` positions ahead (an oracle of the kernel's future
    accesses, standing in for compiler-inserted prefetch intrinsics)."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    demand_idx = np.flatnonzero(trace.kind != KIND_PREFETCH)
    if distance >= len(demand_idx):
        return Trace(trace.vaddr.copy(), trace.cycle.copy(), trace.kind.copy())
    # Demand access j gets the address of demand access j + distance.
    at = demand_idx[:-distance]
    return Trace(np.insert(trace.vaddr, at, trace.vaddr[demand_idx[distance:]]),
                 np.insert(trace.cycle, at, trace.cycle[at]),
                 np.insert(trace.kind, at, KIND_PREFETCH))
