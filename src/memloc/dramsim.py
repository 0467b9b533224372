"""Cycle-approximate DRAM model with per-bank row buffers.

Addresses are decomposed by a named bit-field scheme (fields read
right-to-left from the LSB, after dropping the line-offset bits).
The scheduler is FR-FCFS-Cap: oldest row-hit-ready request first,
falling back to strict oldest-first once the globally oldest request
has exhausted its bypass budget (cap=1 degenerates to FCFS).  Service
latencies: hit tCL+tBURST, closed bank tRCD+tCL+tBURST, conflict
tRP+tRCD+tCL+tBURST.  simulate runs a compiled copy (_core.c) of the
scheduler loop in _simulate_reference, which runs when that cannot be
built, and in tests as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _core
from .traceio import LINE_SHIFT, LINE_SIZE, Trace

SCHEMES = ("RoBaRaCoCh", "ChRaBaRoCo")
_EVENT_CHARS = bytes.maketrans(bytes([0, 1, 2]), b"hmc")

_FIELD_ORDER = {
    # scheme -> field names from LSB upward (name read right-to-left)
    "RoBaRaCoCh": ("channel", "column", "rank", "bank", "row"),
    "ChRaBaRoCo": ("column", "row", "bank", "rank", "channel"),
}


@dataclass(frozen=True)
class DramGeometry:
    channels: int = 1
    ranks: int = 1
    banks: int = 16
    rows_per_bank: int = 32768
    row_size_bytes: int = 8192

    def __post_init__(self):
        for v in (self.channels, self.ranks, self.banks, self.rows_per_bank,
                  self.row_size_bytes):
            if v & (v - 1) or v < 1:
                raise ValueError("geometry counts must be powers of two")

    @property
    def columns_per_row(self) -> int:
        return self.row_size_bytes // LINE_SIZE

    def field_bits(self) -> dict:
        return {
            "channel": (self.channels - 1).bit_length(),
            "rank": (self.ranks - 1).bit_length(),
            "bank": (self.banks - 1).bit_length(),
            "row": (self.rows_per_bank - 1).bit_length(),
            "column": (self.columns_per_row - 1).bit_length(),
        }


@dataclass(frozen=True)
class DramTiming:
    tCL: int = 16
    tRCD: int = 16
    tRP: int = 16
    tBURST: int = 4

    def __post_init__(self):
        if min(self.tCL, self.tRCD, self.tRP, self.tBURST) < 1:
            raise ValueError("timing parameters must be positive")

    @property
    def hit(self) -> int:
        return self.tCL + self.tBURST

    @property
    def closed(self) -> int:
        return self.tRCD + self.tCL + self.tBURST

    @property
    def conflict(self) -> int:
        return self.tRP + self.tRCD + self.tCL + self.tBURST


@dataclass
class DramStats:
    hits: int = 0
    misses: int = 0  # closed-bank activations
    conflicts: int = 0
    total: int = 0
    avg_latency: float = 0.0
    per_bank: dict = field(default_factory=dict)
    events: list | None = None  # per-request 'h'/'m'/'c' in service order

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.total if self.total else 0.0


def _fields(line, scheme: str, geom: DramGeometry) -> dict:
    """Split a line number (int or int64 array) into the scheme's fields."""
    if scheme not in _FIELD_ORDER:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    bits = geom.field_bits()
    out = {}
    for name in _FIELD_ORDER[scheme]:
        w = bits[name]
        out[name] = line & ((1 << w) - 1)
        line >>= w
    return out


def map_address(paddr: int, scheme: str, geom: DramGeometry = DramGeometry()):
    """Decompose a physical address into (channel, rank, bank, row, column).

    Addresses beyond the geometry's capacity wrap modulo capacity.
    """
    f = _fields(int(paddr) >> LINE_SHIFT, scheme, geom)
    return (f["channel"], f["rank"], f["bank"], f["row"], f["column"])


def _decompose_trace(trace: Trace, scheme: str, geom: DramGeometry):
    """Vectorized (bank_id, row) arrays; bank_id folds channel and rank in."""
    f = _fields((trace.vaddr >> np.uint64(LINE_SHIFT)).astype(np.int64), scheme, geom)
    bank_id = (f["channel"] * geom.ranks + f["rank"]) * geom.banks + f["bank"]
    return bank_id, f["row"]


def _prepare(trace: Trace, geom: DramGeometry, scheme: str, arrival: str,
             arrival_gap: int):
    """(bank_id, row, arrival cycle) int64 arrays of a checked request trace."""
    n = len(trace)
    if n == 0:
        raise ValueError("trace is empty")
    bank_arr, row_arr = _decompose_trace(trace, scheme, geom)
    if arrival == "from-trace":
        arrive_arr = trace.cycle.astype(np.int64)
    elif arrival == "fixed-gap":
        if arrival_gap < 0:
            raise ValueError("arrival_gap must be >= 0")
        arrive_arr = np.arange(n, dtype=np.int64) * arrival_gap
    else:
        raise ValueError(f"unknown arrival model {arrival!r}")
    return bank_arr, row_arr, arrive_arr


def simulate(trace: Trace, geom: DramGeometry = DramGeometry(),
             timing: DramTiming = DramTiming(), scheme: str = "RoBaRaCoCh",
             cap: int = 4, arrival: str = "from-trace", arrival_gap: int = 4,
             queue_depth: int = 32, collect_events: bool = False) -> DramStats:
    """Run the FR-FCFS-Cap model over a trace and return DramStats.

    arrival "from-trace" uses record cycles; "fixed-gap" spaces
    arrivals `arrival_gap` cycles apart.  Only the `queue_depth`
    oldest outstanding requests are visible to the scheduler.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    args = (*_prepare(trace, geom, scheme, arrival, arrival_gap),
            geom.channels * geom.ranks * geom.banks, timing, cap, queue_depth, collect_events)
    core = _core.load()
    return _simulate_reference(*args) if core is None else _simulate_core(core, *args)


def _simulate_core(core, bank_arr, row_arr, arrive_arr, nbanks: int, timing: DramTiming,
                   cap: int, queue_depth: int, collect_events: bool) -> DramStats:
    """The compiled core's copy of _simulate_reference."""
    n = len(bank_arr)
    counts = np.zeros((nbanks, 3), dtype=np.int64)
    events = np.zeros(n, dtype=np.uint8)
    latency = np.zeros(2, dtype=np.uint64)
    # Bypass counts and the window never exceed n, so larger caps and
    # depths act as n + 1 and n do.
    if core.memloc_simulate(n, bank_arr, row_arr, arrive_arr, nbanks, timing.hit,
                            timing.closed, timing.conflict, min(cap, n + 1) - 1,
                            min(queue_depth, n), counts, events, latency):
        raise MemoryError("dramsim: out of memory")
    lo, hi = latency.tolist()
    hits, misses, conflicts = counts.sum(axis=0).tolist()
    return DramStats(
        hits=hits, misses=misses, conflicts=conflicts, total=n,
        avg_latency=(hi << 64 | lo) / n,
        per_bank={int(b): dict(zip(("hits", "misses", "conflicts"), counts[b].tolist()))
                  for b in np.flatnonzero(counts.any(axis=1))},
        events=list(events.tobytes().translate(_EVENT_CHARS).decode()) if collect_events
        else None)


def _simulate_reference(bank_arr, row_arr, arrive_arr, nbanks: int, timing: DramTiming,
                        cap: int, queue_depth: int, collect_events: bool) -> DramStats:
    """The FR-FCFS-Cap loop in Python over _prepare's arrays: the fallback
    without a compiled core, and the reference for tests."""
    n = len(bank_arr)
    t_hit, t_closed, t_conflict = timing.hit, timing.closed, timing.conflict
    stats = DramStats(total=n, events=[] if collect_events else None)

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
    max_bypass = cap - 1  # cap=1 -> no bypass -> FCFS
    events = stats.events

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
        if events is not None:
            events.append("hmc"[kind])

    stats.avg_latency = lat_sum / n
    stats.per_bank = {
        b: {"hits": v[0], "misses": v[1], "conflicts": v[2]}
        for b, v in sorted(bank_stats.items())
    }
    stats.hits, stats.misses, stats.conflicts = map(sum, zip(*bank_stats.values()))
    return stats


def simulate_ideal(trace: Trace, geom: DramGeometry = DramGeometry(),
                   timing: DramTiming = DramTiming(), scheme: str = "RoBaRaCoCh",
                   arrival: str = "from-trace", arrival_gap: int = 4) -> DramStats:
    """Every request serviced at row-hit latency; hit ratio reported as 1.

    All hits mean the scheduler never reorders, so the FCFS service chain
    t_i = max(t_{i-1}, arrive_i) + t_hit has the closed form below.
    """
    bank_arr, _, arrive_arr = _prepare(trace, geom, scheme, arrival, arrival_gap)
    n = len(trace)
    t_hit = timing.hit
    idx = np.arange(n, dtype=np.int64)
    finish = np.maximum.accumulate(arrive_arr - t_hit * idx) + t_hit * (idx + 1)
    return DramStats(
        hits=n, total=n, avg_latency=float(np.mean(finish - arrive_arr)),
        per_bank={int(b): {"hits": int(c), "misses": 0, "conflicts": 0}
                  for b, c in enumerate(np.bincount(bank_arr)) if c})


def improvement(actual: DramStats, ideal: DramStats) -> float:
    """Percent latency reduction available from perfect row-buffer hits."""
    if actual.avg_latency == 0:
        return 0.0
    return 100.0 * (actual.avg_latency - ideal.avg_latency) / actual.avg_latency
