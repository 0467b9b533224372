"""Cycle-approximate DRAM model with per-bank row buffers.

Addresses are decomposed by a named bit-field scheme (fields read
right-to-left from the LSB, after dropping the line-offset bits).
The scheduler is FR-FCFS-Cap: oldest row-hit-ready request first,
falling back to strict oldest-first once the globally oldest request
has exhausted its bypass budget (cap=1 degenerates to FCFS).  Service
latencies: hit tCL+tBURST, closed bank tRCD+tCL+tBURST, conflict
tRP+tRCD+tCL+tBURST.  simulate runs it in the compiled core (_core.c,
which needs a C compiler), simulate_ideal too with one row, one slot and
one latency; tests/reference_models.py holds their Python references.
The core reads the trace's vaddr and cycle columns and maps each request
as it enters the scheduler's window, with the bank and row shifts and
masks that simulate derives from the scheme once per trace.  While no
queued request can hit its bank's open row, it serves the oldest without
scanning the window: a scan that finds no hit says so, an arrival on an
open row or a served request whose (bank, row) bucket still counts a
queued request says it may no longer hold.  The results are those of
the full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _core
from .traceio import LINE_SHIFT, LINE_SIZE, Trace

SCHEMES = ("RoBaRaCoCh", "ChRaBaRoCo")
ARRIVALS = ("from-trace", "fixed-gap")
_EVENT_CHARS = bytes.maketrans(bytes([0, 1, 2]), b"hmc")

_FIELD_ORDER = {
    # scheme -> field names from LSB upward (name read right-to-left).  The
    # modelled part has one channel and one rank, so Ch and Ra take no bits.
    "RoBaRaCoCh": ("column", "bank", "row"),
    "ChRaBaRoCo": ("column", "row", "bank"),
}


@dataclass(frozen=True)
class DramConfig:
    """The `dram` section of a pipeline config, field for field: the
    geometry, the timing in cycles, the address-mapping scheme and the
    scheduler's cap, arrival model and window depth."""

    banks: int = 16
    rows_per_bank: int = 32768
    row_size_bytes: int = 8192
    tCL: int = 16
    tRCD: int = 16
    tRP: int = 16
    tBURST: int = 4
    scheme: str = "RoBaRaCoCh"
    cap: int = 4
    arrival: str = "from-trace"  # "fixed-gap" spaces arrivals arrival_gap cycles apart
    arrival_gap: int = 4
    queue_depth: int = 32

    def __post_init__(self):
        for v in (self.banks, self.rows_per_bank, self.row_size_bytes):
            if v & (v - 1) or v < 1:
                raise ValueError("geometry counts must be powers of two")
        if self.row_size_bytes < LINE_SIZE:
            raise ValueError(f"row_size_bytes must be >= the {LINE_SIZE}-byte line")
        if min(self.tCL, self.tRCD, self.tRP, self.tBURST) < 1:
            raise ValueError("timing parameters must be positive")
        if self.cap < 1:
            raise ValueError("cap must be >= 1")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if self.scheme not in _FIELD_ORDER:
            raise ValueError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if self.arrival not in ARRIVALS:
            raise ValueError(f"unknown arrival model {self.arrival!r}")
        if self.arrival == "fixed-gap" and self.arrival_gap < 0:
            raise ValueError("arrival_gap must be >= 0")

    @property
    def columns_per_row(self) -> int:
        return self.row_size_bytes // LINE_SIZE

    def field_bits(self) -> dict:
        return {
            "bank": (self.banks - 1).bit_length(),
            "row": (self.rows_per_bank - 1).bit_length(),
            "column": (self.columns_per_row - 1).bit_length(),
        }

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


def _fields(dram: DramConfig) -> dict:
    """name -> (shift, mask) of the scheme's fields: a field of address a
    is a >> shift & mask."""
    bits, shift, out = dram.field_bits(), LINE_SHIFT, {}
    for name in _FIELD_ORDER[dram.scheme]:
        out[name] = (shift, (1 << bits[name]) - 1)
        shift += bits[name]
    return out


def map_address(paddr: int, dram: DramConfig = DramConfig()):
    """Decompose a physical address into (channel, rank, bank, row, column);
    channel and rank are always 0.

    Addresses beyond the geometry's capacity wrap modulo capacity.
    """
    f = {name: int(paddr) >> shift & mask for name, (shift, mask) in _fields(dram).items()}
    return (0, 0, f["bank"], f["row"], f["column"])


def _bank_row(dram: DramConfig) -> tuple:
    """(bank shift, bank mask, row shift, row mask) with which the core maps
    a trace's requests as map_address does.  A vaddr has 64 bits, so a
    mask keeps the bits below 64 - shift alone, which fit an int64, and a
    field above them all is (0, 0)."""
    fields, out = _fields(dram), ()
    for name in ("bank", "row"):
        shift, mask = fields[name]
        mask &= (1 << max(64 - shift, 0)) - 1
        out += (shift, mask) if mask else (0, 0)
    return out


def _schedule(trace: Trace, dram: DramConfig, bank_row: tuple, nbanks: int, latencies: tuple,
              cap: int, queue_depth: int):
    """(per-bank hit/closed/conflict counts, kinds in service order, mean
    latency) of the compiled scheduler over a checked trace's arrivals
    under `dram`'s arrival model, its requests mapped by bank_row's
    shifts and masks."""
    n = len(trace)
    if n == 0:
        raise ValueError("trace is empty")
    from_trace = dram.arrival == "from-trace"
    # In Python ints: the clock never passes the last arrival plus n services.
    last = int(trace.cycle.max()) if from_trace else (n - 1) * dram.arrival_gap
    if last + n * max(latencies) >= 1 << 63:
        raise ValueError("arrival_gap or timing runs the DRAM clock past 2**63 cycles")
    counts = np.zeros((nbanks, 3), dtype=np.int64)
    events = np.zeros(n, dtype=np.uint8)
    latency = np.zeros(2, dtype=np.uint64)
    # Bypass counts and the window never exceed n, so larger caps and
    # depths act as n + 1 and n do.  A gap of -1 takes arrivals from cycles.
    _core.load().memloc_simulate(n, trace.vaddr, trace.cycle,
                                 -1 if from_trace else dram.arrival_gap, *bank_row, nbanks,
                                 *latencies, min(cap, n + 1) - 1, min(queue_depth, n), counts,
                                 events, latency)
    lo, hi = latency.tolist()
    return counts, events, (hi << 64 | lo) / n


def simulate(trace: Trace, dram: DramConfig = DramConfig(),
             collect_events: bool = False) -> DramStats:
    """Run the FR-FCFS-Cap model over a trace and return DramStats.

    Only the `dram.queue_depth` oldest outstanding requests are visible
    to the scheduler.
    """
    counts, events, avg_latency = _schedule(
        trace, dram, _bank_row(dram), dram.banks, (dram.hit, dram.closed, dram.conflict),
        dram.cap, dram.queue_depth)
    return DramStats(
        *counts.sum(axis=0).tolist(), total=len(trace), avg_latency=avg_latency,
        per_bank={int(b): dict(zip(("hits", "misses", "conflicts"), counts[b].tolist()))
                  for b in np.flatnonzero(counts.any(axis=1))},
        events=list(events.tobytes().translate(_EVENT_CHARS).decode()) if collect_events
        else None)


def simulate_ideal(trace: Trace, dram: DramConfig = DramConfig()) -> DramStats:
    """Every request serviced at row-hit latency; hit ratio reported as 1.

    The scheduler with one row, one slot and one latency serves the oldest
    request first, t_i = max(t_{i-1}, arrive_i) + t_hit; its masks of 0 put
    every request on bank 0, row 0, so it maps no address.
    """
    _, _, avg_latency = _schedule(trace, dram, (0, 0, 0, 0), 1, (dram.hit,) * 3, 1, 1)
    return DramStats(hits=len(trace), total=len(trace), avg_latency=avg_latency)


def improvement(actual: DramStats, ideal: DramStats) -> float:
    """Percent latency reduction available from perfect row-buffer hits."""
    if actual.avg_latency == 0:
        return 0.0
    return 100.0 * (actual.avg_latency - ideal.avg_latency) / actual.avg_latency
