"""Bit-exact binary access-trace format.

Layout:
  header, 17 bytes: magic "MLTR" (4), version (1), zero padding (4),
  record count (8-byte little-endian)
  records, 16 bytes each: vaddr (8 LE), cycle (4 LE), kind (1),
  zero padding (3)

kind: 0 = read, 1 = write, 2 = prefetch.  Cycles are non-decreasing.
The modelled machine's fixed memory geometry is defined here, once.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"MLTR"
VERSION = 1
HEADER_SIZE = 17
RECORD_SIZE = 16

LINE_SIZE = 64  # a trace is a sequence of line accesses
LINE_SHIFT = 6  # log2(LINE_SIZE): vaddr >> LINE_SHIFT is the line number
PAGE_SIZE = 4096
ISSUE_GAP = 4  # cycles between consecutive generated records
CYCLE_MAX = 2**32 - 1  # a record's cycle is a u32

KIND_READ = 0
KIND_WRITE = 1
KIND_PREFETCH = 2

RECORD_DTYPE = np.dtype(
    [("vaddr", "<u8"), ("cycle", "<u4"), ("kind", "u1"), ("pad", "3u1")]
)
_COLUMNS = ("vaddr", "cycle", "kind")
BLOCK_RECORDS = 16384  # records read_trace and write_trace move through one block


class TraceFormatError(ValueError):
    pass


@dataclass
class Trace:
    """In-memory access trace backed by parallel C-contiguous numpy arrays."""

    vaddr: np.ndarray
    cycle: np.ndarray
    kind: np.ndarray

    def __post_init__(self):
        self.vaddr = np.ascontiguousarray(self.vaddr, dtype=np.uint64)
        self.cycle = np.ascontiguousarray(self.cycle, dtype=np.uint32)
        self.kind = np.ascontiguousarray(self.kind, dtype=np.uint8)
        if not (len(self.vaddr) == len(self.cycle) == len(self.kind)):
            raise TraceFormatError("vaddr/cycle/kind length mismatch")

    def __len__(self):
        return len(self.vaddr)

    def __eq__(self, other):
        return (
            isinstance(other, Trace)
            and np.array_equal(self.vaddr, other.vaddr)
            and np.array_equal(self.cycle, other.cycle)
            and np.array_equal(self.kind, other.kind)
        )

    @classmethod
    def empty(cls, n: int = 0) -> "Trace":
        """A trace of n records whose columns are allocated but not filled."""
        return cls(np.empty(n, np.uint64), np.empty(n, np.uint32), np.empty(n, np.uint8))

    @classmethod
    def from_addresses(cls, vaddr, kind=KIND_READ, issue_gap: int = ISSUE_GAP) -> "Trace":
        """Build a trace with a fixed issue gap between records; a trace
        whose last cycle would not fit the 32-bit cycle field is
        rejected rather than wrapped."""
        vaddr = np.asarray(vaddr, dtype=np.uint64)
        n = len(vaddr)
        if n > 1 and (n - 1) * issue_gap > CYCLE_MAX:
            raise ValueError(f"trace too long: {n} records {issue_gap} cycles apart "
                             f"pass the last cycle the format holds, {CYCLE_MAX}")
        cycle = np.arange(n, dtype=np.uint32)
        if n > 1:  # then the check above keeps issue_gap and every product in u32
            cycle *= issue_gap
        kinds = np.full(n, kind, dtype=np.uint8) if np.isscalar(kind) else kind
        return cls(vaddr, cycle, kinds)

    def validate(self):
        if np.any(self.cycle[1:] < self.cycle[:-1]):
            raise TraceFormatError("cycles must be non-decreasing")
        if np.any(self.kind > KIND_PREFETCH):
            raise TraceFormatError("unknown record kind")


def write_trace(path, trace: Trace):
    trace.validate()
    n = len(trace)
    header = MAGIC + struct.pack("<B", VERSION) + b"\x00" * 4 + struct.pack("<Q", n)
    assert len(header) == HEADER_SIZE
    block = np.zeros(min(n, BLOCK_RECORDS), dtype=RECORD_DTYPE)  # its pad bytes stay zero
    with open(path, "wb") as f:
        f.write(header)
        for lo in range(0, n, BLOCK_RECORDS):
            rec = block[:n - lo]
            for name in _COLUMNS:
                rec[name] = getattr(trace, name)[lo:lo + len(rec)]
            f.write(rec)


def read_trace(path) -> Trace:
    """The trace in `path`, read one record block at a time into its columns."""
    with open(path, "rb") as f:
        header = f.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE or header[:4] != MAGIC:
            raise TraceFormatError(f"{path}: not a trace file")
        version = header[4]
        if version != VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        (count,) = struct.unpack("<Q", header[9:17])
        expected = HEADER_SIZE + RECORD_SIZE * count
        size = os.fstat(f.fileno()).st_size
        if size != expected:
            raise TraceFormatError(f"{path}: size {size} != {expected} for {count} records")
        trace = Trace(*(np.empty(count, RECORD_DTYPE[name]) for name in _COLUMNS))
        block = np.empty(min(count, BLOCK_RECORDS), dtype=RECORD_DTYPE)
        for lo in range(0, count, BLOCK_RECORDS):
            rec = block[:count - lo]
            if f.readinto(rec) != rec.nbytes:
                raise TraceFormatError(f"{path}: truncated at record {lo}")
            for name in _COLUMNS:
                getattr(trace, name)[lo:lo + len(rec)] = rec[name]
    trace.validate()
    return trace
