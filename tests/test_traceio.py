import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from memloc import traceio
from memloc.traceio import Trace


def sample_trace(n=100, seed=0):
    rng = np.random.default_rng(seed)
    vaddr = rng.integers(0, 1 << 40, n, dtype=np.uint64) & ~np.uint64(63)
    cycle = np.cumsum(rng.integers(0, 8, n)).astype(np.uint32)
    kind = rng.integers(0, 3, n).astype(np.uint8)
    return Trace(vaddr, cycle, kind)


def test_roundtrip_record_identical(tmp_path):
    t = sample_trace()
    path = tmp_path / "a.trace"
    traceio.write_trace(path, t)
    assert traceio.read_trace(path) == t


def test_roundtrip_byte_identical(tmp_path):
    t = sample_trace(seed=1)
    p1, p2 = tmp_path / "a", tmp_path / "b"
    traceio.write_trace(p1, t)
    traceio.write_trace(p2, traceio.read_trace(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_file_layout(tmp_path):
    t = sample_trace(3, seed=2)
    path = tmp_path / "a.trace"
    traceio.write_trace(path, t)
    raw = path.read_bytes()
    assert len(raw) == 17 + 16 * 3
    assert raw[:4] == b"MLTR"
    assert raw[4] == 1
    assert raw[5:9] == b"\x00" * 4
    assert struct.unpack("<Q", raw[9:17]) == (3,)
    assert struct.unpack("<Q", raw[17:25]) == (int(t.vaddr[0]),)
    assert struct.unpack("<I", raw[25:29]) == (int(t.cycle[0]),)
    assert raw[29] == t.kind[0]
    assert raw[30:33] == b"\x00" * 3


def test_empty_trace(tmp_path):
    path = tmp_path / "e.trace"
    traceio.write_trace(path, Trace.empty())
    assert len(traceio.read_trace(path)) == 0
    assert path.stat().st_size == 17


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE" + b"\x00" * 13)
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(path)


def test_truncated_rejected(tmp_path):
    t = sample_trace(5, seed=3)
    path = tmp_path / "t.trace"
    traceio.write_trace(path, t)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(traceio.TraceFormatError):
        traceio.read_trace(path)


def test_decreasing_cycles_rejected():
    t = Trace(np.zeros(2, np.uint64), np.array([5, 1], np.uint32), np.zeros(2, np.uint8))
    with pytest.raises(traceio.TraceFormatError):
        t.validate()


def test_from_addresses_issue_gap():
    t = Trace.from_addresses([0, 64, 128], issue_gap=4)
    assert t.cycle.tolist() == [0, 4, 8]
    assert t.kind.tolist() == [0, 0, 0]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_addresses_rejects_a_wrapping_cycle():
    # The last cycle, (n - 1) * issue_gap, must fit the u32 cycle field.
    with pytest.raises(ValueError, match="^trace too long: 3 records"):
        Trace.from_addresses(np.zeros(3, np.uint64), issue_gap=2**31)
    trace = Trace.from_addresses(np.zeros(3, np.uint64), issue_gap=2**31 - 1)
    assert trace.cycle.tolist() == [0, 2**31 - 1, 2**32 - 2]
    assert len(Trace.from_addresses(np.zeros(1, np.uint64), issue_gap=2**40)) == 1


def test_from_addresses_holds_no_wide_temporaries():
    # The cycle column is built in u32 in place: no 8-byte-per-record
    # intermediate on top of the 4-byte cycle and 1-byte kind columns.
    vaddr = np.zeros(1_000_000, np.uint64)
    peak = _peak_bytes(Trace.from_addresses, vaddr)
    assert peak <= 1.1 * 5 * len(vaddr)


def test_io_peak_memory_stays_near_the_file_size(tmp_path):
    """Reading holds the 13-byte columns and one record block, writing
    one block: neither holds the whole file as records."""
    t = sample_trace(200_000, seed=4)
    path = tmp_path / "big.trace"
    write_peak = _peak_bytes(traceio.write_trace, path, t)
    size = path.stat().st_size
    read_peak = _peak_bytes(traceio.read_trace, path)
    assert write_peak <= 0.25 * size
    assert read_peak <= 1.0 * size


def _assert_columns(t):
    for name, dtype in (("vaddr", np.uint64), ("cycle", np.uint32), ("kind", np.uint8)):
        column = getattr(t, name)
        assert column.dtype == dtype and column.flags.c_contiguous, name


def test_columns_are_contiguous_and_blocks_round_trip(tmp_path):
    rec = np.zeros(10, traceio.RECORD_DTYPE)
    rec["vaddr"], rec["cycle"] = np.arange(10) * 64, np.arange(10)
    strided = (np.arange(20, dtype=np.uint64)[::2], np.arange(10, dtype=np.uint32),
               np.zeros((10, 2), np.uint8)[:, 1])
    for views in (Trace(rec["vaddr"], rec["cycle"], rec["kind"]), Trace(*strided)):
        _assert_columns(views)
        assert views.vaddr.flags.owndata and views.kind.flags.owndata
    _assert_columns(Trace([64, 128], [0, 4], [0, 1]))
    _assert_columns(Trace(np.arange(3, dtype=np.int64), np.arange(3.0), np.zeros(3, np.int32)))
    b = traceio.BLOCK_RECORDS
    for n in (0, 1, b - 1, b, b + 1, 3 * b + 7):
        t, path = sample_trace(n, seed=n), tmp_path / f"{n}.trace"
        traceio.write_trace(path, t)
        read = traceio.read_trace(path)
        _assert_columns(read)
        assert read == t
        rec = np.zeros(n, traceio.RECORD_DTYPE)
        rec["vaddr"], rec["cycle"], rec["kind"] = t.vaddr, t.cycle, t.kind
        assert path.read_bytes()[traceio.HEADER_SIZE:] == rec.tobytes()


def test_a_file_that_shrinks_after_its_size_check_is_rejected(tmp_path, monkeypatch):
    b, path = traceio.BLOCK_RECORDS, tmp_path / "s.trace"
    traceio.write_trace(path, sample_trace(b + 5, seed=7))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-16])
    # The size check passes, so the last block's read comes up short.
    stat = SimpleNamespace(st_size=size)
    monkeypatch.setattr(traceio, "os", SimpleNamespace(fstat=lambda fd: stat))
    with pytest.raises(traceio.TraceFormatError, match=f"truncated at record {b}$"):
        traceio.read_trace(path)


def test_size_mismatch_with_header_count_rejected(tmp_path):
    path = tmp_path / "x.trace"
    traceio.write_trace(path, sample_trace(4, seed=6))
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(traceio.TraceFormatError, match="size"):
        traceio.read_trace(path)


def test_short_header_and_bad_version_rejected(tmp_path):
    path = tmp_path / "h.trace"
    path.write_bytes(b"MLTR\x01")
    with pytest.raises(traceio.TraceFormatError, match="not a trace"):
        traceio.read_trace(path)
    path.write_bytes(b"MLTR\x02" + b"\x00" * 12)
    with pytest.raises(traceio.TraceFormatError, match="version"):
        traceio.read_trace(path)


def test_unknown_kind_rejected():
    t = Trace(np.zeros(2, np.uint64), np.zeros(2, np.uint32), np.array([0, 3], np.uint8))
    with pytest.raises(traceio.TraceFormatError, match="kind"):
        t.validate()
