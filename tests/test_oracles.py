"""Differential tests: the vectorised glue against the loops it replaced.

Each oracle below is the straightforward per-element loop that the
production function used to be.  Hypothesis draws inputs, and the two
must agree exactly.
"""

import csv

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from memloc import memsys, reorder
from memloc.traceio import KIND_PREFETCH, Trace


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


def block_by_page_oracle(seq, row_stride_bytes, page_size_bytes, window):
    seq = np.asarray(seq, dtype=np.int64).ravel()
    pages = (seq * row_stride_bytes) // page_size_bytes
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


def inject_oracle(trace, distance, stream=None):
    demand_idx = np.flatnonzero(trace.kind != KIND_PREFETCH)
    if stream is None:
        stream = trace.vaddr[demand_idx]
    stream = np.asarray(stream, dtype=np.uint64)
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
       st.sampled_from([256, 4096]), st.integers(1, 64))
def test_block_by_page_matches_loop(case, stride, page, window):
    seq, _ = case
    new = reorder.block_by_page(seq, stride, page, window)
    assert new.dtype == np.int64
    assert np.array_equal(new, block_by_page_oracle(seq, stride, page, window))


@st.composite
def traces(draw):
    n = draw(st.integers(0, 200))
    vaddr = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n))
    kind = draw(st.lists(st.sampled_from([0, 0, 0, 1, 2]), min_size=n, max_size=n))
    gaps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    return Trace(np.array(vaddr, np.uint64), np.cumsum(gaps, dtype=np.int64), np.array(kind, np.uint8))


@settings(max_examples=200, deadline=None)
@given(traces(), st.integers(1, 40), st.booleans(), st.integers(0, 250))
def test_inject_sw_prefetch_matches_loop(trace, distance, own_stream, stream_len):
    stream = None if own_stream else np.arange(stream_len, dtype=np.uint64) * 64
    assert memsys.inject_sw_prefetch(trace, distance, stream) == \
        inject_oracle(trace, distance, stream)


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
