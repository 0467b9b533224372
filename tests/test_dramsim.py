import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memloc import dramsim
from memloc.dramsim import DramConfig, improvement, simulate, simulate_ideal
from memloc.traceio import Trace
from reference_models import _decompose_trace, core_events, ideal_oracle

DRAM = DramConfig()


def trace_of(rows, bank=0, gap=0):
    """Single-channel trace hitting (bank, row) pairs; RoBaRaCoCh layout."""
    addrs = [((r * DRAM.banks + bank) * DRAM.columns_per_row) * 64 for r in rows]
    cyc = np.arange(len(rows), dtype=np.uint32) * gap
    return Trace(np.asarray(addrs, np.uint64), cyc, np.zeros(len(rows), np.uint8))


def frfcfs_oracle(rows, arrivals, hit, closed, conflict, fcfs=False):
    """Brute-force single-bank scheduler reference.

    Each step scans the full arrived list: oldest row-hit first (pure
    FR-FCFS), or strictly oldest with fcfs=True.  Returns the
    classification sequence in service order.
    """
    n = len(rows)
    done = [False] * n
    open_row = None
    t = 0
    events = []
    for _ in range(n):
        arrived = [i for i in range(n) if not done[i] and arrivals[i] <= t]
        if not arrived:
            t = min(arrivals[i] for i in range(n) if not done[i])
            arrived = [i for i in range(n) if not done[i] and arrivals[i] <= t]
        pick = None
        if not fcfs:
            for i in arrived:
                if rows[i] == open_row:
                    pick = i
                    break
        if pick is None:
            pick = arrived[0]
        if open_row is None:
            kind, service = "m", closed
        elif rows[pick] == open_row:
            kind, service = "h", hit
        else:
            kind, service = "c", conflict
        open_row = rows[pick]
        t = max(t, arrivals[pick]) + service
        done[pick] = True
        events.append(kind)
    return events


def bank_row(paddr, dram=DRAM):
    """(bank, row) of an address by the shifts and masks the core maps
    with, which must agree with the reference's mapping."""
    bank_shift, bank_mask, row_shift, row_mask = dramsim._bank_row(dram)
    got = (paddr >> bank_shift & bank_mask, paddr >> row_shift & row_mask)
    bank, row = _decompose_trace(Trace.from_addresses([paddr]), dram)
    assert got == (int(bank[0]), int(row[0]))
    return got


class TestMapAddress:
    def test_zero(self):
        assert bank_row(0) == (0, 0)

    def test_line_one_is_column_one(self):
        # Columns are the lowest field: a DRAM row's 128 lines share its bank and row.
        assert {bank_row(64 * col) for col in range(128)} == {(0, 0)}

    def test_column_overflow_into_bank(self):
        assert bank_row(64 * 128) == (1, 0)

    def test_bank_overflow_into_row(self):
        assert bank_row(64 * 128 * 16) == (0, 1)

    def test_chrabarococo_layout(self):
        # Column lowest, then row: one row's worth of lines -> row 1.
        chrabaroco = DramConfig(scheme="ChRaBaRoCo")
        assert bank_row(8192, chrabaroco) == (0, 1)
        assert bank_row(64, chrabaroco) == (0, 0)
        assert bank_row(8192 * 32768, chrabaroco) == (1, 0)

    def test_wraps_modulo_capacity(self):
        cap_lines = 128 * 16 * 32768  # columns * banks * rows
        assert bank_row(cap_lines * 64 + 64) == (0, 0)
        assert bank_row(cap_lines * 64 + 64 * 128 * 17) == (1, 1)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            DramConfig(scheme="RoRoRo")


class TestTimingExamples:
    def test_single_request_closed_bank(self):
        s = simulate(trace_of([5]))
        assert s.avg_latency == 36
        assert (s.hits, s.misses, s.conflicts) == (0, 1, 0)

    def test_back_to_back_same_row_hit(self):
        t = trace_of([5, 5])
        assert core_events(t, DRAM) == ["m", "h"]
        # first: 0..36; second arrives at 0, serviced 36..56 -> latency 56
        assert simulate(t).avg_latency == (36 + 56) / 2

    def test_conflict_latency(self):
        t = trace_of([1, 2], gap=100)
        assert core_events(t, DRAM) == ["m", "c"]
        # second starts at its arrival 100, takes 52
        assert simulate(t).avg_latency == (36 + 52) / 2

    def test_ideal_single_request(self):
        s = simulate_ideal(trace_of([5]))
        assert s.avg_latency == 20
        assert s.hit_ratio == 1.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            simulate(Trace.empty())


class TestHitRatioClosedForm:
    def test_distinct_rows_zero_hits(self):
        s = simulate(trace_of(list(range(50)), gap=100))
        assert s.hit_ratio == 0.0

    def test_sorted_rows_hit_count(self):
        rng = np.random.default_rng(0)
        rows = sorted(rng.integers(0, 10, 64).tolist())
        s = simulate(trace_of(rows, gap=100))
        runs = 1 + sum(1 for a, b in zip(rows, rows[1:]) if a != b)
        assert s.hits == len(rows) - runs

    def test_serialized_hits_equal_run_structure(self):
        rng = np.random.default_rng(1)
        rows = rng.integers(0, 6, 200).tolist()
        s = simulate(trace_of(rows, gap=100), DramConfig(cap=1))
        runs = 1 + sum(1 for a, b in zip(rows, rows[1:]) if a != b)
        assert s.hits == len(rows) - runs


class TestSchedulerOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_frfcfs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 200))
        rows = rng.integers(0, 8, n).tolist()
        t = trace_of(rows, gap=int(rng.integers(0, 30)))
        events = core_events(t, DramConfig(cap=10**9, queue_depth=n + 1))
        oracle = frfcfs_oracle(rows, t.cycle.tolist(), DRAM.hit,
                               DRAM.closed, DRAM.conflict)
        assert events == oracle

    @pytest.mark.parametrize("seed", range(10))
    def test_cap_one_is_fcfs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(10, 150))
        rows = rng.integers(0, 8, n).tolist()
        t = trace_of(rows, gap=int(rng.integers(0, 30)))
        events = core_events(t, DramConfig(cap=1, queue_depth=n + 1))
        oracle = frfcfs_oracle(rows, t.cycle.tolist(), DRAM.hit,
                               DRAM.closed, DRAM.conflict, fcfs=True)
        assert events == oracle

    def test_no_starvation_under_cap(self):
        # A stream of row-0 hits must not indefinitely bypass a row-1 request.
        rows = [0, 1] + [0] * 50
        events = core_events(trace_of(rows, gap=0), DramConfig(cap=4))
        assert "c" in events[:2 + 4]  # row 1 served within cap-1 bypasses


class TestPermutationSensitivity:
    def test_row_sorted_order_maximizes_hits(self):
        rng = np.random.default_rng(2)
        rows = rng.integers(0, 4, 7).tolist()
        best = max(
            simulate(trace_of(list(p), gap=100)).hits
            for p in itertools.permutations(rows)
        )
        sorted_hits = simulate(trace_of(sorted(rows), gap=100)).hits
        assert sorted_hits == best


class TestIdeal:
    def test_ideal_bounds_actual(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 64, 500).tolist()
        t = trace_of(rows, gap=4)
        actual = simulate(t)
        ideal = simulate_ideal(t)
        assert ideal.avg_latency <= actual.avg_latency
        assert ideal.hit_ratio == 1.0

    def test_same_row_trace_nearly_ideal(self):
        t = trace_of([3] * 100, gap=100)
        actual = simulate(t)
        ideal = simulate_ideal(t)
        # only the first activation differs
        delta = (DRAM.closed - DRAM.hit) / 100
        assert actual.avg_latency == pytest.approx(ideal.avg_latency + delta)


class _OneLatency(DramConfig):
    """A closed bank and a conflict take the row-hit latency too."""

    closed = conflict = DramConfig.hit


@settings(max_examples=200, deadline=None)
@given(requests=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 60)),
                         min_size=1, max_size=200),
       arrival=st.sampled_from(["from-trace", "fixed-gap"]), arrival_gap=st.integers(0, 40),
       cap=st.integers(1, 8), queue_depth=st.integers(1, 40), tCL=st.integers(1, 30),
       tBURST=st.integers(1, 8))
def test_ideal_is_the_scheduler_with_one_latency(requests, arrival, arrival_gap, cap,
                                                 queue_depth, tCL, tBURST):
    # The scheduler is work-conserving, so with one service time the set
    # of completion times does not depend on the service order.  At most
    # 200 requests of at most 38 cycles keep the latency sums far below
    # 2**53, so both averages are the exactly rounded quotient.
    banks, rows, gaps = (np.array(column, np.uint64) for column in zip(*requests))
    vaddr = (rows * DRAM.banks + banks) * DRAM.columns_per_row * 64
    t = Trace(vaddr, np.cumsum(gaps), np.zeros(len(vaddr), np.uint8))
    dram = _OneLatency(tCL=tCL, tBURST=tBURST, cap=cap, arrival=arrival,
                       arrival_gap=arrival_gap, queue_depth=queue_depth)
    ideal = simulate_ideal(t, dram).avg_latency
    assert simulate(t, dram).avg_latency == ideal == ideal_oracle(t, dram)


class TestImprovement:
    def test_equal_stats_zero(self):
        s = simulate(trace_of([1, 2, 3], gap=100))
        assert improvement(s, s) == 0.0

    def test_paper_style_reference_values(self):
        a = dramsim.DramStats(total=1, avg_latency=92.13)
        i = dramsim.DramStats(total=1, avg_latency=68.67)
        assert improvement(a, i) == pytest.approx(25.46, abs=0.005)
        a2 = dramsim.DramStats(total=1, avg_latency=82.37)
        i2 = dramsim.DramStats(total=1, avg_latency=72.61)
        assert improvement(a2, i2) == pytest.approx(11.85, abs=0.005)


class TestGeometry:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            DramConfig(banks=12)

    def test_rows_shorter_than_a_line_rejected(self):
        assert DramConfig(row_size_bytes=64).columns_per_row == 1
        for size in (32, 1):
            with pytest.raises(ValueError, match="row_size_bytes must be >= the 64-byte line"):
                DramConfig(row_size_bytes=size)

    def test_bad_timing_rejected(self):
        with pytest.raises(ValueError):
            DramConfig(tCL=0)

    def test_per_bank_breakdown_sums(self):
        rng = np.random.default_rng(4)
        t = Trace.from_addresses(rng.integers(0, 1 << 28, 300, dtype=np.uint64) & ~np.uint64(63))
        s = simulate(t)
        total = sum(v["hits"] + v["misses"] + v["conflicts"]
                    for v in s.per_bank.values())
        assert total == s.total == 300
        assert s.hits + s.misses + s.conflicts == s.total


class TestInputChecks:
    """Bad scheduler inputs fail at once instead of looping or going negative."""

    def test_queue_depth_below_one_rejected(self):
        for depth in (0, -1):
            with pytest.raises(ValueError, match="queue_depth"):
                simulate(trace_of([1, 2, 3]), DramConfig(queue_depth=depth))

    @pytest.mark.parametrize("sim", [simulate, simulate_ideal])
    def test_negative_arrival_gap_rejected(self, sim):
        # Rejected too: a gap or a latency that would run the int64 clock past 2**63.
        for gap in (-50, 2**62, 2**63):
            with pytest.raises(ValueError, match="arrival_gap"):
                sim(trace_of([1, 2, 3]), DramConfig(arrival="fixed-gap", arrival_gap=gap))
        with pytest.raises(ValueError, match="timing"):
            sim(trace_of([1, 2, 3]), DramConfig(tCL=2**62))
        # Under from-trace arrivals the gap is unread, so any gap is accepted.
        assert sim(trace_of([1]), DramConfig(arrival_gap=-1)) == sim(trace_of([1]))

    @pytest.mark.parametrize("sim", [simulate, simulate_ideal])
    def test_shared_checks_apply_to_both(self, sim):
        with pytest.raises(ValueError, match="empty"):
            sim(Trace.empty())
        with pytest.raises(ValueError, match="arrival"):
            sim(trace_of([1]), DramConfig(arrival="nope"))

    def test_unknown_scheme_rejected(self):
        # Rejected when the config is built, though only simulate maps addresses.
        with pytest.raises(ValueError, match="^unknown scheme 'nope'"):
            DramConfig(scheme="nope")
