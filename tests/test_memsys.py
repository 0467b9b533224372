from collections import OrderedDict

import numpy as np
import pytest

from memloc import kernels
from memloc.memsys import (
    CacheConfig,
    LevelConfig,
    PrefetchConfig,
    _levels,
    filter_to_dram,
    inject_sw_prefetch,
)
from memloc.cli import main
from memloc.traceio import HEADER_SIZE, KIND_PREFETCH, KIND_READ, Trace, write_trace
from reference_models import CacheHierarchy, _Level


class LruOracle:
    """Fully-associative LRU via an ordered dict (stack-distance model)."""

    def __init__(self, lines):
        self.lines = lines
        self.d = OrderedDict()

    def access(self, line):
        hit = line in self.d
        if hit:
            self.d.move_to_end(line)
        else:
            self.d[line] = True
            if len(self.d) > self.lines:
                self.d.popitem(last=False)
        return hit


def lines_trace(lines, gap=4):
    return Trace.from_addresses(np.asarray(lines, np.uint64) * 64, KIND_READ, gap)


class TestLevelConfig:
    def test_geometry_checks(self):
        with pytest.raises(ValueError):
            LevelConfig(100, 8)
        with pytest.raises(ValueError):
            LevelConfig(3 * 64 * 8, 8)  # 3 sets, not a power of two

    @pytest.mark.parametrize("capacity, ways", [(0, 8), (512, 0), (-512, 8), (0, 0)])
    def test_empty_levels_rejected(self, capacity, ways):
        with pytest.raises(ValueError, match="must be >= 1"):
            LevelConfig(capacity, ways)

    def test_defaults(self):
        cfg = CacheConfig()
        assert cfg.l1.num_sets == 64
        assert cfg.l3.capacity_bytes == 8 << 20


class TestLruCorrectness:
    def test_single_set_matches_stack_distance_oracle(self):
        # All addresses land in one set: stride of num_sets lines.
        cfg = LevelConfig(8 * 64, 8)  # one set, 8 ways
        lvl = _Level(cfg)
        oracle = LruOracle(8)
        rng = np.random.default_rng(0)
        for line in rng.integers(0, 20, 2000).tolist():
            hit = lvl.lookup(line)
            if not hit:
                lvl.fill(line)
            assert hit == oracle.access(line)

    def test_multi_set_matches_per_set_oracles(self):
        cfg = LevelConfig(4 * 8 * 64, 8)  # 4 sets
        lvl = _Level(cfg)
        oracles = [LruOracle(8) for _ in range(4)]
        rng = np.random.default_rng(1)
        for line in rng.integers(0, 200, 5000).tolist():
            hit = lvl.lookup(line)
            if not hit:
                lvl.fill(line)
            assert hit == oracles[line & 3].access(line)

    def test_filter_single_set_l1_matches_stack_distance_oracle(self):
        lines = np.random.default_rng(0).integers(0, 20, 2000)
        for ways in (8, 1):
            oracle = LruOracle(ways)
            misses = sum(not oracle.access(line) for line in lines.tolist())
            _, st = filter_to_dram(lines_trace(lines),
                                   CacheConfig(l1=LevelConfig(ways * 64, ways)))
            assert st.demand_misses[0] == misses


class TestFilterToDram:
    def test_repeated_address_reaches_dram_once(self):
        out, st = filter_to_dram(lines_trace([7] * 100))
        assert len(out) == 1
        assert st.demand_accesses[0] == 100
        assert st.demand_misses[0] == 1

    def test_l1_resident_second_pass_free(self):
        lines = list(range(256)) * 2  # 16KB working set, fits 32KB L1
        out, st = filter_to_dram(lines_trace(lines))
        assert len(out) == 256
        assert st.demand_misses[0] == 256

    def test_output_is_order_preserving_subsequence(self):
        rng = np.random.default_rng(2)
        t = lines_trace(rng.integers(0, 1 << 22, 5000))
        out, _ = filter_to_dram(t)
        pos = {}
        it = iter(range(len(t)))
        for v, c in zip(out.vaddr, out.cycle):
            for i in it:
                if t.vaddr[i] == v and t.cycle[i] == c:
                    break
            else:
                pytest.fail("output record not found in order")

    def test_larger_l3_never_more_dram(self):
        rng = np.random.default_rng(3)
        t = lines_trace(rng.integers(0, 1 << 18, 20000))
        small = CacheConfig(l3=LevelConfig(1 << 20, 16))
        big = CacheConfig(l3=LevelConfig(1 << 23, 16))
        out_small, _ = filter_to_dram(t, small)
        out_big, _ = filter_to_dram(t, big)
        assert len(out_big) <= len(out_small)

    def test_random_gather_close_to_l3_oracle(self):
        t, _ = kernels.gen_gather_trace(1 << 18, 100_000,
                                        kernels.AddressModel(row_stride_bytes=64), 4)
        out, _ = filter_to_dram(t)
        oracle = LruOracle((8 << 20) // 64)
        misses = sum(0 if oracle.access(int(a) >> 6) else 1 for a in t.vaddr)
        assert abs(len(out) - misses) <= 0.05 * misses

    def test_malformed_trace_rejected(self, tmp_path, capsys):
        # The filter reads no cycle, so read_trace rejects a malformed
        # trace file before the filter stage runs.
        path = tmp_path / "bad.trace"
        write_trace(path, lines_trace([1, 2]))
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE + 8] = 9  # record 0's cycle, past record 1's 4
        path.write_bytes(data)
        out = tmp_path / "out"
        assert main(["filter", "--trace", str(path), "--out", str(out),
                     "--stats", str(tmp_path / "stats.csv")]) == 1
        assert capsys.readouterr().err == "memloc: filter: cycles must be non-decreasing\n"
        assert not out.exists()


class TestHwPrefetch:
    def pf(self, degree=2):
        return PrefetchConfig(hw=True, hw_degree=degree)

    def test_single_access_no_stride_prefetch(self):
        hier = CacheHierarchy(pf=PrefetchConfig(hw=True))
        hier.access_demand(100)
        # only the next-line component may fire on the miss
        assert hier.stats.hw_prefetches_issued <= 1

    def test_filter_single_access_no_stride_prefetch(self):
        _, st = filter_to_dram(lines_trace([100]), pf=self.pf())
        assert st.hw_prefetches_issued <= 1

    def test_sequential_mostly_useful(self):
        t = lines_trace(range(5000))
        _, st = filter_to_dram(t, pf=self.pf())
        assert st.hw_prefetches_issued > 0
        assert st.useless_fraction <= 0.05

    def test_random_mostly_useless(self):
        t, _ = kernels.gen_gather_trace(1 << 18, 50_000,
                                        kernels.AddressModel(row_stride_bytes=64), 5)
        _, st = filter_to_dram(t, pf=self.pf())
        assert st.hw_prefetches_issued > 0
        assert st.useless_fraction >= 0.40

    def test_accounting_settles(self):
        t, _ = kernels.gen_gather_trace(4096, 20_000,
                                        kernels.AddressModel(row_stride_bytes=64), 6)
        _, st = filter_to_dram(t, pf=self.pf())
        assert st.hw_prefetches_useful + st.hw_prefetches_useless == st.hw_prefetches_issued
        assert 0.0 <= st.useless_fraction <= 1.0

    def test_reach_is_bounded_so_prefetch_lines_fit_int64(self):
        PrefetchConfig(hw=True, hw_degree=1, hw_distance=(1 << 56) - 1)
        for degree, distance in ((1, 1 << 56), (1 << 56, 1), (3, 1 << 70)):
            with pytest.raises(ValueError, match="2\\*\\*56"):
                PrefetchConfig(hw=True, hw_degree=degree, hw_distance=distance)
            PrefetchConfig(hw_degree=degree, hw_distance=distance)  # unread with hw off


class TestSwPrefetch:
    def test_distance_beyond_stream_unchanged(self):
        t = lines_trace([1, 2, 3])
        for distance in (10, 2**70):  # the core takes an int64 distance
            out = inject_sw_prefetch(t, distance)
            assert out == t and out.vaddr is not t.vaddr

    def test_injects_future_addresses(self):
        t = lines_trace([10, 20, 30, 40])
        out = inject_sw_prefetch(t, 2)
        assert len(out) == 6
        assert out.kind.tolist() == [KIND_PREFETCH, KIND_READ, KIND_PREFETCH,
                                     KIND_READ, KIND_READ, KIND_READ]
        assert out.vaddr[0] == 30 * 64  # prefetch for 2 ahead
        assert out.vaddr[2] == 40 * 64

    def test_bad_distance_rejected(self):
        with pytest.raises(ValueError):
            inject_sw_prefetch(lines_trace([1]), 0)

    def test_reduces_l2_miss_ratio_on_gather(self):
        t, _ = kernels.gen_gather_trace(1 << 18, 50_000,
                                        kernels.AddressModel(row_stride_bytes=64), 7)
        _, base = filter_to_dram(t)
        _, with_pf = filter_to_dram(inject_sw_prefetch(t, 16))
        assert base.miss_ratio(1) - with_pf.miss_ratio(1) >= 0.10

    def test_prefetch_records_not_counted_as_demand(self):
        t = lines_trace(np.arange(100))
        injected = inject_sw_prefetch(t, 4)
        _, st = filter_to_dram(injected)
        assert st.demand_accesses[0] == 100
        assert st.sw_prefetches_seen == 96

    def test_prefetch_fills_only_target(self):
        hier = CacheHierarchy(pf=PrefetchConfig(sw_target="L2"))
        hier.access_prefetch(500)
        assert hier.levels[1].contains(500)
        assert not hier.levels[0].contains(500)
        assert not hier.levels[2].contains(500)

    @pytest.mark.parametrize("target, misses", [("L1", [0, 0, 0]), ("L2", [1, 0, 0]),
                                                ("L3", [1, 1, 0])])
    def test_filter_prefetch_fills_only_target(self, target, misses):
        t = lines_trace([500, 500])
        t.kind[0] = KIND_PREFETCH
        pf = PrefetchConfig(sw_target=target)
        out, st = filter_to_dram(t, pf=pf)
        assert st.demand_accesses == [1] + misses[:2]
        assert st.demand_misses == misses
        assert len(out) == 0
        # The prefetch record is level 4; the target level serves the demand access.
        assert _levels(t, CacheConfig(), pf)[0].tolist() == [4, sum(misses)]

    def test_demand_output_excludes_prefetch_misses_by_default(self):
        t = lines_trace([1, 2, 3, 4, 5])
        injected = inject_sw_prefetch(t, 1)
        out, _ = filter_to_dram(injected)
        assert np.all(out.kind != KIND_PREFETCH)
