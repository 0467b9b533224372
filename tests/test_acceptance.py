"""Acceptance suite.

One test per criterion; each prints a PASS line with the measured
values (run with -s to see them).  Thresholds are desk-scale floors
for the directional effects, fixed here and not tunable.
"""

import csv
import json
import random
import time
from collections import OrderedDict

import numpy as np
import pytest

from memloc import dramsim, kernels, memsys, pipeline, reorder, traceio
from memloc.cli import main as cli_main
from memloc.kernels import AddressModel
from memloc.traceio import LINE_SIZE, Trace
from reference_models import (
    Grid,
    _Level,
    core_codes,
    core_events,
    core_walk,
    hilbert_decode_oracle,
    morton_decode_oracle,
)


def report(n, msg):
    print(f"\nACCEPTANCE {n}: {msg} -- PASS")


# -- shared expensive artifacts -------------------------------------------

@pytest.fixture(scope="module")
def gather():
    """Seeded random gather: 2^20 rows of 64B, 10^6 accesses."""
    addr = AddressModel(row_stride_bytes=64)
    trace, _ = kernels.gen_gather_trace(1 << 20, 10 ** 6, addr, seed=3)
    return trace


@pytest.fixture(scope="module")
def gather_dram(gather):
    dram, stats = memsys.filter_to_dram(gather)
    return dram, stats


def test_criterion_1_sfc_correctness():
    start = time.monotonic()
    rng = random.Random(0)
    combos = [(d, b) for d in (1, 2, 4, 8) for b in (1, 4, 8, 12)]
    per = 10_000 // len(combos) + 1
    for d, b in combos:
        cfg = Grid(d, b)
        points = [tuple(rng.randrange(1 << b) for _ in range(d)) for _ in range(per)]
        # The core's codes, decoded by the bit loops, give the points back.
        for curve, decode in (("zorder", morton_decode_oracle), ("hilbert", hilbert_decode_oracle)):
            assert [decode(c, cfg) for c in core_codes(points, cfg, curve)] == points
    checked = 0
    for d, b in combos:
        if d * b > 16:
            continue
        walk = core_walk(d, b, "hilbert")
        assert (np.abs(np.diff(walk, axis=0)).sum(axis=1) == 1).all()
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"bijectivity on {per * len(combos)} points, adjacency exhaustive "
              f"on {checked} grids, {elapsed:.1f}s")


def test_criterion_2_scheduler_oracle():
    dram = dramsim.DramConfig()

    def single_bank_trace(rows, gaps):
        addrs = np.asarray(rows, np.uint64) * dram.banks * dram.columns_per_row * 64
        return Trace(addrs, np.cumsum(gaps).astype(np.uint32),
                     np.zeros(len(rows), np.uint8))

    def oracle(rows, arrivals, fcfs):
        remaining = list(range(len(rows)))
        open_row, t, events = None, 0, []
        while remaining:
            arrived = [i for i in remaining if arrivals[i] <= t]
            if not arrived:
                t = min(arrivals[i] for i in remaining)
                arrived = [i for i in remaining if arrivals[i] <= t]
            pick = None
            if not fcfs:
                for i in arrived:
                    if rows[i] == open_row:
                        pick = i
                        break
            if pick is None:
                pick = arrived[0]
            if open_row is None:
                kind, svc = "m", dram.closed
            elif rows[pick] == open_row:
                kind, svc = "h", dram.hit
            else:
                kind, svc = "c", dram.conflict
            open_row = rows[pick]
            t = max(t, arrivals[pick]) + svc
            remaining.remove(pick)
            events.append(kind)
        return events

    rng = np.random.default_rng(42)
    for trial in range(200):
        n = int(rng.integers(10, 1001))
        rows = rng.integers(0, int(rng.integers(2, 16)), n).tolist()
        gaps = rng.integers(0, 40, n)
        gaps[0] = 0
        t = single_bank_trace(rows, gaps)
        arrivals = t.cycle.tolist()
        events = core_events(t, dramsim.DramConfig(cap=10 ** 9, queue_depth=n + 1))
        assert events == oracle(rows, arrivals, fcfs=False), f"trial {trial}"
        events = core_events(t, dramsim.DramConfig(cap=1, queue_depth=n + 1))
        assert events == oracle(rows, arrivals, fcfs=True), f"trial {trial}"
    report(2, "200 single-bank traces identical to brute-force FR-FCFS; "
              "cap=1 identical to FCFS")


def test_criterion_3_ideal_hit_bound(gather_dram):
    start = time.monotonic()
    dram, _ = gather_dram
    actual = dramsim.simulate(dram)
    ideal = dramsim.simulate_ideal(dram)
    imp = dramsim.improvement(actual, ideal)
    elapsed = time.monotonic() - start
    assert actual.hit_ratio < 0.3
    assert ideal.avg_latency <= actual.avg_latency
    assert imp >= 10.0
    assert elapsed < 60.0
    report(3, f"gather hit ratio {actual.hit_ratio:.3f} < 0.3, ideal latency "
              f"improvement {imp:.1f}% >= 10%, {elapsed:.0f}s")


def test_criterion_4_knn_reordering():
    start = time.monotonic()
    n, nq = 100_000, 10_000
    data = kernels.make_clustered(n, 2, 32, seed=7, layout="contiguous")
    rng = np.random.default_rng(7)
    queries = data[rng.integers(0, n, nq)] + rng.normal(0, 0.005, (nq, 2))
    addr = AddressModel(row_stride_bytes=64, row_bytes=16)
    cache = memsys.CacheConfig(l3=memsys.LevelConfig(512 * 1024, 16))

    def hit_ratio(dataset, qs):
        trace, _, _ = kernels.gen_knn_trace(dataset, qs, 5, addr)
        dram, _ = memsys.filter_to_dram(trace, cache)
        return dramsim.simulate(dram).hit_ratio

    base = hit_ratio(data, queries)
    qperm = reorder.reorder_queries_zorder(queries)
    zc = hit_ratio(data, queries[qperm])
    hperm = reorder.reorder_sfc(data, "hilbert")
    hil = hit_ratio(data[hperm], queries)
    elapsed = time.monotonic() - start
    assert zc >= 1.5 * base, (base, zc)
    assert hil >= 1.3 * base, (base, hil)
    assert elapsed < 300.0
    report(4, f"kNN hit ratio {base:.3f} -> zorder-comp {zc:.3f} "
              f"({zc / base:.2f}x >= 1.5x), hilbert {hil:.3f} "
              f"({hil / base:.2f}x >= 1.3x), {elapsed:.0f}s")


def test_criterion_5_first_touch_dbscan():
    data = kernels.make_clustered(5000, 4, 16, seed=11, layout="shuffled")
    addr = AddressModel(row_stride_bytes=64, row_bytes=32)
    cache = memsys.CacheConfig(l3=memsys.LevelConfig(128 * 1024, 16))

    def run(dataset):
        trace, rows, _ = kernels.gen_dbscan_trace(dataset, 0.03, addr)
        dram, _ = memsys.filter_to_dram(trace, cache)
        return dramsim.simulate(dram), rows

    base_stats, rows = run(data)
    perm = reorder.reorder_first_touch(rows, len(data))
    ft_stats, _ = run(reorder.apply_permutation(data, perm))
    reduction = 100.0 * (base_stats.avg_latency - ft_stats.avg_latency) / base_stats.avg_latency
    assert ft_stats.hit_ratio > base_stats.hit_ratio
    assert reduction >= 2.0
    report(5, f"DBSCAN first-touch hit ratio {base_stats.hit_ratio:.3f} -> "
              f"{ft_stats.hit_ratio:.3f}, latency reduced {reduction:.1f}% >= 2%")


def test_criterion_6a_hw_prefetch_useless_fraction(gather):
    pf = memsys.PrefetchConfig(hw=True, hw_degree=2)
    _, st_rand = memsys.filter_to_dram(gather, pf=pf)
    # One streaming pass of consecutive lines from the matrix base.
    seq = Trace.from_addresses(AddressModel().base + np.arange(50_000, dtype=np.uint64) * LINE_SIZE)
    _, st_seq = memsys.filter_to_dram(seq, pf=pf)
    assert st_rand.hw_prefetches_issued > 0
    assert st_rand.useless_fraction >= 0.40
    assert st_seq.useless_fraction <= 0.05
    report("6a", f"useless prefetch fraction: gather {st_rand.useless_fraction:.2f} "
                 f">= 0.40, sequential {st_seq.useless_fraction:.4f} <= 0.05")


def test_criterion_6b_sw_prefetch_l2_miss_drop(gather):
    _, base = memsys.filter_to_dram(gather)
    injected = memsys.inject_sw_prefetch(gather, 16)
    _, with_pf = memsys.filter_to_dram(injected)
    drop = base.miss_ratio(1) - with_pf.miss_ratio(1)
    assert drop >= 0.10
    report("6b", f"L2 demand miss ratio {base.miss_ratio(1):.3f} -> "
                 f"{with_pf.miss_ratio(1):.3f} (drop {100 * drop:.1f}pp >= 10pp)")


def test_criterion_7_cache_filter_oracle(gather, gather_dram):
    dram, _ = gather_dram
    cache = OrderedDict()
    capacity = (8 << 20) // 64
    misses = 0
    for a in (gather.vaddr >> np.uint64(6)).tolist():
        if a in cache:
            cache.move_to_end(a)
        else:
            misses += 1
            cache[a] = True
            if len(cache) > capacity:
                cache.popitem(last=False)
    assert abs(len(dram) - misses) <= 0.05 * misses

    # exact match on single-set micro-traces (L1 level vs stack distance)
    lvl = _Level(memsys.LevelConfig(8 * 64, 8))
    oracle = OrderedDict()
    rng = np.random.default_rng(8)
    for line in rng.integers(0, 24, 3000).tolist():
        hit = lvl.lookup(line)
        if not hit:
            lvl.fill(line)
        ref_hit = line in oracle
        if ref_hit:
            oracle.move_to_end(line)
        else:
            oracle[line] = True
            if len(oracle) > 8:
                oracle.popitem(last=False)
        assert hit == ref_hit
    report(7, f"DRAM trace length {len(dram)} within 5% of stack-distance "
              f"oracle misses {misses}; single-set sequences exact")


def test_criterion_8_determinism_and_format(tmp_path):
    # trace byte round trip
    trace, _ = kernels.gen_gather_trace(4096, 5000, AddressModel(row_stride_bytes=64), 1)
    p1, p2 = tmp_path / "a.trace", tmp_path / "b.trace"
    traceio.write_trace(p1, trace)
    traceio.write_trace(p2, traceio.read_trace(p1))
    assert p1.read_bytes() == p2.read_bytes()

    # pipeline rerun with fixed seeds is CSV-identical (modulo wall time)
    cfg = {
        "seed": 13,
        "kernel": {"kind": "knn", "n": 3000, "m": 2, "k": 3, "queries": 300,
                   "clusters": 8, "layout": "contiguous", "row_stride_bytes": 64},
        "cache": {"l3_kb": 64},
        "variants": ["baseline", "zorder-comp", "hilbert"],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "overhead_s"} for r in rows]
    assert strip(pipeline.read_csv(out_a)) == strip(pipeline.read_csv(out_b))

    # report renders the fixed reference rows verbatim
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["benchmark", "hit_ratio", "avg_latency",
                                          "ideal_latency", "improvement_pct"])
        w.writeheader()
        w.writerow({"benchmark": "KNN", "hit_ratio": 0.13, "avg_latency": 92.13,
                    "ideal_latency": 68.67, "improvement_pct": 25.46})
        w.writerow({"benchmark": "Adaboost", "hit_ratio": 0.64, "avg_latency": 82.37,
                    "ideal_latency": 72.61, "improvement_pct": 11.84})
    from memloc.cli import render_report
    text = render_report(pipeline.read_csv(ref))
    assert "0.13, 92.13, 68.67, 25.46" in text
    assert "0.64, 82.37, 72.61, 11.84" in text
    report(8, "traces round-trip byte-exact, pipeline reruns CSV-identical, "
              "reference rows render verbatim")
