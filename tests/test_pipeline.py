"""The shared experiment model: config checks, golden rows, CLI parity."""

import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from memloc import dramsim, kernels, memsys, pipeline, reorder, traceio
from memloc.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_pipeline.json").read_text())


def without_overhead(rows):
    return [{k: v for k, v in r.items() if k != "overhead_s"} for r in rows]


@pytest.mark.parametrize("case", GOLDEN, ids=[c["config"]["kernel"]["kind"] for c in GOLDEN])
def test_rows_match_golden(case):
    """Rows recorded before the CLI and pipeline models were merged."""
    assert without_overhead(pipeline.run_pipeline(case["config"])) == case["rows"]


GEN_CASES = {
    "knn": ["--n", "300", "--m", "2", "--k", "3", "--queries", "40",
            "--clusters", "6", "--layout", "shuffled"],
    "dtree": ["--n", "300", "--m", "3", "--max-depth", "3"],
    "dbscan": ["--n", "200", "--radius", "0.1", "--row-stride", "64"],
    "gather": ["--n", "5000", "--count", "700"],
}
GEN_KERNELS = {
    "knn": {"n": 300, "m": 2, "k": 3, "queries": 40, "clusters": 6, "layout": "shuffled"},
    "dtree": {"n": 300, "m": 3, "max_depth": 3},
    "dbscan": {"n": 200, "radius": 0.1, "row_stride_bytes": 64},
    "gather": {"n": 5000, "count": 700},
}


@pytest.mark.parametrize("kind", sorted(GEN_CASES))
def test_gen_writes_the_pipeline_kernel(kind, tmp_path):
    prefix = tmp_path / kind
    assert main(["gen", "--kind", kind, *GEN_CASES[kind], "--seed", "9",
                 "--out", str(prefix)]) == 0
    ctx = pipeline.build_kernel({"seed": 9, "kernel": {"kind": kind, **GEN_KERNELS[kind]}})
    trace, rows = ctx.generate()
    traceio.write_trace(tmp_path / "expected.trace", trace)
    assert Path(f"{prefix}.trace").read_bytes() == (tmp_path / "expected.trace").read_bytes()
    assert Path(f"{prefix}.rows").read_bytes() == rows.astype("<i8").tobytes()
    for suffix, expected in ((".data", ctx.data), (".queries", ctx.queries)):
        if expected is None:
            assert not Path(f"{prefix}{suffix}").exists()
        else:
            assert np.array_equal(reorder.load_dataset(f"{prefix}{suffix}"), expected)
    if ctx.labels is not None:
        assert Path(f"{prefix}.labels").read_bytes() == ctx.labels.astype("<i8").tobytes()


def test_cli_reorder_matches_pipeline(tmp_path):
    ctx = pipeline.build_kernel({"seed": 2, "kernel": {"kind": "dbscan", "n": 300}})
    reorder.save_dataset(tmp_path / "d", ctx.data)
    _, rows = ctx.generate()
    np.asarray(rows, "<i8").tofile(tmp_path / "rows")
    cfg = pipeline.resolve_config({})
    for method in ("rcb", "hilbert", "zorder", "first-touch"):
        assert main(["reorder", "--method", method, "--dataset", str(tmp_path / "d"),
                     "--rows", str(tmp_path / "rows"), "--out", str(tmp_path / method)]) == 0
        perm, _ = pipeline.reorder_by(method, cfg, points=ctx.data, rows=rows, n=300,
                                      row_stride_bytes=16)
        assert np.array_equal(reorder.load_permutation(tmp_path / f"{method}.perm.csv"), perm)


def test_cli_block_without_stride_matches_pipeline(tmp_path, monkeypatch):
    # gen writes the default kernel's 16-byte rows; reorder must block those,
    # not 64-byte rows.
    kernel = {"kind": "gather", "n": 5000, "count": 2000}
    assert main(["gen", "--kind", "gather", "--n", "5000", "--count", "2000", "--seed", "1",
                 "--out", str(tmp_path / "g")]) == 0
    assert main(["reorder", "--method", "block", "--rows", str(tmp_path / "g.rows"),
                 "--out", str(tmp_path / "b")]) == 0
    replayed = []
    real = kernels.rows_to_trace
    monkeypatch.setattr(kernels, "rows_to_trace",
                        lambda rows, *a, **kw: replayed.append(rows) or real(rows, *a, **kw))
    pipeline.run_pipeline({"seed": 1, "kernel": kernel, "variants": ["block"]})
    baseline, blocked = replayed
    assert not np.array_equal(blocked, baseline)
    assert np.fromfile(tmp_path / "b.rows", "<i8").tolist() == blocked.tolist()


def test_every_gather_variant_replays_one_element_per_read():
    # At m = 16 a row is 128 bytes, but a gather read loads one float64.
    config = {"seed": 1, "kernel": {"kind": "gather", "n": 5000, "count": 2000, "m": 16},
              "variants": ["baseline", "first-touch", "block", "sw-prefetch"]}
    records = {r["variant"]: r["records"] for r in pipeline.run_pipeline(config)}
    assert records == {"baseline": 2000, "first-touch": 2000, "block": 2000,
                       "sw-prefetch": 2000 + 2000 - 16}


def test_zero_queries_give_an_empty_trace():
    ctx = pipeline.build_kernel({"kernel": {"kind": "knn", "n": 100, "queries": 0}})
    trace, rows = ctx.generate()
    assert len(trace) == 0 and len(rows) == 0


BASE = {"seed": 1, "kernel": {"kind": "knn", "n": 200, "queries": 10}}


@pytest.mark.parametrize("bad, key", [
    ({"variant": ["baseline"]}, "'variant'"),
    ({"kernel": {**BASE["kernel"], "rows": 5}}, "'kernel.rows'"),
    ({"cache": {"l4_kb": 1024}}, "'cache.l4_kb'"),
    ({"prefetch": {"sw": True}}, "'prefetch.sw'"),
    ({"dram": {"channels": 2}}, "'dram.channels'"),
    ({"dram": {"ranks": 2}}, "'dram.ranks'"),
])
def test_unknown_config_key_rejected(bad, key):
    config = {**BASE, **bad}
    with pytest.raises(pipeline.PipelineError, match=f"^config: unknown key {key}"):
        pipeline.run_pipeline(config)


GATHER = {"seed": 1, "kernel": {"kind": "gather", "n": 4096, "count": 300}}


@pytest.mark.parametrize("cache", [{"l1_kb": 0}, {"l2_ways": 0}])
def test_empty_cache_level_fails_at_filter(cache):
    """Run in a subprocess, since a zero-set level once crashed the process."""
    code = ("import json, sys\nfrom memloc import pipeline\n"
            "try:\n    pipeline.run_pipeline(json.loads(sys.argv[1]))\n"
            "except pipeline.PipelineError as e:\n    print(e)\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps({**GATHER, "cache": cache})],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])})
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("filter: capacity and associativity must be >= 1")


def test_rows_shorter_than_a_line_fail_at_dramsim():
    with pytest.raises(pipeline.PipelineError, match="^dramsim: row_size_bytes must be >="):
        pipeline.run_pipeline({**GATHER, "dram": {"row_size_bytes": 32}})


def test_unknown_variant_rejected():
    with pytest.raises(pipeline.PipelineError, match="^reorder: unknown method or variant"):
        pipeline.run_pipeline({**BASE, "variants": ["hilbret"]})


def test_section_must_be_an_object():
    with pytest.raises(pipeline.PipelineError, match="^config: cache must be an object"):
        pipeline.run_pipeline({**BASE, "cache": 512})


def test_unknown_key_fails_the_cli_with_its_stage(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, "dram": {"channels": 2}}))
    assert main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o.csv")]) != 0
    assert "memloc: config: unknown key 'dram.channels'" in capsys.readouterr().err


def test_missing_or_unknown_kernel_kind_rejected():
    for kernel in ({}, {"kind": "svm"}):
        with pytest.raises(pipeline.PipelineError, match="^config: kernel.kind"):
            pipeline.build_kernel({"kernel": kernel})


STAGE_ERRORS = {
    "wide-hilbert": ("reorder", {"kernel": {**BASE["kernel"], "m": 20}, "variants": ["hilbert"]}),
    "rcb-leaf-size": ("reorder", {"rcb_leaf_size": 0, "variants": ["rcb"]}),
    "block-window": ("reorder", {"block_window": 0, "variants": ["block"]}),
    "sfc-bits": ("reorder", {"sfc_bits": 0, "variants": ["zorder"]}),
    "wide-grid": ("reorder", {"sfc_bits": 65, "variants": ["zorder-comp"]}),
    "sw-distance": ("prefetch", {"prefetch": {"sw_distance": 0}, "variants": ["sw-prefetch"]}),
    "k-above-n": ("gen", {"kernel": {**BASE["kernel"], "k": 201}}),
    "k-zero": ("config", {"kernel": {**BASE["kernel"], "k": 0}}),
    "queries-zero": ("config", {"kernel": {**BASE["kernel"], "queries": 0}}),
    "nan-radius": ("gen", {"kernel": {"kind": "dbscan", "n": 300, "radius": float("nan")}}),
    "nan-spread": ("gen", {"kernel": {**BASE["kernel"], "clusters": 4, "spread": float("nan")}}),
    "gather-hilbert": ("reorder", {"kernel": {"kind": "gather", "n": 300, "count": 50},
                                   "variants": ["hilbert"]}),
}


@pytest.mark.parametrize("stage, bad", STAGE_ERRORS.values(), ids=STAGE_ERRORS)
def test_generation_and_transformation_errors_carry_their_stage(stage, bad):
    with pytest.raises(pipeline.PipelineError, match=f"^{stage}: (?!{stage}:)"):
        pipeline.run_pipeline({**BASE, **bad})


def test_missing_points_message_names_the_kernel_only_when_known():
    cfg = pipeline.resolve_config({})
    for kind, tail in ((None, "matrix$"), ("gather", r"matrix \(gather\)$")):
        with pytest.raises(pipeline.PipelineError, match=f"^reorder: hilbert needs a feature {tail}"):
            pipeline.reorder_by("hilbert", cfg, kind=kind)


@pytest.mark.parametrize("method", ["hilbert", "zorder", "rcb", "zorder-comp"])
def test_non_finite_points_fail_in_the_reorder_stage(method):
    points = np.random.default_rng(1).random((8, 2))
    points[5, 1] = np.nan
    with pytest.raises(pipeline.PipelineError, match="^reorder: .*NaN or infinite"):
        pipeline.reorder_by(method, pipeline.resolve_config({}), points=points)


def test_config_hash_covers_the_raw_config():
    assert pipeline.config_hash(BASE) != pipeline.config_hash(pipeline.resolve_config(BASE))


def test_overhead_excludes_the_kernel_replay(monkeypatch):
    real = kernels.gen_knn_trace

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "gen_knn_trace", slow)
    config = {**BASE, "variants": ["baseline", "first-touch"]}
    rows = {r["variant"]: r for r in pipeline.run_pipeline(config)}
    assert rows["baseline"]["overhead_s"] == 0
    assert rows["first-touch"]["overhead_s"] < 0.1


class TestPageMapping:
    def kernel(self, mapping):
        return pipeline.build_kernel({"seed": 4, "kernel": {
            "kind": "knn", "n": 3000, "queries": 200, "clusters": 8,
            "row_stride_bytes": 64, "page_mapping": mapping}})

    def test_shuffle_keeps_offsets_and_changes_dram_trace(self):
        (ident, _), (shuf, _) = self.kernel("identity").generate(), self.kernel("shuffle").generate()
        assert np.array_equal(ident.vaddr % 4096, shuf.vaddr % 4096)
        assert not np.array_equal(ident.vaddr // 4096, shuf.vaddr // 4096)
        small = memsys.CacheConfig(l3=memsys.LevelConfig(64 * 1024, 16))
        dram_ident, _ = memsys.filter_to_dram(ident, small)
        dram_shuf, _ = memsys.filter_to_dram(shuf, small)
        assert len(dram_ident) and dram_ident != dram_shuf

    def test_every_trace_over_the_matrix_shares_one_mapping(self):
        ctx = self.kernel("shuffle")
        vpage = lambda rows: (ctx.addr.base + rows * 64) // 4096  # noqa: E731
        mapping = {}
        for rows in (np.arange(3000), np.arange(0, 3000, 7)[::-1], np.array([5, 2999])):
            ppage = kernels.rows_to_trace(rows, ctx.addr).vaddr // 4096
            for v, p in zip(vpage(rows).tolist(), ppage.tolist()):
                assert mapping.setdefault(v, p) == p
        assert sorted(mapping.values()) == sorted(mapping)
        assert any(v != p for v, p in mapping.items())

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="page_mapping"):
            self.kernel("interleave")


def test_bad_dram_queue_settings_fail_fast_with_their_stage():
    base = {"seed": 1, "kernel": {"kind": "gather", "n": 4096, "count": 200}}
    for dram, what in (({"queue_depth": 0}, "queue_depth"),
                       ({"arrival": "fixed-gap", "arrival_gap": -50}, "arrival_gap")):
        with pytest.raises(pipeline.PipelineError, match=f"^dramsim: {what}"):
            pipeline.run_pipeline({**base, "dram": dram})


def test_defaults_table_matches_the_library_defaults(monkeypatch):
    """pipeline.DEFAULTS repeats the library's defaults; they must not drift."""
    cfg = pipeline.resolve_config({})
    assert pipeline.memory_config(cfg) == (memsys.CacheConfig(), memsys.PrefetchConfig())
    hw = pipeline.resolve_config({"prefetch": {"hw": True}})
    assert pipeline.memory_config(hw)[1] == memsys.PrefetchConfig(memsys.StridePrefetchConfig())

    signatures, calls = {}, {}
    for name in ("simulate", "simulate_ideal"):
        signatures[name] = inspect.signature(getattr(dramsim, name)).parameters

        def record(trace, geom, timing, _name=name, **kw):
            calls[_name] = (geom, timing, kw)
        monkeypatch.setattr(dramsim, name, record)
    pipeline.simulate_dram(None, cfg)
    assert set(calls) == set(signatures)
    for name, (geom, timing, kw) in calls.items():
        assert geom == dramsim.DramGeometry()
        assert timing == dramsim.DramTiming()
        params = signatures[name]
        assert set(kw) == set(params) - {"trace", "geom", "timing", "collect_events"}
        assert kw == {k: params[k].default for k in kw}
