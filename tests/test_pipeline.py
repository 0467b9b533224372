"""The shared experiment model: config checks, golden rows, CLI parity."""

import dataclasses
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
    trace, rows, _ = ctx.generate()
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
    _, rows, _ = ctx.generate()
    np.asarray(rows, "<i8").tofile(tmp_path / "rows")
    cfg = pipeline.resolve_config({})
    for method in ("rcb", "hilbert", "zorder", "first-touch"):
        assert main(["reorder", "--method", method, "--dataset", str(tmp_path / "d"),
                     "--rows", str(tmp_path / "rows"), "--out", str(tmp_path / method)]) == 0
        perm, _ = pipeline.reorder_by(method, cfg, points=ctx.data, rows=rows, n=300,
                                      row_stride_bytes=16)
        assert np.array_equal(reorder.load_permutation(tmp_path / f"{method}.perm.csv"), perm)


@pytest.mark.parametrize("m", [2, 16])
def test_cli_block_without_stride_matches_pipeline(tmp_path, monkeypatch, m):
    # gen lays the rows out m * 8 bytes apart and records that stride next
    # to them; reorder must block rows of that size, not 16- or 64-byte rows.
    kernel = {"kind": "gather", "n": 5000, "count": 2000, "m": m}
    assert main(["gen", "--kind", "gather", "--n", "5000", "--count", "2000", "--m", str(m),
                 "--seed", "1", "--out", str(tmp_path / "g")]) == 0
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
    trace, rows, _ = ctx.generate()
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


@pytest.mark.parametrize("variants", ["baseline", ["baseline", 3], {"baseline": 1}])
def test_variants_must_be_a_list_of_names(variants):
    # A string would run as one variant per character, after generating.
    with pytest.raises(pipeline.PipelineError,
                       match="^config: variants must be a list of variant names$"):
        pipeline.run_pipeline({**BASE, "variants": variants})


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
    "code-budget": ("reorder", {"kernel": {**BASE["kernel"], "m": 3}, "sfc_bits": 43,
                                "variants": ["hilbert"]}),
    "wide-grid": ("reorder", {"kernel": {**BASE["kernel"], "m": 1}, "sfc_bits": 65,
                              "variants": ["zorder-comp"]}),
    "sw-distance": ("prefetch", {"prefetch": {"sw_distance": 0}, "variants": ["sw-prefetch"]}),
    "k-above-n": ("gen", {"kernel": {**BASE["kernel"], "k": 201}}),
    "k-zero": ("config", {"kernel": {**BASE["kernel"], "k": 0}}),
    "queries-zero": ("config", {"kernel": {**BASE["kernel"], "queries": 0}}),
    "nan-radius": ("gen", {"kernel": {"kind": "dbscan", "n": 300, "radius": float("nan")}}),
    "nan-spread": ("gen", {"kernel": {**BASE["kernel"], "clusters": 4, "spread": float("nan")}}),
    "gather-hilbert": ("reorder", {"kernel": {"kind": "gather", "n": 300, "count": 50},
                                   "variants": ["hilbert"]}),
    "fractional-stride": ("config", {"kernel": {"kind": "gather", "n": 50, "count": 20,
                                                "row_stride_bytes": 64.5}}),
    "fractional-k": ("config", {"kernel": {**BASE["kernel"], "k": 1.5}}),
    "string-seed": ("config", {"seed": "1"}),
    "negative-seed": ("config", {"seed": -1, "kernel": {"kind": "gather", "n": 10, "count": 5}}),
    "float-cache-size": ("config", {"cache": {"l2_kb": 256.0}}),
    "bool-cap": ("config", {"dram": {"cap": True}}),
    "m-zero": ("config", {"kernel": {"kind": "gather", "n": 50, "count": 20, "m": 0}}),
    "negative-stride": ("config", {"kernel": {"kind": "gather", "n": 50, "count": 20,
                                              "row_stride_bytes": -8}}),
    "bogus-page-mapping": ("config", {"kernel": {**BASE["kernel"], "page_mapping": "bogus"}}),
    "bogus-layout": ("config", {"kernel": {**BASE["kernel"], "clusters": 4, "layout": "bogus"}}),
    "negative-spread": ("config", {"kernel": {**BASE["kernel"], "clusters": 4, "spread": -1.0}}),
    "gather-n-zero": ("config", {"kernel": {"kind": "gather", "n": 0, "count": 20}}),
    "dtree-n-zero": ("config", {"kernel": {"kind": "dtree", "n": 0}}),
    "dtree-nan-data": ("gen", {"kernel": {"kind": "dtree", "n": 300, "clusters": 4,
                                          "spread": float("nan")}}),
    "aliased-rows": ("config", {"kernel": {"kind": "gather", "n": 5000, "count": 2000,
                                           "row_stride_bytes": 2**62}}),
    "bool-radius": ("config", {"kernel": {"kind": "dbscan", "n": 200, "radius": True}}),
    "string-radius": ("config", {"kernel": {"kind": "dbscan", "n": 200, "radius": "0.1"}}),
    "bool-spread": ("config", {"kernel": {**BASE["kernel"], "clusters": 4, "spread": False}}),
    "null-spread": ("config", {"kernel": {**BASE["kernel"], "clusters": 4, "spread": None}}),
}


@pytest.mark.parametrize("stage, bad", STAGE_ERRORS.values(), ids=STAGE_ERRORS)
def test_generation_and_transformation_errors_carry_their_stage(stage, bad):
    with pytest.raises(pipeline.PipelineError, match=f"^{stage}: (?!{stage}:)"):
        pipeline.run_pipeline({**BASE, **bad})


def test_rcb_leaf_size_past_int64_keeps_the_baseline_order():
    base, rcb = without_overhead(pipeline.run_pipeline(
        {**BASE, "rcb_leaf_size": 10**30, "variants": ["baseline", "rcb"]}))
    assert {**rcb, "variant": "baseline"} == base


@pytest.mark.parametrize("failing", [1, 2], ids=["baseline", "replay"])
def test_a_trace_past_the_cycle_field_fails_at_gen(failing, monkeypatch):
    real, calls = traceio.Trace.from_addresses.__func__, []

    def wide_gap(cls, vaddr, kind=traceio.KIND_READ, issue_gap=0):
        calls.append(1)  # only the `failing`-th trace built is too long
        return real(cls, vaddr, kind, 2**31 if len(calls) == failing else 4)

    monkeypatch.setattr(traceio.Trace, "from_addresses", classmethod(wide_gap))
    with pytest.raises(pipeline.PipelineError, match="^gen: trace too long: 300 records"):
        pipeline.run_pipeline({**GATHER, "variants": ["first-touch"]})
    assert len(calls) == failing


@pytest.mark.parametrize("bad, key", [
    ({"kernel": {"kind": "gather", "n": 50, "count": 20, "row_stride_bytes": 64.5}},
     "kernel.row_stride_bytes"),
    ({"kernel": {**BASE["kernel"], "k": 1.5}}, "kernel.k"),
    ({"rcb_leaf_size": 32.0}, "rcb_leaf_size"),
    ({"dram": {"cap": True}}, "dram.cap"),
    # A key whose default is a boolean takes only JSON true or false.
    ({"prefetch": {"hw": "false"}}, "prefetch.hw"),
    ({"prefetch": {"hw": 1}}, "prefetch.hw"),
    ({"prefetch": {"hw": None}}, "prefetch.hw"),
    ({"kernel": {**BASE["kernel"], "queries_from_data": 0}}, "kernel.queries_from_data"),
])
def test_integer_keys_take_only_integers(bad, key):
    what = "a boolean" if key in ("prefetch.hw", "kernel.queries_from_data") else "an integer"
    with pytest.raises(pipeline.PipelineError, match=f"^config: {key} must be {what}$"):
        pipeline.build_kernel({**BASE, **bad})


@pytest.mark.parametrize("key, value", [("radius", True), ("radius", "0.1"), ("spread", [0.1])])
def test_float_keys_take_only_numbers(key, value):
    with pytest.raises(pipeline.PipelineError, match=f"^config: kernel.{key} must be a number$"):
        pipeline.resolve_config({"kernel": {key: value}})
    cfg = pipeline.resolve_config({"kernel": {key: 1}})  # an integer is a number
    assert cfg["kernel"][key] == 1


def test_missing_points_message_names_the_kernel_only_when_known():
    cfg = pipeline.resolve_config({})
    for kind, tail in ((None, "matrix$"), ("gather", r"matrix \(gather\)$")):
        with pytest.raises(pipeline.PipelineError, match=f"^reorder: hilbert needs a feature {tail}"):
            pipeline.reorder_by("hilbert", cfg, kind=kind)


@pytest.mark.parametrize("method", ["zorder-comp", "first-touch"])
def test_a_tree_kernel_rejects_query_order_and_first_touch(method):
    config = {"seed": 1, "kernel": {"kind": "dtree", "n": 300, "max_depth": 3},
              "variants": ["baseline", method]}
    message = f"^reorder: {method} is not applicable to tree kernels$"
    with pytest.raises(pipeline.PipelineError, match=message):
        pipeline.run_pipeline(config)
    with pytest.raises(pipeline.PipelineError, match=message):  # no rows or points needed
        pipeline.reorder_by(method, pipeline.resolve_config(config), kind="dtree")


@pytest.mark.parametrize("seed", [1, 137, 1000004])
@pytest.mark.parametrize("spec", [{"clusters": 0}, {"clusters": 8, "layout": "shuffled"}])
def test_first_touch_of_a_dtree_baseline_is_the_identity(seed, spec):
    # The first node is the root, which lists every row in storage order.
    ctx = pipeline.build_kernel({"seed": seed, "kernel": {"kind": "dtree", "n": 2000, "m": 4,
                                                          "max_depth": 4, **spec}})
    _, rows, starts = ctx.generate()
    assert np.array_equal(rows[:starts[1]], np.arange(2000))
    assert np.array_equal(reorder.reorder_first_touch(rows, 2000), np.arange(2000))


@pytest.mark.parametrize("method", ["hilbert", "zorder", "rcb", "zorder-comp"])
def test_non_finite_points_fail_in_the_reorder_stage(method):
    points = np.random.default_rng(1).random((8, 2))
    points[5, 1] = np.nan
    with pytest.raises(pipeline.PipelineError, match="^reorder: .*NaN or infinite"):
        pipeline.reorder_by(method, pipeline.resolve_config({}), points=points)


def test_config_hash_covers_the_raw_config():
    assert pipeline.config_hash(BASE) != pipeline.config_hash(pipeline.resolve_config(BASE))


def test_a_run_resolves_and_hashes_its_config_once(monkeypatch):
    resolve, digest, calls = pipeline.resolve_config, pipeline.config_hash, []

    def counted_resolve(config, *section):
        if not section:  # a section resolves in a nested call with its defaults and prefix
            calls.append("resolve")
        return resolve(config, *section)

    monkeypatch.setattr(pipeline, "resolve_config", counted_resolve)
    monkeypatch.setattr(pipeline, "config_hash", lambda c: calls.append("hash") or digest(c))
    config = {**BASE, "variants": ["baseline", "hilbert", "rcb", "sw-prefetch"]}
    rows = pipeline.run_pipeline(config)
    assert sorted(calls) == ["hash", "resolve"]
    assert {r["config_hash"] for r in rows} == {digest(config)}


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


def test_overhead_excludes_the_derived_replay(monkeypatch):
    # A kNN layout over a first column with ties relabels the baseline walk too.
    ctx = pipeline.build_kernel(BASE)
    data = ctx.data.copy()
    data[:, 0] = data[:, 0].round(1)
    ctx = dataclasses.replace(ctx, data=data)
    baseline = ctx.generate()
    real, calls = kernels.rows_to_trace, []

    def slow(*args, **kwargs):
        calls.append(1)
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(kernels, "rows_to_trace", slow)
    row = pipeline.run_variant(ctx, "hilbert", baseline)
    assert len(calls) == 1  # the replay
    assert row["overhead_s"] < 0.1


GENERATORS = ("gen_knn_trace", "gen_dbscan_trace", "gen_dtree_trace", "gen_gather_trace")
ALL_LAYOUTS = ["hilbert", "zorder", "rcb", "first-touch", "block"]


def _first_column_rounded(make):
    """`make`, a dataset maker, with column 0 of its data rounded to 2 decimals."""
    def tied(*args, **kwargs):
        data = make(*args, **kwargs)
        data[:, 0] = data[:, 0].round(2)
        return data
    return tied


KNN_CONFIG = {"kind": "knn", "n": 2000, "queries": 100, "clusters": 8}
DBSCAN_CONFIG = {"kind": "dbscan", "n": 1000, "radius": 0.03}


@pytest.mark.parametrize("kernel, variants, tied", [
    ({"kind": "dtree", "n": 2000, "m": 4, "max_depth": 5, "clusters": 16},
     ["baseline", "hilbert", "zorder", "rcb", "block", "sw-prefetch"], False),
    (KNN_CONFIG, ["baseline", "zorder-comp", *ALL_LAYOUTS, "sw-prefetch"], False),
    (DBSCAN_CONFIG, ["baseline", *ALL_LAYOUTS], False),
    (KNN_CONFIG, ["baseline", *ALL_LAYOUTS], True),
    (DBSCAN_CONFIG, ["baseline", *ALL_LAYOUTS], True),
], ids=["dtree", "knn", "dbscan", "knn-tied", "dbscan-tied"])
def test_each_config_generates_once(kernel, variants, tied, monkeypatch):
    # Every variant derives from the baseline walk; none runs the kernel
    # again, not even over ties in the first column.
    calls = []
    for name in GENERATORS:
        real = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    if tied:
        for name in ("make_uniform", "make_clustered"):
            monkeypatch.setattr(kernels, name, _first_column_rounded(getattr(kernels, name)))
    rows = pipeline.run_pipeline({"seed": 1, "kernel": kernel, "variants": variants})
    assert [r["variant"] for r in rows] == variants
    assert calls == [f"gen_{kernel['kind']}_trace"]


KNN_SWEEP = {"kind": "knn", "n": 6000, "m": 2, "k": 5, "queries": 400, "clusters": 32,
             "layout": "shuffled", "row_stride_bytes": 64}
LAYOUTS = ("hilbert", "zorder", "rcb", "first-touch")


def _layout_replays(ctx, monkeypatch):
    """Per layout variant: the pipeline's replay, a fresh generation over
    the permuted data, the baseline visits relabelled, and the kNN
    generations the replay ran."""
    cfg = pipeline.resolve_config({"kernel": {"kind": "knn"}})
    baseline = ctx.generate()
    real = kernels.gen_knn_trace
    out = {}
    for variant in LAYOUTS:
        calls = []
        monkeypatch.setattr(kernels, "gen_knn_trace",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        replayed = pipeline._transform(ctx, variant, cfg, baseline)()
        monkeypatch.setattr(kernels, "gen_knn_trace", real)
        perm, _ = pipeline.reorder_by(variant, cfg, kind="knn", rows=baseline[1],
                                      n=len(ctx.data), points=ctx.data)
        fresh = real(reorder.apply_permutation(ctx.data, perm), ctx.queries, ctx.spec["k"],
                     ctx.addr)[0]
        relabelled = kernels.rows_to_trace(reorder.invert_permutation(perm)[baseline[1]],
                                           ctx.addr)
        out[variant] = replayed, fresh, relabelled, len(calls)
    return out


@pytest.mark.parametrize("seed", [1, 2, 1000004])
def test_knn_layouts_relabel_the_baseline_visits(seed, monkeypatch):
    ctx = pipeline.build_kernel({"seed": seed, "kernel": KNN_SWEEP})
    for variant, (replayed, fresh, _, calls) in _layout_replays(ctx, monkeypatch).items():
        assert calls == 0, variant
        assert replayed == fresh, variant


@pytest.mark.parametrize("column", [0, 1])
def test_knn_layouts_relabel_when_the_first_column_ties(column, monkeypatch):
    # A layout keeps the baseline's walk even where ties on the first
    # split axis would make a tree built over the moved rows differ.
    ctx = pipeline.build_kernel({"seed": 1, "kernel": {**KNN_SWEEP, "n": 600, "queries": 60}})
    data = ctx.data.copy()
    data[:, column] = data[:, column].round(2)
    replays = _layout_replays(dataclasses.replace(ctx, data=data), monkeypatch)
    for variant, (replayed, fresh, relabelled, calls) in replays.items():
        assert calls == 0, variant
        assert replayed == relabelled, variant
    if column == 0:  # a fresh tree would have examined other rows
        assert not all(relabelled == fresh for _, fresh, relabelled, _ in replays.values())


class TestPageMapping:
    def kernel(self, mapping):
        return pipeline.build_kernel({"seed": 4, "kernel": {
            "kind": "knn", "n": 3000, "queries": 200, "clusters": 8,
            "row_stride_bytes": 64, "page_mapping": mapping}})

    def test_shuffle_keeps_offsets_and_changes_dram_trace(self):
        (ident, *_), (shuf, *_) = self.kernel("identity").generate(), self.kernel("shuffle").generate()
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
        with pytest.raises(pipeline.PipelineError,
                           match="^config: unknown page_mapping 'interleave'$"):
            self.kernel("interleave")


def test_bad_dram_queue_settings_fail_fast_with_their_stage():
    base = {"seed": 1, "kernel": {"kind": "gather", "n": 4096, "count": 200}}
    for section, bad, what in (
            ("dram", {"queue_depth": 0}, "dramsim: queue_depth"),
            ("dram", {"arrival": "fixed-gap", "arrival_gap": -50}, "dramsim: arrival_gap"),
            ("dram", {"arrival": "fixed-gap", "arrival_gap": 2**62}, "dramsim: arrival_gap"),
            ("dram", {"tCL": 2**62}, "dramsim: arrival_gap or timing"),
            ("dram", {"scheme": "RoRoRo"},
             r"dramsim: unknown scheme 'RoRoRo'; choose from \('RoBaRaCoCh', 'ChRaBaRoCo'\)$"),
            ("dram", {"banks": 12}, "dramsim: geometry counts must be powers of two$"),
            ("dram", {"row_size_bytes": 32}, "dramsim: row_size_bytes must be >= the 64-byte line$"),
            ("dram", {"tRP": 0}, "dramsim: timing parameters must be positive$"),
            ("dram", {"cap": 0}, "dramsim: cap must be >= 1$"),
            ("dram", {"arrival": "poisson"}, "dramsim: unknown arrival model 'poisson'$"),
            ("prefetch", {"hw": True, "hw_degree": 0}, "filter: degree and distance must be >= 1$"),
            ("prefetch", {"sw_target": "L4"},
             r"filter: sw target must be one of \('L1', 'L2', 'L3'\)$")):
        with pytest.raises(pipeline.PipelineError, match=f"^{what}"):
            pipeline.run_pipeline({**base, section: bad})
    # A key that only a setting left off reads is not checked.
    rows = without_overhead(pipeline.run_pipeline(base))
    for section, unread in (("dram", {"arrival_gap": -1}), ("prefetch", {"hw_degree": 0})):
        config = {**base, section: unread}
        assert without_overhead(pipeline.run_pipeline(config)) == [
            {**row, "config_hash": pipeline.config_hash(config)} for row in rows]


def test_each_dram_trace_is_mapped_once(monkeypatch):
    # The all-hits bound reads arrivals only; simulate alone derives the
    # shifts and masks that map addresses.
    real, calls = dramsim._bank_row, []
    monkeypatch.setattr(dramsim, "_bank_row", lambda *a: calls.append(1) or real(*a))
    # Both runs get the one trace, whose columns Trace made contiguous.
    schedule, traces = dramsim._schedule, []
    monkeypatch.setattr(dramsim, "_schedule", lambda t, *a: traces.append(t) or schedule(t, *a))
    rec = np.zeros(100, traceio.RECORD_DTYPE)
    rec["vaddr"] = np.arange(100) * 4096
    rec["cycle"] = np.arange(100) * 4
    trace = traceio.Trace(rec["vaddr"], rec["cycle"], rec["kind"])
    actual, ideal = pipeline.simulate_dram(trace, pipeline.resolve_config({}))
    assert len(calls) == 1 and traces[0] is traces[1]
    assert traces[0].vaddr.flags.c_contiguous and traces[0].cycle.flags.c_contiguous
    assert actual.total == ideal.total == 100 and ideal.per_bank == {}
    # Nor does the bound call dramsim.simulate, so a wrapper of that
    # attribute sees one call per actual run.
    monkeypatch.setattr(dramsim, "simulate", lambda *a, **k: pytest.fail("simulate called"))
    assert dramsim.simulate_ideal(trace) == ideal and len(calls) == 1


def test_a_run_builds_its_simulator_configs_once(monkeypatch):
    # Eight variants share one CacheConfig, PrefetchConfig and DramConfig,
    # and with them the level geometry and the DRAM mapping; the next run
    # builds its own.
    built = []
    for module, name in ((memsys, "CacheConfig"), (memsys, "PrefetchConfig"),
                         (dramsim, "DramConfig"), (dramsim, "_bank_row")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real, _name=name, **k: built.append(_name)
                            or _real(*a, **k))
    config = {**BASE, "variants": ["baseline", "hilbert", "zorder-comp", "first-touch",
                                   "rcb", "block", "zorder", "sw-prefetch"]}
    first = pipeline.run_pipeline(config)
    assert len(first) == 8
    assert sorted(built) == ["CacheConfig", "DramConfig", "PrefetchConfig", "_bank_row"]
    assert without_overhead(pipeline.run_pipeline(config)) == without_overhead(first)
    assert sorted(built) == sorted(["CacheConfig", "DramConfig", "PrefetchConfig",
                                    "_bank_row"] * 2)


def test_defaults_table_matches_the_library_defaults():
    """pipeline.DEFAULTS writes the cache defaults again, in KiB; its dram
    and prefetch sections are DramConfig's and PrefetchConfig's own."""
    assert pipeline.memory_config(pipeline.resolve_config({}))[0] == memsys.CacheConfig()
