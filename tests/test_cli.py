import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from memloc import cli, pipeline, reorder, traceio
from memloc.cli import main, render_report
from reference_models import load_permutation_oracle

GOLDEN = json.loads((Path(__file__).parent / "golden_pipeline.json").read_text())


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def gather_prefix(tmp_path):
    prefix = tmp_path / "g"
    assert run(["gen", "--kind", "gather", "--n", str(1 << 16), "--count",
                "10000", "--seed", "3", "--out", prefix]) == 0
    return prefix


def test_importing_the_cli_leaves_the_process_pool_out():
    # Only pipeline --jobs above 1 needs it, and with it logging.
    code = ("import sys, memloc.cli\n"
            "assert 'concurrent.futures' not in sys.modules\n")
    src = Path(pipeline.__file__).parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(src)})


class TestGen:
    def test_gather_record_count(self, gather_prefix, capsys):
        trace = traceio.read_trace(str(gather_prefix) + ".trace")
        assert len(trace) == 10000

    def test_deterministic_files(self, tmp_path):
        args = ["gen", "--kind", "knn", "--n", "500", "--m", "2", "--k", "3",
                "--queries", "50", "--seed", "9"]
        assert run(args + ["--out", tmp_path / "a"]) == 0
        assert run(args + ["--out", tmp_path / "b"]) == 0
        for suffix in (".trace", ".data", ".rows"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == \
                   (tmp_path / ("b" + suffix)).read_bytes()

    def test_zero_queries_empty_trace(self, tmp_path):
        assert run(["gen", "--kind", "knn", "--n", "100", "--queries", "0",
                    "--out", tmp_path / "q0"]) == 0
        assert len(traceio.read_trace(tmp_path / "q0.trace")) == 0

    @pytest.mark.parametrize("flag, value, low", [("--k", "0", 1), ("--queries", "-1", 0)])
    def test_bad_knn_sizes_fail_at_config(self, tmp_path, capsys, flag, value, low):
        assert run(["gen", "--kind", "knn", "--n", "100", flag, value, "--out", tmp_path / "bad"]) == 1
        assert f"memloc: config: kernel.{flag[2:]} must be >= {low}" in capsys.readouterr().err

    def test_negative_seed_fails_at_config(self, tmp_path, capsys):
        assert run(["gen", "--kind", "gather", "--n", "10", "--count", "5", "--seed", "-1",
                    "--out", tmp_path / "g"]) == 1
        assert capsys.readouterr().err.startswith("memloc: config: ")
        assert not (tmp_path / "g.trace").exists()

    def test_dbscan_and_dtree(self, tmp_path):
        assert run(["gen", "--kind", "dbscan", "--n", "200", "--radius", "0.1",
                    "--out", tmp_path / "db"]) == 0
        assert run(["gen", "--kind", "dtree", "--n", "200", "--m", "3",
                    "--max-depth", "3", "--out", tmp_path / "dt"]) == 0
        assert len(traceio.read_trace(tmp_path / "db.trace")) > 0
        assert len(traceio.read_trace(tmp_path / "dt.trace")) > 0

    @pytest.mark.parametrize("config", [None, {"seed": 2, "kernel": {"n": 100}}])
    def test_missing_kind_fails_at_config(self, tmp_path, capsys, config):
        argv = ["gen", "--n", "100", "--out", tmp_path / "g"]
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            argv += ["--config", tmp_path / "c.json"]
        assert run(argv) == 1
        assert capsys.readouterr().err == \
            f"memloc: config: kernel.kind must be one of {pipeline.KERNELS}\n"


class TestReorder:
    @pytest.fixture
    def dataset(self, tmp_path):
        path = tmp_path / "ds"
        reorder.save_dataset(path, np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        return path

    def test_hilbert_four_point_grid(self, dataset, tmp_path):
        out = tmp_path / "h"
        assert run(["reorder", "--method", "hilbert", "--dataset", dataset,
                    "--bits", "1", "--out", out]) == 0
        perm = load_permutation_oracle(str(out) + ".perm.csv")
        assert perm.tolist() == [0, 2, 3, 1]

    def test_overhead_reported_positive(self, dataset, tmp_path):
        for method in ("rcb", "zorder", "hilbert"):
            out = tmp_path / method
            assert run(["reorder", "--method", method, "--dataset", dataset,
                        "--bits", "2", "--out", out]) == 0
            with open(str(out) + ".overhead.csv") as f:
                rows = list(csv.DictReader(f))
            assert float(rows[0]["overhead_s"]) > 0

    def test_sfc_bounds_past_float64_fail_at_reorder(self, tmp_path, capsys):
        # max - min overflows: no grid can hold these rows.
        reorder.save_dataset(tmp_path / "wide", np.array([[-1e308], [1e308], [0.0], [5e307]]))
        assert run(["reorder", "--method", "hilbert", "--dataset", tmp_path / "wide",
                    "--out", tmp_path / "w"]) == 1
        assert capsys.readouterr().err.startswith("memloc: reorder: hi - lo must be finite")

    @pytest.mark.parametrize("method", ["zorder-comp", "first-touch"])
    def test_method_rejected_for_tree_kernel(self, method, dataset, tmp_path, capsys):
        rc = run(["reorder", "--method", method, "--kernel", "dtree",
                  "--dataset", dataset, "--out", tmp_path / "x"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"memloc: reorder: {method} is not applicable to tree kernels\n")
        assert not list(tmp_path.glob("x*"))

    def test_first_touch_roundtrip(self, dataset, tmp_path):
        rows_path = tmp_path / "rows.bin"
        np.array([2, 0, 2, 1], dtype="<i8").tofile(rows_path)
        out = tmp_path / "ft"
        assert run(["reorder", "--method", "first-touch", "--dataset", dataset,
                    "--rows", rows_path, "--out", out]) == 0
        perm = load_permutation_oracle(str(out) + ".perm.csv")
        assert perm.tolist() == [2, 0, 1, 3]

    def test_block_writes_reordered_rows(self, tmp_path):
        rows_path = tmp_path / "rows.bin"
        np.array([0, 100, 1, 101], dtype="<i8").tofile(rows_path)
        out = tmp_path / "blk"
        assert run(["reorder", "--method", "block", "--rows", rows_path,
                    "--row-stride", "64", "--window", "4", "--out", out]) == 0
        blocked = np.fromfile(str(out) + ".rows", dtype="<i8")
        assert blocked.tolist() == [0, 1, 100, 101]

    def test_block_rejects_a_zero_row_stride(self, tmp_path, capsys):
        rows_path = tmp_path / "rows.bin"
        np.array([0, 100, 1, 101], dtype="<i8").tofile(rows_path)
        assert run(["reorder", "--method", "block", "--rows", rows_path,
                    "--row-stride", "0", "--out", tmp_path / "blk"]) == 1
        assert capsys.readouterr().err.startswith("memloc: reorder: row_stride_bytes")

    def test_block_rejects_rows_past_byte_2_63(self, tmp_path, capsys):
        # Row 2**58 starts at byte 2**64, which int64 would wrap to page 0.
        rows_path = tmp_path / "rows.bin"
        np.array([2**58, 2**58 + 64, 1, 2**58 + 1], dtype="<i8").tofile(rows_path)
        assert run(["reorder", "--method", "block", "--rows", rows_path,
                    "--row-stride", "64", "--out", tmp_path / "blk"]) == 1
        assert capsys.readouterr().err.startswith(f"memloc: reorder: rows start at bytes 64 "
                                                  f"to {(2**58 + 64) * 64}, outside")
        assert not (tmp_path / "blk.rows").exists()

    def test_block_output_can_be_blocked_again(self, tmp_path):
        # Every .rows output records its row stride beside it.
        assert run(["gen", "--kind", "gather", "--n", "5000", "--count", "2000", "--m", "16",
                    "--seed", "1", "--out", tmp_path / "g"]) == 0
        assert run(["reorder", "--method", "block", "--rows", tmp_path / "g.rows",
                    "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "b.rows.json").read_text() == (tmp_path / "g.rows.json").read_text()
        assert run(["reorder", "--method", "block", "--rows", tmp_path / "b.rows",
                    "--out", tmp_path / "c"]) == 0
        assert json.loads((tmp_path / "c.rows.json").read_text()) == {"row_stride_bytes": 128}


class TestFilterAndDram:
    def test_filter_then_dramsim(self, gather_prefix, tmp_path):
        dram = tmp_path / "dram.trace"
        stats = tmp_path / "filter.csv"
        assert run(["filter", "--trace", str(gather_prefix) + ".trace",
                    "--out", dram, "--stats", stats]) == 0
        assert len(traceio.read_trace(dram)) > 0
        dstats = tmp_path / "dram.csv"
        assert run(["dramsim", "--trace", dram, "--stats", dstats]) == 0
        with open(dstats) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
        assert 0.0 <= float(rows[0]["hit_ratio"]) <= 1.0

    def test_dramsim_refuses_a_stats_file_of_another_table(self, gather_prefix, tmp_path,
                                                          capsys):
        dram, stats = tmp_path / "dram.trace", tmp_path / "filter.csv"
        assert run(["filter", "--trace", f"{gather_prefix}.trace", "--out", dram,
                    "--stats", stats]) == 0
        before = stats.read_bytes()
        capsys.readouterr()
        assert run(["dramsim", "--trace", dram, "--stats", stats]) == 1
        assert capsys.readouterr().err == f"memloc: dramsim: {stats} holds another table\n"
        assert stats.read_bytes() == before

    def test_filter_checks_a_trace_once_per_file_boundary(self, gather_prefix, tmp_path,
                                                          monkeypatch):
        # read_trace checks the trace it reads and write_trace the one it
        # writes; the filter, which reads no cycle, checks nothing.
        real, calls = traceio.Trace.validate, []
        monkeypatch.setattr(traceio.Trace, "validate",
                            lambda trace: calls.append(len(trace)) or real(trace))
        assert run(["filter", "--trace", f"{gather_prefix}.trace", "--out", tmp_path / "d",
                    "--stats", tmp_path / "s.csv"]) == 0
        assert len(calls) == 2 and calls[0] == 10000

    def test_prefetch_injection(self, gather_prefix, tmp_path):
        out = tmp_path / "pf.trace"
        assert run(["prefetch", "--trace", str(gather_prefix) + ".trace",
                    "--distance", "16", "--out", out]) == 0
        t = traceio.read_trace(out)
        assert (t.kind == 2).sum() == 10000 - 16

    def test_empty_l1_fails_at_filter(self, gather_prefix, tmp_path):
        """Run in a subprocess, since a zero-set level once crashed the process."""
        done = subprocess.run(
            [sys.executable, "-m", "memloc.cli", "filter", "--trace", f"{gather_prefix}.trace",
             "--out", str(tmp_path / "d.trace"), "--stats", str(tmp_path / "s.csv"),
             "--l1-kb", "0"], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).parents[1])})
        assert done.returncode == 1
        assert done.stderr == "memloc: filter: capacity and associativity must be >= 1\n"

    def test_stage_peak_memory_stays_near_the_input_size(self, tmp_path):
        """Each stage holds its input's 13-byte columns and what it builds,
        not a record array or a second copy of a column: on a gather that
        misses L3, prefetch builds two records per input record, and
        filter and dramsim about one column set each."""
        g = tmp_path / "g"
        assert run(["gen", "--kind", "gather", "--n", "4000000", "--count", "200000",
                    "--seed", "1", "--row-stride", "64", "--out", g]) == 0
        trace, dram = f"{g}.trace", tmp_path / "g.dram"
        for argv, bound in (
                (["prefetch", "--trace", trace, "--out", tmp_path / "pf.trace"], 2.6),
                (["filter", "--trace", trace, "--l3-kb", "512", "--out", dram,
                  "--stats", tmp_path / "f.csv"], 1.85),
                (["dramsim", "--trace", dram, "--stats", tmp_path / "d.csv"], 1.1)):
            tracemalloc.start()
            try:
                assert run(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * os.path.getsize(argv[2]), argv[0]


def test_gen_rejects_a_trace_past_the_cycle_field(tmp_path, monkeypatch, capsys):
    real = traceio.Trace.from_addresses.__func__
    monkeypatch.setattr(traceio.Trace, "from_addresses", classmethod(
        lambda cls, vaddr, kind=traceio.KIND_READ, issue_gap=0: real(cls, vaddr, kind, 2**31)))
    assert run(["gen", "--kind", "gather", "--n", "100", "--count", "3",
                "--out", tmp_path / "g"]) == 1
    assert capsys.readouterr().err.startswith("memloc: gen: trace too long: 3 records")


class TestPipeline:
    def config(self, tmp_path, variants):
        cfg = {
            "seed": 5,
            "kernel": {"kind": "knn", "n": 2000, "m": 2, "k": 3,
                       "queries": 200, "clusters": 8, "layout": "contiguous",
                       "row_stride_bytes": 64},
            "cache": {"l3_kb": 64},
            "variants": variants,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path, cfg

    def test_baseline_only_single_row(self, tmp_path):
        path, _ = self.config(tmp_path, ["baseline"])
        out = tmp_path / "out.csv"
        assert run(["pipeline", "--config", path, "--out", out]) == 0
        rows = pipeline.read_csv(out)
        assert len(rows) == 1
        assert rows[0]["variant"] == "baseline"

    def test_rerun_is_csv_identical(self, tmp_path):
        path, _ = self.config(tmp_path, ["baseline", "zorder-comp"])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["pipeline", "--config", path, "--out", a]) == 0
        assert run(["pipeline", "--config", path, "--out", b]) == 0
        ra = [{k: v for k, v in r.items() if k != "overhead_s"}
              for r in pipeline.read_csv(a)]
        rb = [{k: v for k, v in r.items() if k != "overhead_s"}
              for r in pipeline.read_csv(b)]
        assert ra == rb

    def test_ideal_bounds_actual_in_every_row(self, tmp_path):
        path, _ = self.config(tmp_path, ["baseline", "hilbert", "block"])
        out = tmp_path / "out.csv"
        assert run(["pipeline", "--config", path, "--out", out]) == 0
        for r in pipeline.read_csv(out):
            assert float(r["ideal_latency"]) <= float(r["avg_latency"])

    def test_rows_echo_config_hash(self, tmp_path):
        path, cfg = self.config(tmp_path, ["baseline", "rcb"])
        out = tmp_path / "out.csv"
        assert run(["pipeline", "--config", path, "--out", out]) == 0
        h = pipeline.config_hash(cfg)
        assert all(r["config_hash"] == h for r in pipeline.read_csv(out))

    def test_stage_error_is_tagged(self, tmp_path):
        cfg = {"seed": 1, "kernel": {"kind": "dtree", "n": 100, "m": 2},
               "variants": ["zorder-comp"]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run(["pipeline", "--config", path, "--out", tmp_path / "o.csv"]) != 0


class TestReport:
    def write_csv(self, path, rows):
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)

    def test_single_row(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        self.write_csv(path, [{"benchmark": "demo", "hit_ratio": 0.5,
                               "avg_latency": 40.0, "ideal_latency": 20.0,
                               "improvement_pct": 50.0}])
        assert run(["report", path]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "0.50, 40.00, 20.00, 50.00" in out

    def test_reference_rows_render_verbatim(self, tmp_path, capsys):
        path = tmp_path / "ref.csv"
        self.write_csv(path, [
            {"benchmark": "KNN", "hit_ratio": 0.13, "avg_latency": 92.13,
             "ideal_latency": 68.67, "improvement_pct": 25.46},
            {"benchmark": "Adaboost", "hit_ratio": 0.64, "avg_latency": 82.37,
             "ideal_latency": 72.61, "improvement_pct": 11.84},
        ])
        assert run(["report", path]) == 0
        out = capsys.readouterr().out
        assert "0.13, 92.13, 68.67, 25.46" in out
        assert "0.64, 82.37, 72.61, 11.84" in out

    def test_empty_input_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("benchmark,hit_ratio,avg_latency,ideal_latency\n")
        assert run(["report", path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1  # header only

    def test_a_row_without_improvement_fails(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        self.write_csv(path, [{"benchmark": "demo", "hit_ratio": 0.5,
                               "avg_latency": 40.0, "ideal_latency": 20.0}])
        assert run(["report", path]) == 1
        assert capsys.readouterr().err == (
            "memloc: report: missing columns {'improvement_pct'}\n")

    @pytest.mark.parametrize("body, err", [
        ("a,0.5,40,20,50\nb,0.5,,20,50\n", "row 2: avg_latency is not a number ('')"),
        ("a,0.5,40\n", "row 1: ideal_latency is not a number (None)"),
    ], ids=["blank-cell", "short-row"])
    def test_a_cell_that_is_not_a_number_fails(self, tmp_path, capsys, body, err):
        path = tmp_path / "r.csv"
        path.write_text("benchmark,hit_ratio,avg_latency,ideal_latency,improvement_pct\n" + body)
        assert run(["report", path]) == 1
        assert capsys.readouterr().err == f"memloc: report: {path}: {err}\n"

    def test_schema_mismatch_fails(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        assert run(["report", path]) != 0


class TestPipelineJobs:
    """--jobs never forks more workers than there are configs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures  # the module cmd_pipeline imports when it needs a pool

        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(pipeline, "run_pipeline", lambda cfg: [])
        return made

    def configs(self, tmp_path, count):
        paths = [tmp_path / f"c{i}.json" for i in range(count)]
        for p in paths:
            p.write_text("{}")
        return paths

    @pytest.mark.parametrize("jobs, count, workers", [(500, 2, [2]), (3, 5, [3]),
                                                      (8, 1, []), (1, 4, [])])
    def test_workers_capped_at_config_count(self, pools, tmp_path, jobs, count, workers):
        argv = ["pipeline", "--config", *self.configs(tmp_path, count),
                "--out", tmp_path / "o.csv", "--jobs", jobs]
        assert run(argv) == 0
        assert pools == workers

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, pools, tmp_path, capsys, jobs):
        argv = ["pipeline", "--config", *self.configs(tmp_path, 2),
                "--out", tmp_path / "o.csv", "--jobs", jobs]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("memloc: pipeline: --jobs")
        assert pools == []


DTREE = next(c["config"] for c in GOLDEN if c["config"]["kernel"]["kind"] == "dtree")


def stage_argv(stage, d, *extra):
    """`stage` with its required arguments and then `extra`.  No input
    file under `d` exists, so a config error must come before a read."""
    required = {
        "gen": ["--out", d / "o"],
        "reorder": ["--method", "block", "--rows", d / "r", "--out", d / "o"],
        "prefetch": ["--trace", d / "t", "--out", d / "o"],
        "filter": ["--trace", d / "t", "--out", d / "o", "--stats", d / "s"],
        "dramsim": ["--trace", d / "t", "--stats", d / "s"],
    }
    return [stage, *required[stage], *extra]


class TestStageConfig:
    @pytest.mark.parametrize("stage, text, flags, err", [
        ("filter", '{"cache": 512}', ["--l3-kb", "64"], "config: cache must be an object\n"),
        ("dramsim", '{"dram": null}', ["--cap", "2"], "config: dram must be an object\n"),
        ("gen", "[1, 2]", ["--kind", "gather"], "config: the config must be an object\n"),
        ("prefetch", '"x"', ["--distance", "4"], "config: the config must be an object\n"),
        ("reorder", '{"kernel": {"kind": "knn", "rows": 9}}', ["--window", "8"],
         "config: unknown key 'kernel.rows'\n"),
        ("filter", None, ["--l3-kb", "64"],
         "filter: [Errno 2] No such file or directory: '{config}'\n"),
        ("dramsim", "{", [], "dramsim: Expecting property name"),
        ("gen", "", ["--kind", "gather"], "gen: Expecting value"),
        ("reorder", "{}", ["--kernel", "svm"],
         f"config: kernel.kind must be one of {pipeline.KERNELS}\n"),
        ("filter", '{"kernel": {"kind": "svm"}}', [],
         f"config: kernel.kind must be one of {pipeline.KERNELS}\n"),
    ], ids=["section-not-object", "null-section", "list-document", "string-document",
            "unknown-key", "missing-file", "unparsable", "empty-file", "unknown-kind-flag",
            "unknown-kind-config"])
    def test_bad_config_fails_with_its_stage(self, tmp_path, capsys, stage, text, flags, err):
        path = tmp_path / "c.json"
        if text is not None:
            path.write_text(text)
        assert run(stage_argv(stage, tmp_path, "--config", path, *flags)) == 1
        assert capsys.readouterr().err.startswith("memloc: " + err.format(config=path))

    @pytest.mark.parametrize("stage, config, flags, expected", [
        ("filter", {"cache": {"l2_kb": 32, "l3_kb": 512}}, ["--l3-kb", "64"],
         {"cache.l3_kb": 64, "cache.l2_kb": 32, "cache.l1_kb": 32}),
        ("filter", {"prefetch": {"hw": True, "hw_distance": 3}}, ["--hw-degree", "4"],
         {"prefetch.hw": True, "prefetch.hw_distance": 3, "prefetch.hw_degree": 4}),
        ("prefetch", {"prefetch": {"sw_distance": 4}}, ["--distance", "8"],
         {"prefetch.sw_distance": 8}),
        ("dramsim", DTREE, ["--cap", "4"],
         {"dram.cap": 4, "dram.arrival": "fixed-gap", "dram.arrival_gap": 30}),
        ("gen", {"seed": 4, "kernel": {"kind": "knn", "n": 50}}, ["--n", "70"],
         {"seed": 4, "kernel.kind": "knn", "kernel.n": 70}),
        ("reorder", {"sfc_bits": 5, "kernel": {"row_stride_bytes": 32}}, ["--bits", "7"],
         {"sfc_bits": 7, "kernel.row_stride_bytes": 32}),
    ])
    def test_a_flag_overrides_only_the_key_it_names(self, tmp_path, stage, config, flags,
                                                     expected):
        (tmp_path / "c.json").write_text(json.dumps(config))
        argv = stage_argv(stage, tmp_path, "--config", tmp_path / "c.json", *flags)
        cfg = cli._config(cli.build_parser().parse_args([str(a) for a in argv]))
        for path, value in expected.items():
            section, _, key = path.rpartition(".")
            assert (cfg[section] if section else cfg)[key] == value

    def test_flags_beat_the_config_end_to_end(self, gather_prefix, tmp_path):
        trace = f"{gather_prefix}.trace"
        (tmp_path / "c.json").write_text(json.dumps(
            {"cache": {"l3_kb": 512}, "prefetch": {"sw_distance": 4}}))
        (tmp_path / "c64.json").write_text(json.dumps({"cache": {"l3_kb": 64}}))
        assert run(["prefetch", "--config", tmp_path / "c.json", "--trace", trace,
                    "--distance", "8", "--out", tmp_path / "pf"]) == 0
        assert (traceio.read_trace(tmp_path / "pf").kind == 2).sum() == 10000 - 8
        for name, argv in (("flag", ["--config", tmp_path / "c.json", "--l3-kb", "64"]),
                           ("c64", ["--config", tmp_path / "c64.json"]),
                           ("c512", ["--config", tmp_path / "c.json"])):
            assert run(["filter", *argv, "--trace", trace, "--out", tmp_path / f"{name}.dram",
                        "--stats", tmp_path / f"{name}.csv"]) == 0
        flag = (tmp_path / "flag.dram").read_bytes()
        assert flag == (tmp_path / "c64.dram").read_bytes()
        assert flag != (tmp_path / "c512.dram").read_bytes()


def chain_row(case, tmp_path, variant):
    """The pipeline row fields a gen -> prefetch -> filter -> dramsim
    chain run with the case's config reports for `variant`."""
    config = tmp_path / "c.json"
    config.write_text(json.dumps(case["config"]))
    trace = tmp_path / ("g.trace" if variant == "baseline" else "pf.trace")
    stats = {name: tmp_path / f"{variant}.{name}.csv" for name in ("filter", "dram")}
    assert run(["gen", "--config", config, "--out", tmp_path / "g"]) == 0
    if variant == "sw-prefetch":
        assert run(["prefetch", "--config", config, "--trace", tmp_path / "g.trace",
                    "--out", trace]) == 0
    assert run(["filter", "--config", config, "--trace", trace, "--out", tmp_path / "d.trace",
                "--stats", stats["filter"]]) == 0
    assert run(["dramsim", "--config", config, "--trace", tmp_path / "d.trace",
                "--stats", stats["dram"]]) == 0
    (dram,) = pipeline.read_csv(stats["dram"])
    levels = {r["level"]: r for r in pipeline.read_csv(stats["filter"])}
    return {"records": len(traceio.read_trace(trace)),
            "dram_requests": sum(int(dram[k]) for k in ("hits", "misses", "conflicts")),
            **{k: float(dram[k]) for k in ("hit_ratio", "avg_latency", "ideal_latency",
                                           "improvement_pct")},
            "l2_miss_ratio": float(levels["L2"]["miss_ratio"]),
            "useless_prefetch_fraction": float(levels["useless_fraction"]["demand_accesses"])}


@pytest.mark.parametrize("variant", ["baseline", "sw-prefetch"])
@pytest.mark.parametrize("case", GOLDEN, ids=[c["config"]["kernel"]["kind"] for c in GOLDEN])
def test_chain_reproduces_the_golden_rows(case, variant, tmp_path):
    """A stage chain run with a pipeline's config gives that pipeline's row."""
    (row,) = (r for r in case["rows"] if r["variant"] == variant)
    got = chain_row(case, tmp_path, variant)
    assert got == {k: row[k] for k in got}
