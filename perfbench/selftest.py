"""The benchmark's own tests: tiny inputs, a few seconds per workload.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these tests out of the repository's default test
collection; they run the benchmark, not memloc's unit tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.prepare_environment()
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from memloc import memsys, traceio  # noqa: E402


def bench(*args, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    res = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", str(trace), "--tiny"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_same_seed_same_digest_and_counts():
    outs = [bench("--workload", "knn-sweep", "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--tiny") for _ in range(2)]
    digests = [[ln for ln in o.stdout.splitlines() if "digest=" in ln] for o in outs]
    assert digests[0] == digests[1] and digests[0]
    simulated = [{k: v["value"] for k, v in result_of(o)["metrics"].items()
                  if not k.endswith("_s") and "per_s" not in k} for o in outs]
    assert simulated[0] == simulated[1]


def _two_tiny_passes(workload: str, perturb_second: bool) -> harness.Tally:
    """Two passes of a tiny workload; with perturb_second, every DRAM trace
    the second pass filters loses its first record."""
    wl = workloads.WORKLOADS[workload]
    rec, tally = spans.Recorder(), harness.Tally()
    real_filter = memsys.filter_to_dram
    perturb = {"on": False}

    def filter_to_dram(trace, *args, **kwargs):
        out, stats = real_filter(trace, *args, **kwargs)
        if perturb["on"]:
            out = traceio.Trace(out.vaddr[1:], out.cycle[1:], out.kind[1:])
        return out, stats

    memsys.filter_to_dram = filter_to_dram
    try:
        with spans.installed(rec):
            state = wl.setup(wl.inputs(7, True))
            harness.run_pass(wl, state, rec, tally, "first")
            perturb["on"] = perturb_second
            harness.run_pass(wl, state, rec, tally, "second")
    finally:
        memsys.filter_to_dram = real_filter
    return tally


@pytest.mark.parametrize("workload", ["knn-sweep", "gather-chain"])
def test_perturbed_output_fails_the_digest_check(workload, capsys):
    assert _two_tiny_passes(workload, perturb_second=False).failed == 0
    capsys.readouterr()
    tally = _two_tiny_passes(workload, perturb_second=True)
    assert 0 < tally.failed < tally.attempted
    assert "!= reference" in capsys.readouterr().err


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rec.spans = [["pipeline", 0.0, 10.0, -1, {}], ["kernels.gen", 1.0, 4.0, 0, {}],
                 ["kernels.gen", 2.0, 3.0, 1, {}], ["memsys.filter", 5.0, 9.0, 0, {}]]
    selfs = rec.self_times()
    assert selfs == {"pipeline": 3.0, "kernels.gen": 3.0, "memsys.filter": 4.0}
    assert sum(selfs.values()) == 10.0


def test_nested_ideal_call_is_counted_once():
    rec = spans.Recorder()
    with spans.installed(rec):
        state = workloads.pipeline_setup(workloads.knn_config(1, True))
        harness.run_pass(workloads.WORKLOADS["knn-sweep"], state, rec, harness.Tally(),
                         "one", timed=True)
    variants = len(workloads.KNN_VARIANTS)
    assert len(rec.ideals) == len(rec.sims) == variants
    ideal_spans = [s for s in rec.spans if s[0] == "dramsim.ideal"]
    assert len(ideal_spans) == 2 * variants  # simulate_ideal -> simulate(ideal=True)
    assert sum(1 for s in ideal_spans if s[4]) == variants  # counted once, outermost
    assert rec.counts["dramsim.ideal_requests"] == rec.counts["dramsim.requests"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "results"))
    proc = bench("--workload", "knn-sweep", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
