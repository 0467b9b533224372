"""Timing loop, operation tally and metric assembly for run.py.

Imported only after run.prepare_environment() has put the checkout's
memloc on the path.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Scaler
from spans import LAYERS, Recorder, installed
from workloads import ALL_VARIANTS, WORKLOADS, Op, digest_ops

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_PROBES = 11
MIN_PASSES = 3
HELD_OUT_OFFSET = 1_000_003  # the held-out seed is seed + this


class Tally:
    """Operations attempted and failed, with the first digest per op name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict = {}

    def add(self, ops, label: str) -> None:
        for op in ops:
            ref = self.reference.setdefault(op.name, op.digest)
            if op.digest != ref:
                op.errors.append(f"digest {op.digest[:12]} != reference {ref[:12]}")
            self.attempted += 1
            if op.errors:
                self.failed += 1
                print(f"perfbench: {label}: {op.name}: {'; '.join(op.errors)}",
                      file=sys.stderr)

    def digest(self) -> str:
        return digest_ops(Op(name, d) for name, d in self.reference.items())


def run_pass(wl, state, rec: Recorder, tally: Tally, label: str, timed: bool = False):
    """One checked pass; returns (host seconds, simulated per-variant values).

    Only wl.execute is timed.  rec.counts holds the pass's counts after it.
    """
    pass_dir = WORK / f"pass-{os.getpid()}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    gc.collect()
    rec.new_pass()
    rec.timed = timed
    t0 = time.perf_counter()
    try:
        result = wl.execute(state, pass_dir)
    finally:
        seconds = time.perf_counter() - t0
        rec.timed = False
    try:
        ops, sim = wl.check(state, result, rec, pass_dir)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    tally.add(ops, label)
    return seconds, sim


def measure_setup(workload: str, inputs: dict) -> tuple:
    """Set-up seconds, each measured in a fresh process, one after another:
    (scaled to the reference host speed, as measured)."""
    scaler = Scaler()
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload,
             "--inputs", json.dumps(inputs)],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
        raw.append(float(proc.stdout.split()[-1]))
        scaled.append(raw[-1] * scaler.factor())
    return scaled, raw


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4f}" for v in values) + "]"


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def end_to_end(args, wl, inputs, state, rec, tally) -> dict:
    setup, setup_raw = measure_setup(args.workload, inputs)
    run_pass(wl, state, rec, tally, "warm-up")
    # Times are scaled to the reference host speed: see "Noise" in README.md.
    scaler = Scaler()
    times, raw = [], []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        seconds, _ = run_pass(wl, state, rec, tally, f"pass {len(times) + 1}")
        raw.append(seconds)
        times.append(seconds * scaler.factor())
    pass_s = statistics.median(times)
    print(f"perfbench: pass_s is the median of {len(times)} scaled passes {_fmt(times)}; "
          f"as measured: median {statistics.median(raw):.4f} s {_fmt(raw)}; "
          f"calibrations {_fmt(scaler.samples)}")
    print(f"perfbench: setup_s is the median of {len(setup)} fresh processes, scaled "
          f"{_fmt(setup)}, as measured {_fmt(setup_raw)}")
    return {
        "pass_s": metric(pass_s, "s"),
        "records_per_s": metric(rec.counts["memsys.records_in"] / pass_s, "records/s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MiB"),
    }


def per_layer(args, wl, inputs, state, rec, tally) -> dict:
    run_pass(wl, state, rec, tally, "warm-up")
    scaler = Scaler()
    untraced, traced, layer_s = [], [], {name: [] for name in LAYERS}
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        seconds, _ = run_pass(wl, state, rec, tally, f"untraced {len(untraced) + 1}")
        untraced.append(seconds * scaler.factor())
        first = len(rec.spans)
        seconds, sim = run_pass(wl, state, rec, tally, f"traced {len(traced) + 1}",
                                timed=True)
        factor = scaler.factor()
        traced.append(seconds * factor)
        selfs = rec.self_times(first)
        for name in LAYERS:
            layer_s[name].append(selfs[name] * factor)
    med = {name: statistics.median(v) for name, v in layer_s.items()}
    c = rec.counts
    per_bank = list(rec.per_bank.values())
    out = {
        "kernels.gen_s": metric(med["kernels.gen"], "s"),
        "kernels.records_out": metric(c["kernels.records_out"], "count"),
        "kernels.records_per_s": metric(_rate(c["kernels.records_out"], med["kernels.gen"]),
                                        "records/s"),
        "memsys.filter_s": metric(med["memsys.filter"], "s"),
        "memsys.records_in": metric(c["memsys.records_in"], "count"),
        "memsys.records_per_s": metric(_rate(c["memsys.records_in"], med["memsys.filter"]),
                                       "records/s"),
        "memsys.dram_out": metric(c["memsys.dram_out"], "count"),
        "memsys.inject_s": metric(med["memsys.inject"], "s"),
        "dramsim.simulate_s": metric(med["dramsim.simulate"], "s"),
        "dramsim.ideal_s": metric(med["dramsim.ideal"], "s"),
        "dramsim.requests_per_s": metric(_rate(c["dramsim.requests"], med["dramsim.simulate"]),
                                         "requests/s"),
        "reorder.sfc_s": metric(med["reorder.sfc"], "s"),
        "reorder.rcb_s": metric(med["reorder.rcb"], "s"),
        "reorder.first_touch_s": metric(med["reorder.first_touch"], "s"),
        "reorder.block_s": metric(med["reorder.block"], "s"),
        "traceio.read_s": metric(med["traceio.read"], "s"),
        "traceio.write_s": metric(med["traceio.write"], "s"),
        "traceio.mb_per_s": metric(_rate(c["traceio.bytes"] / 2**20,
                                         med["traceio.read"] + med["traceio.write"]), "MiB/s"),
        "pipeline.self_s": metric(med["pipeline"], "s"),
        "cli.self_s": metric(med["cli"], "s"),
        # Passes alternate and each is scaled, so pairs compare like with like.
        "trace.overhead_s": metric(statistics.median(t - u for t, u in zip(traced, untraced)),
                                   "s"),
    }
    for lv in (1, 2, 3):
        out[f"memsys.l{lv}_miss_ratio"] = metric(
            _rate(c[f"memsys.l{lv}_misses"], c[f"memsys.l{lv}_accesses"]), "ratio")
    for name in ("memsys.hw_pf_issued", "memsys.hw_pf_useful", "dramsim.row_hits",
                 "dramsim.row_closed", "dramsim.row_conflicts"):
        out[name] = metric(c[name], "count")
    out["dramsim.bank_skew"] = metric(
        max(per_bank) / statistics.mean(per_bank) if per_bank else 0.0, "ratio")
    for v in ALL_VARIANTS:
        out[f"dramsim.row_hit_ratio.{v}"] = metric(
            sim.get(f"dramsim.row_hit_ratio.{v}", 0.0), "ratio")
    for v in ALL_VARIANTS:
        out[f"dramsim.avg_latency_cyc.{v}"] = metric(
            sim.get(f"dramsim.avg_latency_cyc.{v}", 0.0), "cycles")
    top = max(med, key=med.get)
    print(f"perfbench: {len(traced)} traced and {len(untraced)} untraced passes; "
          f"layer self times sum to {sum(med.values()):.4f} s against traced pass_s "
          f"{statistics.median(traced):.4f} s and untraced "
          f"{statistics.median(untraced):.4f} s; top layer {top} "
          f"({med[top] / sum(med.values()):.0%})")
    return out


def write_spans(args, rec: Recorder, metrics: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    doc = {"workload": args.workload, "seed": args.seed, "metrics": metrics,
           "spans": rec.dump()}
    path.write_text(json.dumps(doc))
    return path


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.tiny)
    held_out = args.seed + HELD_OUT_OFFSET
    held_inputs = wl.inputs(held_out, args.tiny)
    tally, held_tally = Tally(), Tally()
    rec = Recorder()
    try:
        with installed(rec):
            state = wl.setup(inputs)
            measure = per_layer if args.trace else end_to_end
            metrics = measure(args, wl, inputs, state, rec, tally)
            run_pass(wl, wl.setup(held_inputs), rec, held_tally, f"held-out seed {held_out}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if args.trace:
        path = write_spans(args, rec, metrics)
        print(f"perfbench: spans written to {path.relative_to(HERE.parent)}")
    attempted = tally.attempted + held_tally.attempted
    failed = tally.failed + held_tally.failed
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"inputs={json.dumps(inputs, separators=(',', ':'))}")
    print(f"perfbench: digest={tally.digest()} held_out_seed={held_out} "
          f"held_out_digest={held_tally.digest()}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0
