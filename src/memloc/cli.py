"""Command-line driver.

Subcommands: gen, reorder, filter, dramsim, prefetch, pipeline,
report.  Exit code is 0 on success; failures print a stage-tagged
message to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import dramsim, kernels, memsys, pipeline, reorder, traceio

DEFAULTS = pipeline.DEFAULTS


def _fail(stage: str, msg: str) -> int:
    print(f"memloc: {stage}: {msg}", file=sys.stderr)
    return 1


def _save_rows(path, rows: np.ndarray):
    np.asarray(rows, dtype="<i8").tofile(path)


def cmd_gen(args) -> int:
    prefix = args.out
    kernel = {k: v for k, v in vars(args).items() if k in DEFAULTS["kernel"]}
    ctx = pipeline.build_kernel({"seed": args.seed, "kernel": kernel})
    trace, rows = ctx.generate()
    for suffix, matrix in ((".data", ctx.data), (".queries", ctx.queries)):
        if matrix is not None:
            reorder.save_dataset(prefix + suffix, matrix)
    if ctx.labels is not None:
        _save_rows(prefix + ".labels", ctx.labels)
    _save_rows(prefix + ".rows", rows)
    traceio.write_trace(prefix + ".trace", trace)
    print(f"{len(trace)} records")
    return 0


def cmd_reorder(args) -> int:
    method = args.method
    data = reorder.load_dataset(args.dataset) if args.dataset else None
    rows = np.fromfile(args.rows, dtype="<i8") if args.rows else None
    # Without a dataset the rows are taken to be the default kernel's.
    m = DEFAULTS["kernel"]["m"] if data is None else data.shape[1]
    stride = kernels.AddressModel.for_matrix(m, args.row_stride).row_stride_bytes
    params = {"sfc_bits": args.bits, "rcb_leaf_size": args.leaf_size,
              "block_window": args.window}
    t0 = time.perf_counter()
    perm, blocked = pipeline.reorder_by(method, params, kind=args.kernel, points=data,
                                        rows=rows, n=None if data is None else len(data),
                                        row_stride_bytes=stride)
    overhead = time.perf_counter() - t0
    if blocked is not None:
        _save_rows(args.out + ".rows", blocked)
    else:
        reorder.save_permutation(args.out + ".perm.csv", perm)
        reorder.save_dataset(args.out + ".data", reorder.apply_permutation(data, perm))
    with open(args.out + ".overhead.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "overhead_s"])
        w.writerow([method, f"{max(overhead, 1e-9):.6f}"])
    print(f"{method}: overhead {overhead:.4f}s")
    return 0


def cmd_filter(args) -> int:
    trace = traceio.read_trace(args.trace)
    cfg = pipeline.resolve_config({
        "cache": {"l1_kb": args.l1_kb, "l2_kb": args.l2_kb, "l3_kb": args.l3_kb},
        "prefetch": {"hw": args.hw_prefetch, "hw_degree": args.hw_degree,
                     "sw_target": args.sw_target}})
    dram_trace, stats = memsys.filter_to_dram(trace, *pipeline.memory_config(cfg))
    traceio.write_trace(args.out, dram_trace)
    with open(args.stats, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["level", "demand_accesses", "demand_misses", "miss_ratio"])
        for i, name in enumerate(memsys.LEVEL_NAMES):
            w.writerow([name, stats.demand_accesses[i], stats.demand_misses[i],
                        f"{stats.miss_ratio(i):.6f}"])
        w.writerow(["prefetch_issued", stats.hw_prefetches_issued, "", ""])
        w.writerow(["prefetch_useful", stats.hw_prefetches_useful, "", ""])
        w.writerow(["useless_fraction", f"{stats.useless_fraction:.6f}", "", ""])
    print(f"{len(dram_trace)} DRAM records")
    return 0


def cmd_dramsim(args) -> int:
    trace = traceio.read_trace(args.trace)
    stats, ideal = pipeline.simulate_dram(trace, pipeline.resolve_config(
        {"dram": {"scheme": args.scheme, "cap": args.cap, "arrival": args.arrival}}))
    header = ["trace", "scheme", "cap", "hits", "misses", "conflicts",
              "hit_ratio", "avg_latency", "ideal_latency", "improvement_pct"]
    row = [args.trace, args.scheme, args.cap, stats.hits, stats.misses,
           stats.conflicts, f"{stats.hit_ratio:.6f}", f"{stats.avg_latency:.4f}",
           f"{ideal.avg_latency:.4f}", f"{dramsim.improvement(stats, ideal):.4f}"]
    new = not Path(args.stats).exists()
    with open(args.stats, "a", newline="") as f:
        w = csv.writer(f)
        if new:
            w.writerow(header)
        w.writerow(row)
    print(f"hit_ratio {stats.hit_ratio:.4f} avg_latency {stats.avg_latency:.2f}")
    return 0


def cmd_prefetch(args) -> int:
    trace = traceio.read_trace(args.trace)
    out = memsys.inject_sw_prefetch(trace, args.distance)
    traceio.write_trace(args.out, out)
    print(f"{len(out)} records ({len(out) - len(trace)} prefetches injected)")
    return 0


def cmd_pipeline(args) -> int:
    if args.jobs < 1:
        return _fail("pipeline", "--jobs must be >= 1")
    configs = [json.loads(Path(p).read_text()) for p in args.config]
    jobs = min(args.jobs, len(configs))  # the pool forks all its workers up front
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(jobs) as ex:
            results = list(ex.map(pipeline.run_pipeline, configs))
    else:
        results = [pipeline.run_pipeline(c) for c in configs]
    rows = [r for rs in results for r in rs]
    pipeline.write_csv(args.out, rows)
    print(f"{len(rows)} result rows -> {args.out}")
    return 0


def render_report(rows: list[dict]) -> str:
    """Summary table: benchmark, hit ratio, latencies, improvement."""
    out = [f"{'benchmark':<20} {'hit-ratio':>9}  {'latency':>9}  "
           f"{'ideal':>9}  {'improvement%':>12}"]
    for r in rows:
        name = r.get("benchmark") or r.get("variant") or r.get("trace", "?")
        hr = float(r["hit_ratio"])
        lat = float(r["avg_latency"])
        ideal = float(r["ideal_latency"])
        if r.get("improvement_pct") not in (None, ""):
            imp = float(r["improvement_pct"])
        else:
            imp = 100.0 * (lat - ideal) / lat if lat else 0.0
        out.append(f"{name:<20} {hr:.2f}, {lat:.2f}, {ideal:.2f}, {imp:.2f}")
    return "\n".join(out)


def cmd_report(args) -> int:
    rows = [r for path in args.csv for r in pipeline.read_csv(path)]
    required = {"hit_ratio", "avg_latency", "ideal_latency"}
    for r in rows:
        if not required <= set(r):
            return _fail("report", f"missing columns {required - set(r)}")
    print(render_report(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memloc",
                                description="Memory-locality trace toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    kd = DEFAULTS["kernel"]
    g = sub.add_parser("gen", help="generate a dataset and kernel trace")
    g.add_argument("--kind", required=True, choices=pipeline.KERNELS)
    g.add_argument("--n", type=int, required=True)
    for name, typ in (("m", int), ("k", int), ("queries", int), ("radius", float),
                      ("max_depth", int), ("count", int), ("clusters", int)):
        g.add_argument("--" + name.replace("_", "-"), type=typ, default=kd[name])
    g.add_argument("--layout", choices=["contiguous", "shuffled"], default=kd["layout"])
    g.add_argument("--row-stride", dest="row_stride_bytes", type=int,
                   default=kd["row_stride_bytes"])
    g.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    g.add_argument("--out", required=True, help="output path prefix")
    g.set_defaults(func=cmd_gen)

    r = sub.add_parser("reorder", help="build and apply a reordering")
    r.add_argument("--method", required=True, choices=pipeline.REORDERINGS)
    r.add_argument("--dataset", help="dataset path (raw f64 + .json sidecar)")
    r.add_argument("--rows", help="access row sequence (raw i64)")
    r.add_argument("--kernel", help="kernel kind, for applicability checks")
    r.add_argument("--bits", type=int, default=DEFAULTS["sfc_bits"])
    r.add_argument("--leaf-size", type=int, default=DEFAULTS["rcb_leaf_size"])
    r.add_argument("--window", type=int, default=DEFAULTS["block_window"])
    r.add_argument("--row-stride", type=int)
    r.add_argument("--out", required=True, help="output path prefix")
    r.set_defaults(func=cmd_reorder)

    f = sub.add_parser("filter", help="filter a trace through the cache hierarchy")
    f.add_argument("--trace", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--stats", required=True)
    for level in ("l1_kb", "l2_kb", "l3_kb"):
        f.add_argument("--" + level.replace("_", "-"), type=int,
                       default=DEFAULTS["cache"][level])
    f.add_argument("--hw-prefetch", action="store_true")
    f.add_argument("--hw-degree", type=int, default=DEFAULTS["prefetch"]["hw_degree"])
    f.add_argument("--sw-target", default=DEFAULTS["prefetch"]["sw_target"],
                   choices=memsys.LEVEL_NAMES)
    f.set_defaults(func=cmd_filter)

    d = sub.add_parser("dramsim", help="simulate DRAM over a trace")
    d.add_argument("--trace", required=True)
    d.add_argument("--stats", required=True)
    d.add_argument("--scheme", default=DEFAULTS["dram"]["scheme"], choices=dramsim.SCHEMES)
    d.add_argument("--cap", type=int, default=DEFAULTS["dram"]["cap"])
    d.add_argument("--arrival", default=DEFAULTS["dram"]["arrival"],
                   choices=["from-trace", "fixed-gap"])
    d.set_defaults(func=cmd_dramsim)

    pf = sub.add_parser("prefetch", help="inject software prefetch records")
    pf.add_argument("--trace", required=True)
    pf.add_argument("--out", required=True)
    pf.add_argument("--distance", type=int, default=DEFAULTS["prefetch"]["sw_distance"])
    pf.set_defaults(func=cmd_prefetch)

    pl = sub.add_parser("pipeline", help="run experiment configs end to end")
    pl.add_argument("--config", nargs="+", required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--jobs", type=int, default=1)
    pl.set_defaults(func=cmd_pipeline)

    rp = sub.add_parser("report", help="merge result CSVs into a summary table")
    rp.add_argument("csv", nargs="+")
    rp.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except pipeline.PipelineError as e:
        print(f"memloc: {e}", file=sys.stderr)  # already stage-tagged
        return 1
    except (ValueError, OSError, traceio.TraceFormatError) as e:
        return _fail(args.command, str(e))


if __name__ == "__main__":
    sys.exit(main())
