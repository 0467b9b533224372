"""Command-line driver.

Subcommands: gen, reorder, filter, dramsim, prefetch, pipeline,
report.  The stage subcommands read one pipeline config (`--config`);
a flag that is given overrides the key its dest names (`--l3-kb` sets
`cache.l3_kb`), so a chain of stages reproduces a pipeline's `baseline`
and `sw-prefetch` rows.  Exit code is 0 on success; failures print a
stage-tagged message to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import _core, dramsim, memsys, pipeline, reorder, traceio


def _fail(stage: str, msg: str) -> int:
    print(f"memloc: {stage}: {msg}", file=sys.stderr)
    return 1


def _config(args) -> dict:
    """The resolved config of a stage call: the `--config` document with
    each given flag set at the key its dest names ("cache.l3_kb")."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    for dest, value in vars(args).items():
        section, _, key = dest.rpartition(".")
        if value is None or (section or key) not in pipeline.DEFAULTS:
            continue
        # A section that is not an object is left for resolve_config to reject.
        target = doc.setdefault(section, {}) if section and isinstance(doc, dict) else doc
        if isinstance(target, dict):
            target[key] = value
    return pipeline.resolve_config(doc)


def _save_rows(path, rows: np.ndarray, row_stride_bytes: int):
    """Write a row sequence (raw i64) and, in `<path>.json`, the row
    stride its rows lie at, which block reordering reads."""
    np.asarray(rows, dtype="<i8").tofile(path)
    Path(f"{path}.json").write_text(json.dumps({"row_stride_bytes": row_stride_bytes}))


def cmd_gen(args) -> int:
    prefix, ctx = args.out, pipeline.build_kernel(_config(args))
    trace, rows, _ = ctx.generate()
    for suffix, matrix in ((".data", ctx.data), (".queries", ctx.queries)):
        if matrix is not None:
            reorder.save_dataset(prefix + suffix, matrix)
    if ctx.labels is not None:
        np.asarray(ctx.labels, dtype="<i8").tofile(prefix + ".labels")
    _save_rows(prefix + ".rows", rows, ctx.addr.row_stride_bytes)
    traceio.write_trace(prefix + ".trace", trace)
    print(f"{len(trace)} records")
    return 0


def cmd_reorder(args) -> int:
    method, cfg = args.method, _config(args)
    data = reorder.load_dataset(args.dataset) if args.dataset else None
    rows = np.fromfile(args.rows, dtype="<i8") if args.rows else None
    stride, sidecar = cfg["kernel"]["row_stride_bytes"], Path(f"{args.rows}.json")
    if stride is None and args.rows and sidecar.is_file():
        # memloc gen records the row stride of the rows it writes.
        stride = json.loads(sidecar.read_text())["row_stride_bytes"]
    _core.prepare()  # a first build or load of the core is not the reordering's overhead
    t0 = time.perf_counter()
    perm, blocked = pipeline.reorder_by(method, cfg, kind=cfg["kernel"]["kind"], points=data,
                                        rows=rows, n=None if data is None else len(data),
                                        row_stride_bytes=stride)
    overhead = time.perf_counter() - t0
    if blocked is not None:
        _save_rows(args.out + ".rows", blocked, stride)
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
    cfg = _config(args)
    # No name holds the input trace, so it is freed before the output is written.
    dram_trace, stats = memsys.filter_to_dram(traceio.read_trace(args.trace),
                                              *pipeline.memory_config(cfg))
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
    cfg = _config(args)
    stats, ideal = pipeline.simulate_dram(traceio.read_trace(args.trace), cfg)
    header = ["trace", "scheme", "cap", "hits", "misses", "conflicts",
              "hit_ratio", "avg_latency", "ideal_latency", "improvement_pct"]
    row = [args.trace, cfg["dram"]["scheme"], cfg["dram"]["cap"], stats.hits, stats.misses,
           stats.conflicts, f"{stats.hit_ratio:.6f}", f"{stats.avg_latency:.4f}",
           f"{ideal.avg_latency:.4f}", f"{dramsim.improvement(stats, ideal):.4f}"]
    with open(args.stats, "a+", newline="") as f:
        f.seek(0)
        first = next(csv.reader(f), None)  # None: a new or empty file
        if first not in (None, header):
            return _fail("dramsim", f"{args.stats} holds another table")
        w = csv.writer(f)
        if first is None:
            w.writerow(header)
        w.writerow(row)
    print(f"hit_ratio {stats.hit_ratio:.4f} avg_latency {stats.avg_latency:.2f}")
    return 0


def cmd_prefetch(args) -> int:
    distance, trace = _config(args)["prefetch"]["sw_distance"], traceio.read_trace(args.trace)
    n, out = len(trace), memsys.inject_sw_prefetch(trace, distance)
    del trace  # freed before the output is written
    traceio.write_trace(args.out, out)
    print(f"{len(out)} records ({len(out) - n} prefetches injected)")
    return 0


def cmd_pipeline(args) -> int:
    if args.jobs < 1:
        return _fail("pipeline", "--jobs must be >= 1")
    configs = [json.loads(Path(p).read_text()) for p in args.config]
    jobs = min(args.jobs, len(configs))  # the pool forks all its workers up front
    if jobs > 1:
        import concurrent.futures  # with logging, ~3 ms that a one-job run need not import
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
        imp = float(r["improvement_pct"])
        out.append(f"{name:<20} {hr:.2f}, {lat:.2f}, {ideal:.2f}, {imp:.2f}")
    return "\n".join(out)


def cmd_report(args) -> int:
    """Fails on a missing column, or on a cell of one that is not a number
    (a row cut short reads as None), naming the file and its row k, the
    k-th under the header."""
    rows, required = [], ("hit_ratio", "avg_latency", "ideal_latency", "improvement_pct")
    for path in args.csv:
        for k, r in enumerate(pipeline.read_csv(path), 1):
            if missing := set(required) - set(r):
                return _fail("report", f"missing columns {missing}")
            for column in required:
                try:
                    float(r[column])
                except (TypeError, ValueError):
                    return _fail("report", f"{path}: row {k}: {column} is not a number "
                                           f"({r[column]!r})")
            rows.append(r)
    print(render_report(rows))
    return 0


@functools.cache  # one parser per process: building it costs ~2 ms
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="memloc",
                                description="Memory-locality trace toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def stage(name, func, help, *paths):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", help="pipeline config JSON; given flags override its keys")
        for path in paths:
            sp.add_argument(path, required=True)
        sp.set_defaults(func=func)
        return sp

    # Each flag's dest is the config key it overrides; None leaves the key unset.
    g = stage("gen", cmd_gen, "generate a dataset and kernel trace")
    g.add_argument("--kind", dest="kernel.kind", choices=pipeline.KERNELS)
    for name, typ in (("n", int), ("m", int), ("k", int), ("queries", int), ("radius", float),
                      ("max_depth", int), ("count", int), ("clusters", int)):
        g.add_argument("--" + name.replace("_", "-"), dest="kernel." + name, type=typ)
    g.add_argument("--layout", dest="kernel.layout", choices=["contiguous", "shuffled"])
    g.add_argument("--row-stride", dest="kernel.row_stride_bytes", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output path prefix")

    r = stage("reorder", cmd_reorder, "build and apply a reordering")
    r.add_argument("--method", required=True, choices=pipeline.REORDERINGS)
    r.add_argument("--dataset", help="dataset path (raw f64 + .json sidecar)")
    r.add_argument("--rows", help="access row sequence (raw i64)")
    r.add_argument("--kernel", dest="kernel.kind", help="kernel kind, for applicability checks")
    r.add_argument("--bits", dest="sfc_bits", type=int)
    r.add_argument("--leaf-size", dest="rcb_leaf_size", type=int)
    r.add_argument("--window", dest="block_window", type=int)
    r.add_argument("--row-stride", dest="kernel.row_stride_bytes", type=int)
    r.add_argument("--out", required=True, help="output path prefix")

    f = stage("filter", cmd_filter, "filter a trace through the cache hierarchy",
              "--trace", "--out", "--stats")
    for level in ("l1_kb", "l2_kb", "l3_kb"):
        f.add_argument("--" + level.replace("_", "-"), dest="cache." + level, type=int)
    f.add_argument("--hw-prefetch", dest="prefetch.hw", action="store_true", default=None)
    f.add_argument("--hw-degree", dest="prefetch.hw_degree", type=int)
    f.add_argument("--sw-target", dest="prefetch.sw_target", choices=memsys.LEVEL_NAMES)

    d = stage("dramsim", cmd_dramsim, "simulate DRAM over a trace", "--trace", "--stats")
    d.add_argument("--scheme", dest="dram.scheme", choices=dramsim.SCHEMES)
    d.add_argument("--cap", dest="dram.cap", type=int)
    d.add_argument("--arrival", dest="dram.arrival", choices=dramsim.ARRIVALS)

    pf = stage("prefetch", cmd_prefetch, "inject software prefetch records", "--trace", "--out")
    pf.add_argument("--distance", dest="prefetch.sw_distance", type=int)

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
