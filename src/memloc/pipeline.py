"""The experiment model: kernels, variants, and end-to-end pipelines.

An experiment config (one JSON document) names a kernel, a memory
system, a DRAM model, and a list of variants.  Each variant runs
generate -> reorder -> replay -> cache-filter -> DRAM simulate (actual
and ideal) over identical seeds and yields one CSV row.  This module is
the only place that dispatches on kernel kind or reordering method; the
CLI is a file-I/O shell over it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import dramsim, kernels, memsys, reorder

CSV_FIELDS = [
    "config_hash", "variant", "records", "dram_requests",
    "hit_ratio", "avg_latency", "ideal_latency", "improvement_pct",
    "l2_miss_ratio", "useless_prefetch_fraction", "overhead_s",
]

KERNELS = ("knn", "dbscan", "dtree", "gather")
REORDERINGS = ("first-touch", "rcb", "hilbert", "zorder", "block", "zorder-comp")

# Every accepted config key and its default; a dict value is a section.
DEFAULTS = {
    "seed": 0, "variants": ("baseline",), "sfc_bits": reorder.DEFAULT_SFC_BITS,
    "rcb_leaf_size": 32, "block_window": reorder.DEFAULT_BLOCK_WINDOW,
    "kernel": {
        "kind": None, "n": 10000, "m": 2, "k": 5, "queries": 1000,
        "queries_from_data": True, "radius": 0.05, "max_depth": 8,
        "count": 100000, "clusters": 0, "layout": "contiguous", "spread": 0.02,
        "row_stride_bytes": None,  # None: m * 8, rows packed back to back
        "page_mapping": "identity",
    },
    "cache": {"l1_kb": 32, "l1_ways": 8, "l2_kb": 256, "l2_ways": 8,
              "l3_kb": 8192, "l3_ways": 16},
    "prefetch": {"hw": False, "hw_degree": 2, "hw_distance": 1,
                 "sw_target": "L2", "sw_distance": 16},
    "dram": {"banks": 16, "rows_per_bank": 32768, "row_size_bytes": 8192,
             "tCL": 16, "tRCD": 16, "tRP": 16, "tBURST": 4,
             "scheme": "RoBaRaCoCh", "cap": 4, "arrival": "from-trace",
             "arrival_gap": 4, "queue_depth": 32},
}


class PipelineError(RuntimeError):
    """Raised with the failing stage's name in the message."""


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as PipelineError("name: ...")."""
    try:
        yield
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"{name}: {e}") from e


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def resolve_config(config: dict, defaults: dict = DEFAULTS, prefix: str = "") -> dict:
    """`config` with every default filled in; unknown keys are rejected."""
    if not isinstance(config, dict):
        raise PipelineError(f"config: {prefix[:-1] or 'the config'} must be an object")
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise PipelineError(f"config: unknown key {prefix + unknown[0]!r}")
    out = {**defaults, **config}
    for key, section in defaults.items():
        if isinstance(section, dict):
            out[key] = resolve_config(config.get(key, {}), section, f"{key}.")
    return out


def memory_config(cfg: dict):
    """(CacheConfig, PrefetchConfig) of a resolved config."""
    c, p = cfg["cache"], cfg["prefetch"]
    levels = (memsys.LevelConfig(c[f"l{i}_kb"] * 1024, c[f"l{i}_ways"]) for i in (1, 2, 3))
    hw = memsys.StridePrefetchConfig(p["hw_degree"], p["hw_distance"]) if p["hw"] else None
    return memsys.CacheConfig(*levels), memsys.PrefetchConfig(hw, p["sw_target"])


def simulate_dram(dram_trace, cfg: dict):
    """(actual, ideal) DramStats of a DRAM trace under the config's model."""
    d = cfg["dram"]
    pick = lambda *keys: {k: d[k] for k in keys}  # noqa: E731
    geom = dramsim.DramGeometry(**pick("banks", "rows_per_bank", "row_size_bytes"))
    timing = dramsim.DramTiming(**pick("tCL", "tRCD", "tRP", "tBURST"))
    kw = pick("scheme", "arrival", "arrival_gap")
    return (dramsim.simulate(dram_trace, geom, timing, **kw, **pick("cap", "queue_depth")),
            dramsim.simulate_ideal(dram_trace, geom, timing, **kw))


@dataclass
class _KernelCtx:
    kind: str
    data: np.ndarray | None
    labels: np.ndarray | None
    queries: np.ndarray | None
    addr: kernels.AddressModel
    spec: dict
    seed: int

    def generate(self, data=None, labels=None, queries=None):
        """(trace, row_sequence) over the kernel's inputs, or reordered copies."""
        data = self.data if data is None else data
        k = self.spec
        with _stage("gen"):
            if self.kind == "knn":
                return kernels.gen_knn_trace(data, self.queries if queries is None else queries,
                                             k["k"], self.addr)
            if self.kind == "dbscan":
                return kernels.gen_dbscan_trace(data, k["radius"], self.addr)
            if self.kind == "dtree":
                return kernels.gen_dtree_trace(data, self.labels if labels is None else labels,
                                               k["max_depth"], self.addr)
            return kernels.gen_gather_trace(k["n"], k["count"], self.addr, self.seed)


def build_kernel(config: dict) -> _KernelCtx:
    cfg = resolve_config(config)
    k = cfg["kernel"]
    kind, seed = k["kind"], int(cfg["seed"])
    if kind not in KERNELS:
        raise PipelineError(f"config: kernel.kind must be one of {KERNELS}")
    for key, low in (("k", 1), ("queries", 0)) if kind == "knn" else ():
        if int(k[key]) < low:
            raise PipelineError(f"config: kernel.{key} must be >= {low}")
    n, m = int(k["n"]), int(k["m"])
    rng = np.random.default_rng(seed)
    data = labels = queries = None
    if kind != "gather":
        if k["clusters"]:
            data = kernels.make_clustered(n, m, int(k["clusters"]), seed,
                                          layout=k["layout"], spread=k["spread"])
        else:
            data = kernels.make_uniform(n, m, seed)
    if kind == "knn":
        nq = int(k["queries"])
        if k["clusters"] and k["queries_from_data"]:
            queries = data[rng.integers(0, n, nq)] + rng.normal(0, 0.005, (nq, m))
        else:
            queries = rng.random((nq, m))
    if kind == "dtree":
        labels = (data @ rng.random(m) > 0.5 * rng.random(m).sum()).astype(np.int64)
    stride = None if k["row_stride_bytes"] is None else int(k["row_stride_bytes"])
    # A gather read A[B[i]] loads one float64 element; other kernels read whole rows.
    addr = kernels.AddressModel.for_matrix(m, stride, 8 if kind == "gather" else None,
                                           page_mapping=k["page_mapping"], seed=seed, rows=n)
    return _KernelCtx(kind, data, labels, queries, addr, k, seed)


def reorder_by(method: str, cfg: dict, *, kind: str | None = None, points=None,
               rows=None, n: int | None = None, row_stride_bytes: int | None = None):
    """(permutation, row sequence) that reordering `method` computes, one
    of them None, with a resolved config's parameters.

    rcb, hilbert and zorder permute `points`, the feature matrix, and
    zorder-comp the query set passed as `points` (map[new] = old).
    first-touch permutes the `n` rows by the inspected `rows` sequence;
    block reorders the `rows` sequence itself, grouping rows by the page
    they start on at `row_stride_bytes`.
    """
    if method not in REORDERINGS:
        raise PipelineError(f"reorder: unknown method or variant {method!r}")
    if method == "zorder-comp" and kind == "dtree":
        raise PipelineError("reorder: zorder-comp is not applicable to tree kernels")
    with _stage("reorder"):
        if method == "block" and rows is not None and row_stride_bytes is not None:
            return None, reorder.block_by_page(rows, row_stride_bytes,
                                               window=cfg["block_window"])
        if method == "first-touch" and rows is not None and n is not None:
            return reorder.reorder_first_touch(rows, n), None
        if method in ("block", "first-touch"):
            what = "row stride" if method == "block" else "dataset"
            raise PipelineError(f"reorder: {method} needs the access row sequence and {what}")
        if points is None:
            what = "a query set" if method == "zorder-comp" else "a feature matrix"
            raise PipelineError(f"reorder: {method} needs {what}" + (f" ({kind})" if kind else ""))
        if method == "rcb":
            return reorder.reorder_rcb(points, cfg["rcb_leaf_size"]), None
        if method == "zorder-comp":
            return reorder.reorder_queries_zorder(points, cfg["sfc_bits"]), None
        return reorder.reorder_sfc(points, method, cfg["sfc_bits"]), None


def _transform(ctx: _KernelCtx, variant: str, cfg: dict, baseline: tuple):
    """Apply `variant`'s transformation; return a callable that replays
    the kernel over its output and returns the trace."""
    if variant == "baseline":
        return lambda: baseline[0]
    if variant == "sw-prefetch":
        with _stage("prefetch"):
            trace = memsys.inject_sw_prefetch(baseline[0], cfg["prefetch"]["sw_distance"])
        return lambda: trace
    rows = baseline[1] if variant in ("first-touch", "block") else None
    perm, new_rows = reorder_by(variant, cfg, kind=ctx.kind, rows=rows, n=int(ctx.spec["n"]),
                                points=ctx.queries if variant == "zorder-comp" else ctx.data,
                                row_stride_bytes=ctx.addr.row_stride_bytes)
    if new_rows is None and ctx.data is None:
        # Index-only kernel: relabel rows through the inverse map.
        new_rows = reorder.invert_permutation(perm)[rows]
    if new_rows is not None:
        return lambda: kernels.rows_to_trace(new_rows, ctx.addr)
    if variant == "zorder-comp":
        queries = ctx.queries[perm]
        return lambda: ctx.generate(queries=queries)[0]
    data = reorder.apply_permutation(ctx.data, perm)
    labels = None if ctx.labels is None else ctx.labels[perm]
    return lambda: ctx.generate(data=data, labels=labels)[0]


def run_variant(ctx: _KernelCtx, variant: str, config: dict,
                baseline: tuple | None = None) -> dict:
    """One pipeline row.  `baseline` caches (trace, rows) for reuse.

    overhead_s times the variant's transformation alone (the reordering
    or the prefetch injection), not the kernel replay after it.
    """
    cfg = resolve_config(config)
    baseline = baseline or ctx.generate()
    t0 = time.perf_counter()
    replay = _transform(ctx, variant, cfg, baseline)
    overhead = 0.0 if variant == "baseline" else time.perf_counter() - t0
    trace = replay()

    with _stage("filter"):
        dram_trace, mstats = memsys.filter_to_dram(trace, *memory_config(cfg))
    with _stage("dramsim"):
        actual, ideal = simulate_dram(dram_trace, cfg)
    return {
        "config_hash": config_hash(config),
        "variant": variant,
        "records": len(trace),
        "dram_requests": actual.total,
        "hit_ratio": round(actual.hit_ratio, 6),
        "avg_latency": round(actual.avg_latency, 4),
        "ideal_latency": round(ideal.avg_latency, 4),
        "improvement_pct": round(dramsim.improvement(actual, ideal), 4),
        "l2_miss_ratio": round(mstats.miss_ratio(1), 6),
        "useless_prefetch_fraction": round(mstats.useless_fraction, 6),
        "overhead_s": round(overhead, 6),
    }


def run_pipeline(config: dict) -> list[dict]:
    cfg = resolve_config(config)
    if cfg["kernel"]["kind"] == "knn" and int(cfg["kernel"]["queries"]) < 1:
        # memloc gen may write the empty trace; the DRAM model cannot time it.
        raise PipelineError("config: kernel.queries must be >= 1")
    ctx = build_kernel(config)
    baseline = ctx.generate()
    return [run_variant(ctx, variant, config, baseline=baseline) for variant in cfg["variants"]]


def write_csv(path, rows: list[dict]):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_FIELDS)
        w.writeheader()
        w.writerows(rows)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
