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
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import _core, dramsim, kernels, memsys, reorder

CSV_FIELDS = [
    "config_hash", "variant", "records", "dram_requests",
    "hit_ratio", "avg_latency", "ideal_latency", "improvement_pct",
    "l2_miss_ratio", "useless_prefetch_fraction", "overhead_s",
]

KERNELS = ("knn", "dbscan", "dtree", "gather")
REORDERINGS = ("first-touch", "rcb", "hilbert", "zorder", "block", "zorder-comp")

# Every accepted config key and its default; a dict value is a section.
# The prefetch and dram sections are PrefetchConfig's and DramConfig's fields.
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
    "prefetch": asdict(memsys.PrefetchConfig()),
    "dram": asdict(dramsim.DramConfig()),
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
    for key, value in config.items():
        # A set row stride is a byte count; its None default means m * 8.
        integral = _is_integer(defaults[key]) or (
            prefix + key == "kernel.row_stride_bytes" and value is not None)
        if integral and not _is_integer(value):
            raise PipelineError(f"config: {prefix + key} must be an integer")
        if isinstance(defaults[key], bool) and not isinstance(value, bool):
            raise PipelineError(f"config: {prefix + key} must be a boolean")
        if isinstance(defaults[key], float) and not (
                _is_integer(value) or isinstance(value, float)):
            raise PipelineError(f"config: {prefix + key} must be a number")
        if prefix + key == "kernel.kind" and value is not None and value not in KERNELS:
            raise PipelineError(f"config: kernel.kind must be one of {KERNELS}")
        if prefix + key == "variants" and not (
                isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value)):
            raise PipelineError("config: variants must be a list of variant names")
    out = {**defaults, **config}
    for key, section in defaults.items():
        if isinstance(section, dict):
            out[key] = resolve_config(config.get(key, {}), section, f"{key}.")
    return out


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def memory_config(cfg: dict):
    """(CacheConfig, PrefetchConfig) of a resolved config."""
    c = cfg["cache"]  # in KiB; LevelConfig takes bytes
    levels = (memsys.LevelConfig(c[f"l{i}_kb"] * 1024, c[f"l{i}_ways"]) for i in (1, 2, 3))
    return memsys.CacheConfig(*levels), memsys.PrefetchConfig(**cfg["prefetch"])


def simulate_dram(dram_trace, cfg: dict):
    """(actual, ideal) DramStats of a DRAM trace under the config's model."""
    dram = dramsim.DramConfig(**cfg["dram"])
    return dramsim.simulate(dram_trace, dram), dramsim.simulate_ideal(dram_trace, dram)


@dataclass
class _KernelCtx:
    kind: str
    data: np.ndarray | None
    labels: np.ndarray | None
    queries: np.ndarray | None
    addr: kernels.AddressModel
    cfg: dict  # the resolved config
    config_hash: str  # of the config as given, which every row echoes

    @property
    def spec(self) -> dict:
        return self.cfg["kernel"]

    # A run's simulator configs, built and checked at its first variant's
    # filter and dramsim stages, which tag their errors.
    @cached_property
    def memory(self) -> tuple:
        return memory_config(self.cfg)

    @cached_property
    def dram(self) -> dramsim.DramConfig:
        return dramsim.DramConfig(**self.cfg["dram"])

    def generate(self):
        """(trace, row_sequence, starts) of the kernel over its inputs;
        starts splits a tree kernel's rows into its iterations (queries
        or nodes) and is None for the gather."""
        k = self.spec
        with _stage("gen"):
            if self.kind == "knn":
                return kernels.gen_knn_trace(self.data, self.queries, k["k"], self.addr)
            if self.kind == "dbscan":
                return kernels.gen_dbscan_trace(self.data, k["radius"], self.addr)
            if self.kind == "dtree":
                return kernels.gen_dtree_trace(self.data, self.labels, k["max_depth"], self.addr)
            return *kernels.gen_gather_trace(k["n"], k["count"], self.addr, self.cfg["seed"]), None


def build_kernel(config: dict, cfg: dict | None = None) -> _KernelCtx:
    """The kernel inputs of `config`; `cfg` is its resolved form, when the
    caller has resolved it already."""
    cfg = resolve_config(config) if cfg is None else cfg
    k = cfg["kernel"]
    kind, seed = k["kind"], cfg["seed"]
    if kind not in KERNELS:
        raise PipelineError(f"config: kernel.kind must be one of {KERNELS}")
    for key, low in (("n", 1), ("m", 1), *((("k", 1), ("queries", 0)) if kind == "knn" else ())):
        if k[key] < low:
            raise PipelineError(f"config: kernel.{key} must be >= {low}")
    n, m = k["n"], k["m"]
    data = labels = queries = None
    with _stage("config"):
        rng = np.random.default_rng(seed)
        if kind != "gather":
            if k["clusters"]:
                data = kernels.make_clustered(n, m, k["clusters"], seed,
                                              layout=k["layout"], spread=k["spread"])
            else:
                data = kernels.make_uniform(n, m, seed)
        if kind == "knn":
            nq = k["queries"]
            if k["clusters"] and k["queries_from_data"]:
                queries = data[rng.integers(0, n, nq)] + rng.normal(0, 0.005, (nq, m))
            else:
                queries = rng.random((nq, m))
        if kind == "dtree":
            dot = np.zeros(n)
            for j, w in enumerate(rng.random(m)):  # data @ w left to right, not by BLAS
                dot += data[:, j] * w
            labels = (dot > 0.5 * rng.random(m).sum()).astype(np.int64)
        # A gather read A[B[i]] loads one float64 element; other kernels read whole rows.
        addr = kernels.AddressModel.for_matrix(m, k["row_stride_bytes"],
                                               8 if kind == "gather" else None,
                                               page_mapping=k["page_mapping"], seed=seed, rows=n)
    return _KernelCtx(kind, data, labels, queries, addr, cfg, config_hash(config))


def reorder_by(method: str, cfg: dict, *, kind: str | None = None, points=None,
               rows=None, n: int | None = None, row_stride_bytes: int | None = None):
    """(permutation, row sequence) that reordering `method` computes, one
    of them None, with a resolved config's parameters.

    rcb, hilbert and zorder permute `points`, the feature matrix, and
    zorder-comp the query set passed as `points` (map[new] = old).
    first-touch permutes the `n` rows by the inspected `rows` sequence;
    block reorders the `rows` sequence itself, grouping rows by the page
    they start on at `row_stride_bytes`.

    A decision tree has no queries to reorder, and its first node, the
    root, lists every row in storage order, so its first-touch order is
    the identity: both variants are rejected on it.
    """
    if method not in REORDERINGS:
        raise PipelineError(f"reorder: unknown method or variant {method!r}")
    if kind == "dtree" and method in ("zorder-comp", "first-touch"):
        raise PipelineError(f"reorder: {method} is not applicable to tree kernels")
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
    the kernel over its output and returns the trace.

    A replay derives the variant's rows from the baseline's walk: a
    computation reordering takes the baseline's per-query segments in
    the new order, and a data reordering relabels the rows through the
    inverse permutation (Ding & Kennedy, PLDI 1999); a decision tree's
    node gets the new rows of the old rows it holds.  A layout keeps the
    baseline's tree even where ties would make one built over the moved
    rows differ, so it changes where rows live, not which are examined."""
    if variant == "baseline":
        return lambda: baseline[0]
    if variant == "sw-prefetch":
        with _stage("prefetch"):
            trace = memsys.inject_sw_prefetch(baseline[0], cfg["prefetch"]["sw_distance"])
        return lambda: trace
    perm, new_rows = reorder_by(variant, cfg, kind=ctx.kind, rows=baseline[1], n=ctx.spec["n"],
                                points=ctx.queries if variant == "zorder-comp" else ctx.data,
                                row_stride_bytes=ctx.addr.row_stride_bytes)
    if new_rows is not None:
        return lambda: kernels.rows_to_trace(new_rows, ctx.addr)
    return lambda: kernels.rows_to_trace(_derive(ctx.kind, variant, perm, *baseline[1:]),
                                         ctx.addr)


def _derive(kind: str, variant: str, perm: np.ndarray, rows: np.ndarray, starts) -> np.ndarray:
    """The rows the kernel examines after `variant`'s permutation
    (map[new] = old), from the baseline's rows and the starts of its
    iterations.  A decision tree's nodes take theirs from one core pass
    over the nodes and one over the permutation (kernels.node_rows),
    with no inverse permutation and no sort."""
    if variant == "zorder-comp":
        # The tree is unchanged, and each query walks it on its own.
        return _segments(rows, starts, perm)
    if kind == "dtree":
        # A split ignores the order of its node's rows, so every node
        # holds the same points, and its row list is in storage order:
        # new row v joins, in order of v, each node that holds perm[v].
        return kernels.node_rows(np.column_stack((starts[:-1], starts[1:])), rows, perm)
    inverse = reorder.invert_permutation(perm)
    if kind == "dbscan":
        # DBSCAN's queries are its rows, so they move with them.
        return inverse[_segments(rows, starts, perm)]
    return inverse[rows]


def _segments(rows: np.ndarray, starts: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The segments rows[starts[i]:starts[i + 1]], concatenated in `order`."""
    lengths = np.diff(starts)[order]
    ends = np.cumsum(lengths)
    shift = np.repeat(starts[:-1][order] - (ends - lengths), lengths)
    return rows[np.arange(len(shift)) + shift]


def run_variant(ctx: _KernelCtx, variant: str, baseline: tuple) -> dict:
    """One pipeline row.  `baseline` is the kernel's (trace, rows,
    starts), which every variant starts from.

    overhead_s times the variant's transformation alone (the reordering
    or the prefetch injection), not the kernel replay after it.
    """
    _core.prepare()  # a first build or load of the core is not the variant's overhead
    t0 = time.perf_counter()
    replay = _transform(ctx, variant, ctx.cfg, baseline)
    overhead = 0.0 if variant == "baseline" else time.perf_counter() - t0
    with _stage("gen"):
        trace = replay()

    with _stage("filter"):
        dram_trace, mstats = memsys.filter_to_dram(trace, *ctx.memory)
    with _stage("dramsim"):
        actual = dramsim.simulate(dram_trace, ctx.dram)
        ideal = dramsim.simulate_ideal(dram_trace, ctx.dram)
    return {
        "config_hash": ctx.config_hash,
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
    if cfg["kernel"]["kind"] == "knn" and cfg["kernel"]["queries"] < 1:
        # memloc gen may write the empty trace; the DRAM model cannot time it.
        raise PipelineError("config: kernel.queries must be >= 1")
    ctx = build_kernel(config, cfg)
    baseline = ctx.generate()
    return [run_variant(ctx, variant, baseline=baseline) for variant in cfg["variants"]]


def write_csv(path, rows: list[dict]):
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=CSV_FIELDS)
        w.writeheader()
        w.writerows(rows)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))
