"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

A workload has four parts.  `inputs(seed, tiny)` makes the inputs from
the seed as a JSON-able dict; the program sees nothing else.
`setup(inputs)` is the program-side set-up and returns a state dict.
`execute(state, pass_dir)` is the timed pass and returns its raw result.
`check(state, result, rec, pass_dir)` turns that result into operations:
one per variant row for the sweeps, one per CLI stage for the chain.
Each operation carries a digest of its simulated output and the
invariant checks it failed.  Checks read outputs directly, never
through memloc, so they add no spans or counts.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import struct
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from memloc import cli, dramsim, memsys, pipeline, reorder, traceio

KNN_VARIANTS = ["baseline", "hilbert", "zorder-comp", "first-touch",
                "rcb", "block", "zorder", "sw-prefetch"]
DTREE_VARIANTS = ["baseline", "hilbert", "zorder", "rcb"]
# The chain's two simulated traces, named after the sweep variant each matches.
CHAIN_VARIANTS = {"raw": "baseline", "pf": "sw-prefetch"}
ALL_VARIANTS = KNN_VARIANTS  # every variant any workload reports


@dataclass
class Op:
    name: str
    digest: str
    errors: list = field(default_factory=list)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def digest_ops(ops) -> str:
    """Digest of a pass: every operation's name and output digest, in order."""
    return _sha(*(f"{op.name}={op.digest};".encode() for op in ops))[:16]


def _ratio_errors(label: str, values: dict) -> list:
    return [f"{label}: {k}={v} outside [0, 1]" for k, v in values.items()
            if not 0.0 <= float(v) <= 1.0]


# --- pipeline sweeps -------------------------------------------------------

def knn_config(seed: int, tiny: bool) -> dict:
    return {
        "seed": seed,
        "kernel": {"kind": "knn", "n": 2000 if tiny else 6000, "m": 2, "k": 5,
                   "queries": 100 if tiny else 400, "clusters": 32,
                   "layout": "shuffled", "row_stride_bytes": 64},
        "cache": {"l3_kb": 512},
        "variants": KNN_VARIANTS,
    }


DTREE_CANDIDATES = 128
MIN_MINORITY = 0.4


def dtree_config(seed: int, tiny: bool) -> dict:
    """The first of `seed`'s candidate config seeds whose labels are
    balanced (minority class at least MIN_MINORITY).

    build_kernel draws the labels from a random hyperplane, and on many
    seeds nearly every row gets one label, so training stops after a
    level or two.  Such a seed trains a stump, a different and much
    smaller workload; requiring balanced labels keeps the work of a pass
    (4.4 to 4.9 records per row, of at most max_depth 5) about the same
    on every seed.
    """
    for candidate in range(seed * DTREE_CANDIDATES, (seed + 1) * DTREE_CANDIDATES):
        config = {
            "seed": candidate,
            "kernel": {"kind": "dtree", "n": 2000 if tiny else 6000, "m": 8,
                       "max_depth": 5, "clusters": 64, "layout": "shuffled"},
            "cache": {"l3_kb": 1024},
            "prefetch": {"hw": True},
            "dram": {"arrival": "fixed-gap", "arrival_gap": 60},
            "variants": DTREE_VARIANTS,
        }
        share = float(pipeline.build_kernel(config).labels.mean())
        if min(share, 1.0 - share) >= MIN_MINORITY:
            return config
    raise ValueError(f"no config seed of seed {seed} has balanced labels")


def pipeline_setup(config: dict) -> dict:
    # run_pipeline builds the kernel again inside every pass; building it
    # here makes its cost part of the measured set-up too.
    return {"config": config, "kernel": pipeline.build_kernel(config)}


def pipeline_execute(state: dict, pass_dir: Path):
    try:
        return pipeline.run_pipeline(state["config"])
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


ROW_FIELDS = [f for f in pipeline.CSV_FIELDS if f != "overhead_s"]


def pipeline_check(state: dict, rows, rec, pass_dir: Path):
    """Ops per variant row and the simulated per-variant values."""
    variants = state["config"]["variants"]
    if rows is None or len(rows) != len(variants):
        return [Op(v, "", ["run_pipeline raised or returned the wrong row count"])
                for v in variants], {}
    ops, sim = [], {}
    for i, row in enumerate(rows):
        line = ",".join(str(row[f]) for f in ROW_FIELDS).encode()
        errors = _ratio_errors(row["variant"], {
            k: row[k] for k in ("hit_ratio", "l2_miss_ratio", "useless_prefetch_fraction")})
        if row["variant"] != variants[i]:
            errors.append(f"row {i} is {row['variant']}, expected {variants[i]}")
        if row["dram_requests"] > row["records"]:
            errors.append(f"{row['variant']}: dram_requests > records")
        if row["ideal_latency"] > row["avg_latency"]:
            errors.append(f"{row['variant']}: ideal_latency > avg_latency")
        if i < min(len(rec.sims), len(rec.ideals), len(rec.filters)):
            actual, ideal = rec.sims[i], rec.ideals[i]
            records_in, dram_out, mstats = rec.filters[i]
            if actual.hits + actual.misses + actual.conflicts != actual.total:
                errors.append(f"{row['variant']}: hits+misses+conflicts != requests")
            if not actual.total == ideal.total == dram_out == row["dram_requests"]:
                errors.append(f"{row['variant']}: request counts disagree")
            if records_in != row["records"]:
                errors.append(f"{row['variant']}: filter saw {records_in} records")
            if ideal.avg_latency > actual.avg_latency:
                errors.append(f"{row['variant']}: ideal latency above actual")
            errors += _ratio_errors(row["variant"], {
                f"l{lv + 1}_miss_ratio": mstats.miss_ratio(lv) for lv in range(3)})
        else:
            errors.append(f"{row['variant']}: no captured filter/DRAM stats")
        ops.append(Op(row["variant"], _sha(line), errors))
        sim[f"dramsim.row_hit_ratio.{row['variant']}"] = row["hit_ratio"]
        sim[f"dramsim.avg_latency_cyc.{row['variant']}"] = row["avg_latency"]
    return ops, sim


# --- the CLI chain ---------------------------------------------------------

GATHER_ROWS = 4_000_000  # x 64 B rows: a 256 MB footprint, far above L3
PREFETCH_DISTANCE = 16


def chain_inputs(seed: int, tiny: bool) -> dict:
    return {"seed": seed, "count": 4000 if tiny else 60000}


def chain_setup(inputs: dict) -> dict:
    return dict(inputs)


def chain_stages(state: dict, d: Path) -> list:
    p = lambda name: str(d / name)  # noqa: E731
    return [
        ("gen", ["gen", "--kind", "gather", "--n", str(GATHER_ROWS),
                 "--count", str(state["count"]), "--row-stride", "64",
                 "--seed", str(state["seed"]), "--out", p("g")]),
        ("reorder", ["reorder", "--method", "block", "--rows", p("g.rows"),
                     "--row-stride", "64", "--out", p("b")]),
        ("prefetch", ["prefetch", "--trace", p("g.trace"),
                      "--distance", str(PREFETCH_DISTANCE), "--out", p("pf.trace")]),
        ("filter-raw", ["filter", "--trace", p("g.trace"), "--out", p("raw.dram"),
                        "--stats", p("raw.filter.csv")]),
        ("filter-pf", ["filter", "--trace", p("pf.trace"), "--out", p("pf.dram"),
                       "--stats", p("pf.filter.csv")]),
        ("dramsim-raw", ["dramsim", "--trace", p("raw.dram"), "--stats", p("dram.csv")]),
        ("dramsim-pf", ["dramsim", "--trace", p("pf.dram"), "--stats", p("dram.csv")]),
    ]


def chain_execute(state: dict, pass_dir: Path):
    codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name, argv in chain_stages(state, pass_dir):
            try:
                codes[name] = cli.main(argv)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                codes[name] = "raised"
    return codes


def _trace_count(path: Path) -> int:
    with open(path, "rb") as f:
        head = f.read(traceio.HEADER_SIZE)
    if len(head) != traceio.HEADER_SIZE or head[:4] != traceio.MAGIC:
        raise ValueError(f"{path.name}: not a trace file")
    return struct.unpack("<Q", head[9:17])[0]


def _check_block(d: Path) -> tuple:
    rows, blocked = np.fromfile(d / "g.rows", "<i8"), np.fromfile(d / "b.rows", "<i8")
    same = np.array_equal(np.sort(rows), np.sort(blocked))
    return _sha(blocked.tobytes()), [] if same else ["block changed the access multiset"]


def _check_prefetch(d: Path) -> tuple:
    n, n_pf = _trace_count(d / "g.trace"), _trace_count(d / "pf.trace")
    expected = n + max(n - PREFETCH_DISTANCE, 0)  # one prefetch per demand record
    errors = [] if n_pf == expected else [f"{n_pf} records after injection, not {expected}"]
    return _sha((d / "pf.trace").read_bytes()), errors


def _check_filter(d: Path, src: str, out: str, stats: str) -> tuple:
    with open(d / stats, newline="") as f:
        table = {r[0]: r[1:] for r in csv.reader(f)}
    errors = _ratio_errors(out, {lv: table[lv][2] for lv in memsys.LEVEL_NAMES})
    errors += _ratio_errors(out, {"useless_fraction": table["useless_fraction"][0]})
    if _trace_count(d / out) > _trace_count(d / src):
        errors.append(f"{out}: more DRAM records than input records")
    return _sha((d / out).read_bytes(), (d / stats).read_bytes()), errors


def _dram_rows(d: Path) -> dict:
    """dramsim's stats CSV rows, keyed by trace file name."""
    with open(d / "dram.csv", newline="") as f:
        return {Path(r["trace"]).name: r for r in csv.DictReader(f)}


def _check_dram(d: Path, trace: str) -> tuple:
    row = _dram_rows(d)[trace]
    hits, misses, conflicts = (int(row[k]) for k in ("hits", "misses", "conflicts"))
    errors = _ratio_errors(trace, {"hit_ratio": row["hit_ratio"]})
    if hits + misses + conflicts != _trace_count(d / trace):
        errors.append(f"{trace}: hits+misses+conflicts != DRAM requests")
    if float(row["ideal_latency"]) > float(row["avg_latency"]):
        errors.append(f"{trace}: ideal_latency > avg_latency")
    # The trace column holds the pass directory's path, which differs per pass.
    return _sha(",".join(v for k, v in row.items() if k != "trace").encode()), errors


CHAIN_CHECKS = {
    "gen": lambda d: (_sha((d / "g.trace").read_bytes(), (d / "g.rows").read_bytes()), []),
    "reorder": _check_block,
    "prefetch": _check_prefetch,
    "filter-raw": lambda d: _check_filter(d, "g.trace", "raw.dram", "raw.filter.csv"),
    "filter-pf": lambda d: _check_filter(d, "pf.trace", "pf.dram", "pf.filter.csv"),
    "dramsim-raw": lambda d: _check_dram(d, "raw.dram"),
    "dramsim-pf": lambda d: _check_dram(d, "pf.dram"),
}


def chain_check(state: dict, codes: dict, rec, pass_dir: Path):
    """Ops per CLI stage and the simulated per-variant values."""
    ops = []
    for name, code in codes.items():
        op = Op(name, "", [] if code == 0 else [f"exit {code}"])
        if code == 0:
            try:
                op.digest, errors = CHAIN_CHECKS[name](pass_dir)
                op.errors += errors
            except (OSError, ValueError, KeyError, IndexError) as e:
                op.errors.append(f"unreadable output: {e!r}")
        ops.append(op)
    sim = {}
    if (pass_dir / "dram.csv").is_file():
        for trace, row in _dram_rows(pass_dir).items():
            variant = CHAIN_VARIANTS[trace.removesuffix(".dram")]
            sim[f"dramsim.row_hit_ratio.{variant}"] = float(row["hit_ratio"])
            sim[f"dramsim.avg_latency_cyc.{variant}"] = float(row["avg_latency"])
    return ops, sim


# --- registry --------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: object
    setup: object
    execute: object
    check: object


WORKLOADS = {
    "knn-sweep": Workload(knn_config, pipeline_setup, pipeline_execute, pipeline_check),
    "dtree-sweep": Workload(dtree_config, pipeline_setup, pipeline_execute, pipeline_check),
    "gather-chain": Workload(chain_inputs, chain_setup, chain_execute, chain_check),
}


def warm_up() -> None:
    """First calls into each simulator on a tiny trace, so any lazy
    initialisation (such as a compiled core built on first use) is paid
    during set-up rather than inside the first timed pass."""
    tiny = traceio.Trace.from_addresses(np.arange(64, dtype=np.uint64) * 4096)
    dram_trace, _ = memsys.filter_to_dram(tiny)
    dramsim.simulate(dram_trace)
    dramsim.simulate_ideal(dram_trace)
    memsys.inject_sw_prefetch(tiny, 4)
    reorder.reorder_sfc(np.random.default_rng(0).random((16, 2)), "hilbert")
