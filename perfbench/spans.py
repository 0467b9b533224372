"""Spans and counts recorded around memloc's public entry points.

The benchmark wraps the module attributes listed in ENTRY_POINTS from
outside; memloc's own code is not changed.  Every module calls its
layers through module attributes or module globals, so a wrapper set
with setattr sees each call, nested ones included (reorder_queries_zorder
calls reorder_sfc, simulate_ideal calls simulate).

With timing off the wrappers only count and keep results (the checks
need the returned MemsysStats/DramStats); with timing on they also
record one span per call, holding the counts of that call.  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

from memloc import traceio

# (module, function) -> span name.  A span name is the layer it times.
ENTRY_POINTS = {
    ("kernels", "gen_knn_trace"): "kernels.gen",
    ("kernels", "gen_dbscan_trace"): "kernels.gen",
    ("kernels", "gen_dtree_trace"): "kernels.gen",
    ("kernels", "gen_gather_trace"): "kernels.gen",
    ("kernels", "rows_to_trace"): "kernels.gen",
    ("reorder", "reorder_sfc"): "reorder.sfc",
    ("reorder", "reorder_queries_zorder"): "reorder.sfc",
    ("reorder", "reorder_rcb"): "reorder.rcb",
    ("reorder", "reorder_first_touch"): "reorder.first_touch",
    ("reorder", "block_by_page"): "reorder.block",
    ("memsys", "filter_to_dram"): "memsys.filter",
    ("memsys", "inject_sw_prefetch"): "memsys.inject",
    ("dramsim", "simulate"): "dramsim.simulate",
    ("dramsim", "simulate_ideal"): "dramsim.ideal",
    ("traceio", "read_trace"): "traceio.read",
    ("traceio", "write_trace"): "traceio.write",
    ("pipeline", "run_pipeline"): "pipeline",
    ("pipeline", "build_kernel"): "pipeline",
    ("pipeline", "run_variant"): "pipeline",
    ("cli", "main"): "cli",
}

LAYERS = tuple(dict.fromkeys(ENTRY_POINTS.values()))

class Recorder:
    """Per-pass counts and captured stats; spans when `timed` is set."""

    def __init__(self):
        self.timed = False
        self.spans: list = []  # [name, start, end, parent index or -1, counts]
        self._stack: list = []  # indices into spans of the open timed spans
        self._open: Counter = Counter()  # span names currently being called
        self.new_pass()

    def new_pass(self):
        self.counts: Counter = Counter()
        self.per_bank: Counter = Counter()
        self.filters: list = []  # (records in, records out, MemsysStats) per filter call
        self.sims: list = []  # DramStats per non-ideal simulate call
        self.ideals: list = []  # DramStats per outermost ideal call

    def call(self, name, fn, args, kwargs):
        if name == "dramsim.simulate" and kwargs.get("ideal"):
            name = "dramsim.ideal"
        outermost = not self._open[name]
        self._open[name] += 1
        span = None
        if self.timed:
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            if span is not None:
                span[2] = time.perf_counter()
                self._stack.pop()
            self._open[name] -= 1
        if outermost:
            counts = self._observe(name, args, out)
            self.counts.update(counts)
            if span is not None:
                span[4] = counts
        return out

    def _observe(self, name, args, out) -> dict:
        """This call's counts; also keeps the stats the checks need."""
        if name == "kernels.gen":
            trace = out[0] if isinstance(out, tuple) else out
            return {"kernels.records_out": len(trace)}
        if name == "memsys.filter":
            dram_trace, st = out
            self.filters.append((len(args[0]), len(dram_trace), st))
            counts = {"memsys.records_in": len(args[0]), "memsys.dram_out": len(dram_trace),
                      "memsys.hw_pf_issued": st.hw_prefetches_issued,
                      "memsys.hw_pf_useful": st.hw_prefetches_useful}
            for i in range(3):
                counts[f"memsys.l{i + 1}_accesses"] = st.demand_accesses[i]
                counts[f"memsys.l{i + 1}_misses"] = st.demand_misses[i]
            return counts
        if name == "dramsim.simulate":
            self.sims.append(out)
            for bank, split in out.per_bank.items():
                self.per_bank[bank] += sum(split.values())
            return {"dramsim.requests": out.total, "dramsim.row_hits": out.hits,
                    "dramsim.row_closed": out.misses, "dramsim.row_conflicts": out.conflicts}
        if name == "dramsim.ideal":
            self.ideals.append(out)
            return {"dramsim.ideal_requests": out.total}
        if name == "traceio.read":
            return {"traceio.bytes": traceio.HEADER_SIZE + traceio.RECORD_SIZE * len(out)}
        if name == "traceio.write":
            return {"traceio.bytes": traceio.HEADER_SIZE + traceio.RECORD_SIZE * len(args[1])}
        return {}

    def self_times(self, first: int = 0) -> Counter:
        """Self time per span name over spans[first:] (duration minus children)."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans[first:]:
            out[name] += end - start
            if parent >= first:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in self.spans]


@contextmanager
def installed(rec: Recorder):
    """Route every entry point through `rec` for the duration of the block."""
    saved = []
    for (mod_name, fn_name), span in ENTRY_POINTS.items():
        mod = importlib.import_module(f"memloc.{mod_name}")
        fn = getattr(mod, fn_name)
        saved.append((mod, fn_name, fn))
        setattr(mod, fn_name, _wrap(rec, span, fn))
    try:
        yield rec
    finally:
        for mod, fn_name, fn in saved:
            setattr(mod, fn_name, fn)


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs)
    return wrapper
