"""Building, caching and loading the compiled simulator core."""

import ast
import ctypes
import os
import re
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np
import pytest
from test_oracles import inject_oracle

from memloc import _core, cli, dramsim, memsys, pipeline, reorder, traceio


@pytest.fixture
def source(tmp_path, monkeypatch):
    """A private copy of the core's source, and a count of compiler runs."""
    path = tmp_path / "pkg" / "_core.c"
    path.parent.mkdir()
    path.write_bytes(_core._SOURCE.read_bytes())
    monkeypatch.setattr(_core, "_SOURCE", path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    compiles = []
    real_run = subprocess.run

    def run(cmd, **kw):
        compiles.append(cmd)
        return real_run(cmd, **kw)
    monkeypatch.setattr(subprocess, "run", run)
    _core._open.cache_clear()
    yield path, compiles
    _core._open.cache_clear()


def _loaded() -> Path:
    _core._open.cache_clear()
    return Path(_core.load()._name)


def test_a_second_load_uses_the_cached_build(source):
    path, compiles = source
    first = _loaded()
    assert first.parent == path.parent / "__pycache__"
    assert len(compiles) == 1
    assert _loaded() == first
    assert len(compiles) == 1
    assert [p.name for p in first.parent.iterdir()] == [first.name]  # no temporaries left


def test_an_edited_source_is_rebuilt(source):
    path, compiles = source
    first = _loaded()
    path.write_bytes(path.read_bytes() + b"/* edited */\n")
    second = _loaded()
    assert len(compiles) == 2
    assert second != first and second.exists()
    assert list(second.parent.glob("_core-*.so")) == [second]  # the old build is pruned


def test_the_source_compiles_without_warnings(tmp_path):
    # -Wunused-function among them, so a static helper left dead fails
    # here.  GCC checks for unused functions only when it compiles, not
    # under -fsyntax-only, so this builds a library of its own.
    done = subprocess.run([*_core._COMPILE, "-Wall", "-Wextra", "-Werror", "-o",
                           str(tmp_path / "core.so"), str(_core._SOURCE)],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_an_unwritable_cache_falls_back_to_a_private_temp_dir(source):
    path, compiles = source
    (path.parent / "__pycache__").write_text("not a directory")
    lib = _loaded()
    private = Path(tempfile.gettempdir()) / f"memloc-{os.getuid()}"
    assert lib.parent == private
    assert private.stat().st_mode & 0o777 == 0o700
    assert _loaded() == lib and len(compiles) == 1


def test_a_failed_build_raises_and_is_not_retried(source):
    path, compiles = source
    path.write_text("this is not C\n")
    for _ in range(2):  # the second load raises the cached error without compiling
        with pytest.raises(OSError, match=r"(?s)compiler failed.*needs a C compiler \(cc\)"):
            _core.load()
    assert len(compiles) == 1
    assert list((path.parent / "__pycache__").iterdir()) == []


def test_without_a_compiler_every_simulator_stage_fails(source, tmp_path, monkeypatch, capsys):
    path, compiles = source
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    trace = traceio.Trace.from_addresses(np.arange(100, dtype=np.uint64) * 4096)
    no_cc = r"No such file or directory: 'cc'.*needs a C compiler \(cc\)"
    for _ in range(2):
        with pytest.raises(OSError, match=no_cc):
            memsys.filter_to_dram(trace)
        with pytest.raises(OSError, match=no_cc):
            dramsim.simulate(trace)
    with pytest.raises(pipeline.PipelineError, match="^filter: .*" + no_cc):
        pipeline.run_pipeline({"seed": 1, "kernel": {"kind": "gather", "n": 4096,
                                                     "count": 300}})
    traceio.write_trace(tmp_path / "t.trace", trace)
    assert cli.main(["filter", "--trace", str(tmp_path / "t.trace"), "--out",
                     str(tmp_path / "o.trace"), "--stats", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("memloc: filter: the compiled simulator core")
    assert len(compiles) == 1


def test_without_a_compiler_blocking_and_prefetch_injection_fail(source, tmp_path, monkeypatch,
                                                                  capsys):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    trace = traceio.Trace.from_addresses(np.arange(100, dtype=np.uint64) * 4096)
    no_cc = r"No such file or directory: 'cc'.*needs a C compiler \(cc\)"
    with pytest.raises(OSError, match=no_cc):
        reorder.block_by_page(np.arange(100), 64)
    with pytest.raises(OSError, match=no_cc):
        memsys.inject_sw_prefetch(trace, 4)
    traceio.write_trace(tmp_path / "t.trace", trace)
    np.arange(100, dtype="<i8").tofile(tmp_path / "r.rows")
    for stage, argv in (("reorder", ["reorder", "--method", "block", "--rows",
                                     str(tmp_path / "r.rows"), "--row-stride", "64"]),
                        ("prefetch", ["prefetch", "--trace", str(tmp_path / "t.trace")])):
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"memloc: {stage}: the compiled simulator core")
    assert list(tmp_path.glob("o*")) == []


def test_without_a_compiler_first_touch_fails(source, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with pytest.raises(OSError, match=r"No such file or directory: 'cc'.*needs a C compiler"):
        reorder.reorder_first_touch([1, 0], 2)
    reorder.save_dataset(tmp_path / "d", np.zeros((2, 1)))
    np.array([1, 0], dtype="<i8").tofile(tmp_path / "r.rows")
    assert cli.main(["reorder", "--method", "first-touch", "--dataset", str(tmp_path / "d"),
                     "--rows", str(tmp_path / "r.rows"), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("memloc: reorder: the compiled simulator core")


@pytest.mark.parametrize("kernel", [{"kind": "knn", "n": 300, "queries": 20},
                                    {"kind": "dbscan", "n": 300},
                                    {"kind": "dtree", "n": 300, "m": 3, "max_depth": 3}])
def test_without_a_compiler_kd_tree_generation_fails(source, tmp_path, monkeypatch, kernel):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    with pytest.raises(pipeline.PipelineError, match=r"^gen: .*needs a C compiler \(cc\)"):
        pipeline.build_kernel({"kernel": kernel}).generate()


@pytest.mark.parametrize("method", ["rcb", "hilbert", "zorder"])
def test_without_a_compiler_point_reorderings_fail(source, tmp_path, monkeypatch, capsys, method):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    cfg = pipeline.resolve_config({"kernel": {"kind": "dtree"}})
    points = np.random.default_rng(1).random((300, 3))
    with pytest.raises(pipeline.PipelineError, match=r"^reorder: .*needs a C compiler \(cc\)"):
        pipeline.reorder_by(method, cfg, kind="dtree", points=points)
    reorder.save_dataset(tmp_path / "d", np.random.default_rng(1).random((50, 2)))
    assert cli.main(["reorder", "--method", method, "--dataset", str(tmp_path / "d"),
                     "--out", str(tmp_path / "r")]) == 1
    assert capsys.readouterr().err.startswith("memloc: reorder: the compiled simulator core")


@pytest.fixture
def slow_build(monkeypatch):
    """No core loaded yet, and a build that takes 0.3 s more; yields the
    builds made."""
    real, builds = _core._build, []

    def build():
        builds.append(1)
        time.sleep(0.3)
        return real()
    monkeypatch.setattr(_core, "_build", build)
    _core._open.cache_clear()
    yield builds
    _core._open.cache_clear()


def test_reorder_overhead_excludes_loading_the_core(slow_build, tmp_path):
    reorder.save_dataset(tmp_path / "d", np.random.default_rng(1).random((50, 2)))
    assert cli.main(["reorder", "--method", "rcb", "--dataset", str(tmp_path / "d"),
                     "--out", str(tmp_path / "r")]) == 0
    assert slow_build == [1]
    header, row = (tmp_path / "r.overhead.csv").read_text().splitlines()
    assert header == "method,overhead_s" and float(row.split(",")[1]) < 0.1


@pytest.mark.parametrize("variant", ["first-touch", "block", "sw-prefetch"])
def test_variant_overhead_excludes_loading_the_core(slow_build, variant):
    # A gather kernel generates its trace without the core.
    config = {"seed": 1, "kernel": {"kind": "gather", "n": 4096, "count": 300}}
    ctx = pipeline.build_kernel(config)
    row = pipeline.run_variant(ctx, variant, ctx.generate())
    assert slow_build == [1]
    assert row["overhead_s"] < 0.1


def test_the_core_takes_numbers_and_arrays_it_does_not_own():
    source, lib = _core._SOURCE.read_text(), _core.load()
    defined = re.findall(r"^\w.*\b(memloc_\w+)\(", source, re.M)
    bound = _core.prototypes(source)
    assert len(defined) == 12 and sorted(bound) == sorted(defined)
    arrays = {np.dtype(t) for t in (np.int64, np.uint64, np.uint32, np.uint8, np.float64)}
    for fn, params in bound.items():
        for p in params:
            assert (p.ctype in (ctypes.c_int64, ctypes.c_double) and p.dtype is None
                    or p.ctype is ctypes.c_void_p and p.dtype in arrays), (fn, p)
        assert isinstance(getattr(lib, fn), types.FunctionType)  # the checked callable
        assert getattr(lib, fn).__name__ == fn
    assert not [v for v in vars(_core).values()
                if isinstance(v, type) and issubclass(v, ctypes.Structure)]
    assert not hasattr(lib, "memloc_release")


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("seq, out, name", [
    (np.arange(4, dtype=np.int32), np.full(4, 7, np.int64), "seq"),
    (np.arange(8, dtype=np.int64)[::2], np.full(4, 7, np.int64), "seq"),
    (np.arange(4, dtype=np.int64), _read_only(np.full(4, 7, np.int64)), "out"),
    ([0, 1, 2, 3], np.full(4, 7, np.int64), "seq"),
], ids=["dtype", "strided", "read-only-output", "list"])
def test_an_array_that_does_not_fit_fails_before_the_core_runs(seq, out, name):
    with pytest.raises(TypeError, match=rf"^memloc_first_touch: argument {name} must be a "
                                        "C-contiguous"):
        _core.load().memloc_first_touch(4, seq, 4, out)
    assert out.tolist() == [7] * 4


@pytest.mark.parametrize("make_seq, n", [
    (lambda: _read_only(np.array([2, 0, 2], np.int64)), 4),
    (lambda: np.empty(0, np.int64), 4),
    (lambda: np.empty(0, np.int64), 0),
    (lambda: np.arange(10)[3:], 10),
], ids=["read-only-input", "empty-input", "empty-output", "offset-view"])
def test_an_array_that_fits_reaches_the_core_from_its_first_element(make_seq, n):
    # Read-only and empty arrays take the fallback pointer read; a view
    # passes its own first element, not its base's.
    seq, out, expected = make_seq(), np.full(n, 7, np.int64), np.full(n, 7, np.int64)
    lib = _core.load()
    assert lib.memloc_first_touch(len(seq), seq, n, out) == 0
    lib.memloc_first_touch(len(seq), seq.copy(), n, expected)
    touched = list(dict.fromkeys(seq.tolist()))
    assert out.tolist() == expected.tolist() == touched + sorted(set(range(n)) - set(touched))
    # No buffer export outlives the call, so the output resizes in place
    # with numpy's reference check on, as KdTree.walk resizes its rows.
    out.resize(n + 4)


def test_a_parameter_type_the_binding_does_not_know_fails_at_load(source):
    path, compiles = source
    path.write_text(path.read_text() + "\nint64_t memloc_scale(int64_t n, float x)\n{\n"
                                       "    return n * x;\n}\n")
    with pytest.raises(TypeError, match=r"^memloc_scale: .* type of 'float x'$"):
        _core.load()
    assert compiles == []  # the prototypes are read before anything is built


def test_stages_pass_a_read_traces_own_columns_to_the_core(tmp_path, monkeypatch):
    """read_trace's columns are contiguous already, so no stage copies one
    on its way into the core."""
    path, vaddr = tmp_path / "t.trace", np.arange(500, dtype=np.uint64) * 4096
    traceio.write_trace(path, traceio.Trace.from_addresses(vaddr))
    trace = traceio.read_trace(path)
    lib, passed = _core.load(), []

    class Spy:
        def __getattr__(self, name):
            def call(*args):
                passed.append((name, {c for c in ("vaddr", "cycle", "kind")
                                      if any(a is getattr(trace, c) for a in args)}))
                return getattr(lib, name)(*args)
            return call

    monkeypatch.setattr(_core, "load", Spy)
    memsys.filter_to_dram(trace)
    memsys.inject_sw_prefetch(trace, 4)
    dramsim.simulate(trace)
    dramsim.simulate_ideal(trace)
    assert passed == [("memloc_filter", {"vaddr", "kind"}),
                      ("memloc_take", {"vaddr", "cycle", "kind"}),
                      ("memloc_inject", {"vaddr", "cycle", "kind"}),
                      ("memloc_simulate", {"vaddr", "cycle"}),
                      ("memloc_simulate", {"vaddr", "cycle"})]
    assert "memloc_release" not in _core._SOURCE.read_text()


def test_out_of_memory_raises_memory_error_naming_the_function():
    # 2**50 one-way sets: the level's line array alone is 8 PiB, so the
    # allocation fails at once rather than paging anything in.
    trace = traceio.Trace.from_addresses(np.arange(100, dtype=np.uint64) * 4096)
    huge = memsys.CacheConfig(l3=memsys.LevelConfig(2**56, 1))
    with pytest.raises(MemoryError, match=r"^memloc_filter: out of memory$"):
        memsys.filter_to_dram(trace, huge)
    with pytest.raises(pipeline.PipelineError, match=r"^filter: memloc_filter: out of memory$"):
        pipeline.run_pipeline({"seed": 1, "kernel": {"kind": "gather", "n": 4096, "count": 300},
                               "cache": {"l3_kb": 2**46, "l3_ways": 1}})


def test_sfc_allocates_its_scratch_before_writing():
    # 2**60 rows: the radix sort's 8 EiB of scratch cannot be allocated,
    # and the caller's arrays, far smaller, are left as they were.
    grid = np.zeros((4, 2), dtype=np.uint64)
    words = np.full((1, 4), 7, dtype=np.uint64)
    order = np.full(4, 7, dtype=np.int64)
    with pytest.raises(MemoryError, match=r"^memloc_sfc: out of memory$"):
        _core.load().memloc_sfc(2**60, 2, grid, 10, 1, words, order)
    assert words.tolist() == [[7] * 4] and order.tolist() == [7] * 4


def test_block_allocates_its_scratch_before_writing():
    # A 2**60-row window: its page table and group buffers cannot be
    # allocated, and the caller's arrays, far smaller, are left as they were.
    seq = np.arange(4, dtype=np.int64)
    out = np.full(4, 7, dtype=np.int64)
    with pytest.raises(MemoryError, match=r"^memloc_block: out of memory$"):
        _core.load().memloc_block(2**60, seq, 64, 12, 2**60, out)
    assert out.tolist() == [7] * 4 and seq.tolist() == [0, 1, 2, 3]


def test_simulate_allocates_its_scratch_before_writing():
    # A 2**60-request window: its ring and bucket counts cannot be
    # allocated, and the caller's arrays are left as they were.
    vaddr = np.arange(4, dtype=np.uint64) << np.uint64(6)
    cycle = np.zeros(4, dtype=np.uint32)
    counts = np.full((16, 3), 7, dtype=np.int64)
    events = np.full(4, 7, dtype=np.uint8)
    latency = np.full(2, 7, dtype=np.uint64)
    with pytest.raises(MemoryError, match=r"^memloc_simulate: out of memory$"):
        _core.load().memloc_simulate(4, vaddr, cycle, -1, 6, 15, 10, 32767, 16, 20, 36, 52,
                                     3, 2**60, counts, events, latency)
    assert (counts == 7).all() and (events == 7).all() and (latency == 7).all()


def test_first_touch_allocates_its_scratch_before_writing():
    # 2**60 rows: their seen bytes cannot be allocated.
    seq = np.arange(4, dtype=np.int64)
    out = np.full(4, 7, dtype=np.int64)
    with pytest.raises(MemoryError, match=r"^memloc_first_touch: out of memory$"):
        _core.load().memloc_first_touch(4, seq, 2**60, out)
    assert out.tolist() == [7] * 4


MIXED_KINDS = [0, 2, 0, 0, 1, 2, 2, 0, 1, 0, 0, 0]  # 9 demands among 12 records


@pytest.mark.parametrize("kinds, distance", [
    (MIXED_KINDS, 1), (MIXED_KINDS, 3), (MIXED_KINDS, 9), (MIXED_KINDS, 13),
    ([2] * 5, 1), ([2] * 5, 6), ([], 1)],
    ids=["mixed-1", "mixed-3", "mixed-9", "past-n", "prefetches-1", "prefetches-past-n", "empty"])
def test_inject_output_holds_a_prefetch_for_each_demand_but_the_last_distance(kinds, distance):
    # The caller sizes the output as n + max(0, demands - distance), and
    # the core fills exactly that: the element past it keeps its sentinel.
    n = len(kinds)
    trace = traceio.Trace(np.arange(n, dtype=np.uint64) * 64, np.arange(n) * 4,
                          np.array(kinds, np.uint8))
    expected = inject_oracle(trace, distance)
    size = n + max(0, sum(k != traceio.KIND_PREFETCH for k in kinds) - distance)
    assert len(expected) == size
    assert memsys.inject_sw_prefetch(trace, distance) == expected
    out = [np.full(size + 1, 7, np.uint64), np.full(size + 1, 7, np.uint32),
           np.full(size + 1, 7, np.uint8)]
    _core.load().memloc_inject(n, trace.vaddr, trace.cycle, trace.kind, distance,
                               traceio.KIND_PREFETCH, *out)
    assert [a[size] for a in out] == [7] * 3
    assert traceio.Trace(*(a[:size] for a in out)) == expected


def test_filter_writes_every_level_and_two_counters():
    # A counter written past the caller's seven slots would corrupt the
    # heap silently; here it would land on the sentinel.  A random walk over 400
    # lines, repeated, then a sweep, software prefetched into L3 with the
    # HW prefetcher on, is served at every level.
    rng = np.random.default_rng(3)
    lines = np.concatenate([np.tile(rng.integers(0, 400, 200), 20), np.arange(600)])
    trace = memsys.inject_sw_prefetch(
        traceio.Trace.from_addresses(lines.astype(np.uint64) * 64), 4)
    level = np.full(len(trace), 7, np.uint8)
    stats = np.array([0] * 7 + [7], np.int64)
    sets_and_ways = np.array([4, 8, 16], np.int64)
    _core.load().memloc_filter(len(trace), trace.vaddr, traceio.LINE_SHIFT, trace.kind, level,
                               sets_and_ways, sets_and_ways, 2, traceio.KIND_PREFETCH, 2, 1,
                               memsys._PAGE_LINES_SHIFT, stats)
    counts = np.bincount(level)  # no sentinel left, and each of levels 0-4 seen
    assert len(counts) == 5 and counts.min() > 0
    assert (level == 4).tolist() == (trace.kind == traceio.KIND_PREFETCH).tolist()
    assert stats[0] > stats[1] > 0 and stats[7] == 7
    assert stats[2:7].tolist() == np.bincount(level, minlength=5).tolist()


@pytest.mark.parametrize("served", [[], [0] * 6, [4] * 6, [3] * 6, [3, 0, 4, 3, 1, 2, 3]],
                         ids=["empty", "all-l1", "all-sw", "all-dram", "mixed"])
def test_take_copies_the_records_one_level_served_in_order(served):
    # The caller sizes the output from the level's count, and the core
    # fills exactly that: the element past it keeps its sentinel.
    n = len(served)
    trace = traceio.Trace(np.arange(n, dtype=np.uint64) * 64 + 2**63, np.arange(n) * 4,
                          np.arange(n) % 3)
    level = np.array(served, np.uint8)
    keep, size = level == 3, served.count(3)
    out = [np.full(size + 1, 7, np.uint64), np.full(size + 1, 7, np.uint32),
           np.full(size + 1, 7, np.uint8)]
    _core.load().memloc_take(n, level, 3, trace.vaddr, trace.cycle, trace.kind, *out)
    assert [a[size] for a in out] == [7] * 3
    assert traceio.Trace(*(a[:size] for a in out)) == traceio.Trace(
        trace.vaddr[keep], trace.cycle[keep], trace.kind[keep])


@pytest.mark.parametrize("lines, kind", [
    ([], traceio.KIND_READ), ([7] * 50, traceio.KIND_READ),
    (range(50), traceio.KIND_PREFETCH), (range(50), traceio.KIND_READ)],
    ids=["empty", "one-line", "all-sw", "all-dram"])
def test_filter_returns_the_dram_records_in_fresh_columns(lines, kind):
    trace = traceio.Trace.from_addresses(np.array(lines, np.uint64) * 4096, kind)
    dram, stats = memsys.filter_to_dram(trace)
    keep = memsys._levels(trace, memsys.CacheConfig(), memsys.PrefetchConfig())[0] == 3
    assert dram == traceio.Trace(trace.vaddr[keep], trace.cycle[keep], trace.kind[keep])
    assert len(dram) == stats.dram_demand_accesses
    for column in ("vaddr", "cycle", "kind"):
        got, source = getattr(dram, column), getattr(trace, column)
        assert got.flags.c_contiguous and got.flags.owndata
        assert not np.shares_memory(got, source)


SRC = Path(_core.__file__).parent
REFERENCE_LOOPS = {"CacheHierarchy", "_Level", "_StridePrefetcher", "_filter_reference",
                   "_simulate_reference", "_gini", "dtree_oracle", "quantize_rows_oracle",
                   "block_by_page_oracle", "block_by_page_lexsort_oracle", "inject_oracle",
                   "ideal_oracle", "first_touch_oracle", "sort_segments_oracle",
                   "morton_encode", "morton_decode", "hilbert_encode", "hilbert_decode",
                   "_axes_to_transpose", "_transpose_to_axes", "map_address"}


def _second_implementations(tree: ast.AST) -> list:
    """Reference-loop definitions, warnings, and uses of _core.load()
    other than calling into the library it returns."""
    found = []
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in REFERENCE_LOOPS:
            found.append(f"line {node.lineno}: defines {node.name}")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "warnings" in {getattr(node, "module", None), *(a.name for a in node.names)}:
                found.append(f"line {node.lineno}: imports warnings")
        if (isinstance(node, ast.Call) and ast.unparse(node.func) == "_core.load"
                and not isinstance(parents[node], ast.Attribute)):
            found.append(f"line {node.lineno}: keeps load()'s result")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_package_holds_one_implementation_per_simulator(path):
    assert _second_implementations(ast.parse(path.read_text(), str(path))) == []


def test_guard_catches_the_old_fallback():
    old = ("import warnings\nclass CacheHierarchy: pass\ndef _simulate_reference(): pass\n"
           "core = _core.load()\nif _core.load() is None: pass\njson.load(f)\n")
    assert len(_second_implementations(ast.parse(old))) == 5


def _unreached(trees: dict, defining: set) -> list:
    """Functions, classes and methods defined in the modules named in
    `defining` that no Name or attribute in any of `trees` uses outside
    their own definition; a dunder method is called by Python itself."""
    uses = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(getattr(node, "id", None) or node.attr, []).append(node)
    found = []
    for name in sorted(defining):
        for node in ast.walk(trees[name]):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))):
                inside = set(ast.walk(node))
                if all(use in inside for use in uses.get(node.name, [])):
                    found.append(f"{name}:{node.lineno}: {node.name}")
    return found


def test_every_package_definition_is_reached_from_the_package_or_the_benchmark():
    # A function only tests call belongs in tests/, beside the tests.
    perfbench = SRC.parents[1] / "perfbench"
    paths = {p.name: p for p in sorted(SRC.glob("*.py"))}
    trees = {name: ast.parse(p.read_text(), str(p)) for name, p in paths.items()}
    trees.update({f"perfbench/{p.name}": ast.parse(p.read_text(), str(p))
                  for p in sorted(perfbench.glob("*.py"))})
    assert _unreached(trees, set(paths)) == []


def test_reach_guard_ignores_a_definitions_own_uses():
    trees = {"m": ast.parse("def walk(n): return walk(n - 1)\n"
                            "class K:\n    def __init__(self): pass\n    def go(self): pass\n"
                            "def used(): pass\n"),
             "user": ast.parse("K().go\nused()\n")}
    assert _unreached(trees, {"m"}) == ["m:1: walk"]


def test_importing_memloc_builds_nothing():
    code = ("import memloc.cli, memloc.pipeline\n"
            "from memloc import _core\n"
            "assert _core._open.cache_info().currsize == 0\n")
    src = Path(_core.__file__).parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(src)})
