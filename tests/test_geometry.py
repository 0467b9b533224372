"""The modelled machine's line and page size are defined once, in traceio."""

import ast
import inspect
from pathlib import Path

import pytest

from memloc import dramsim, kernels, memsys, reorder, traceio

SRC = Path(__file__).resolve().parent.parent / "src" / "memloc"
GEOMETRY_NAMES = {"LINE_SIZE", "PAGE_SIZE"}


def _is_six(node) -> bool:
    """A literal 6, bare or wrapped in a call such as np.uint64(6)."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    return isinstance(node, ast.Constant) and node.value == 6


def _geometry_violations(tree: ast.AST) -> list:
    found = []
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for t in targets:
            for name in ast.walk(t):
                if isinstance(name, ast.Name) and name.id in GEOMETRY_NAMES:
                    found.append(f"line {node.lineno}: assigns {name.id}")
        shifts = (ast.RShift, ast.LShift)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, shifts):
            if _is_six(node.right if isinstance(node, ast.BinOp) else node.value):
                found.append(f"line {node.lineno}: shifts by a literal 6")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_geometry_is_defined_only_in_traceio(path):
    found = _geometry_violations(ast.parse(path.read_text(), str(path)))
    if path.name == "traceio.py":
        assigned = {f.rsplit(" ", 1)[1] for f in found if "assigns" in f}
        assert assigned == GEOMETRY_NAMES
    else:
        assert found == []


def test_guard_catches_the_old_copies():
    old = ("LINE_SIZE = 64\nPAGE_SIZE: int = 4096\n"
           "page = line >> 6\nlines = vaddr >> np.uint64(6)\nx >>= 6\n")
    assert len(_geometry_violations(ast.parse(old))) == 5


def test_traceio_constants_agree():
    assert traceio.LINE_SIZE == 1 << traceio.LINE_SHIFT == 64
    assert traceio.PAGE_SIZE == 4096
    assert traceio.ISSUE_GAP == 4


REMOVED_KNOBS = [
    (memsys.LevelConfig, "line_size"), (dramsim.DramConfig, "line_size"),
    (dramsim.DramConfig, "channels"), (dramsim.DramConfig, "ranks"),
    (kernels.AddressModel, "line_size"), (kernels.AddressModel, "page_size"),
    (memsys.filter_to_dram, "keep_prefetch_misses"), (dramsim.simulate, "ideal"),
    (kernels.rows_to_lines, "full_row"), (kernels.rows_to_trace, "full_row"),
    (reorder.block_by_page, "page_size_bytes"), (memsys.inject_sw_prefetch, "stream"),
    *((gen, "issue_gap") for gen in (
        kernels.rows_to_trace, kernels.gen_knn_trace, kernels.gen_dbscan_trace,
        kernels.gen_dtree_trace, kernels.gen_gather_trace)),
    *((dramsim.simulate_ideal, name) for name in (
        "cap", "queue_depth", "collect_events", "geom", "scheme")),
    # The dram section's keys are DramConfig's fields, not keywords.
    *((dramsim.simulate, name) for name in (
        "geom", "timing", "scheme", "cap", "arrival", "arrival_gap", "queue_depth")),
    # The tests read the request kinds from the core (reference_models.core_events).
    (dramsim.simulate, "collect_events"),
]


@pytest.mark.parametrize("fn, name", REMOVED_KNOBS,
                         ids=[f"{fn.__name__}.{name}" for fn, name in REMOVED_KNOBS])
def test_single_valued_knobs_are_gone(fn, name):
    assert name not in inspect.signature(fn).parameters
