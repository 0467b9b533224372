"""Synthetic kernel trace generators.

Each generator walks a kernel (kNN, DBSCAN-style radius queries,
decision-tree induction, random gather) over a dataset and emits one
read per distinct 64-byte line of every row examination, in
examination order; AddressModel says which lines a row covers.
Generators also return the logical row sequence, which feeds the
inspector-style reorderings; the tree kernels also return where each
iteration's rows (a query's visits, a node's row list) start in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _core
from .kdtree import KdTree, feature_matrix
from .traceio import KIND_READ, LINE_SIZE, PAGE_SIZE, Trace


@dataclass
class AddressModel:
    """Where the rows of the feature matrix live.

    Row r starts at virtual byte base + r * row_stride_bytes, and each
    examination reads its first row_bytes bytes: one record per 64B line
    they cover.  base, one fixed address, is page-aligned, so
    r * row_stride_bytes // PAGE_SIZE is the page the row starts on,
    counted from the matrix's first page.
    "shuffle" page mapping places the pages of the matrix's `rows` rows
    in a seeded random permutation of their frames.  A matrix whose
    `rows` are known must end by byte 2**63.
    """

    base: ClassVar[int] = 0x1000_0000
    row_stride_bytes: int = 64
    row_bytes: int = 0  # bytes read per examination; defaults to the stride
    page_mapping: str = "identity"  # or "shuffle"
    seed: int = 0
    rows: int = 0  # rows in the matrix; shuffle page mapping needs it

    def __post_init__(self):
        if self.row_stride_bytes < 1:
            raise ValueError("row_stride_bytes must be >= 1")
        if self.page_mapping not in ("identity", "shuffle"):
            raise ValueError(f"unknown page_mapping {self.page_mapping!r}")
        if self.page_mapping == "shuffle" and self.rows < 1:
            raise ValueError("shuffle page mapping needs the matrix's rows")
        if not self.row_bytes:
            self.row_bytes = self.row_stride_bytes
        end = self.base + (self.rows - 1) * self.row_stride_bytes + self.row_bytes
        if self.rows and end > 2**63:  # int64 addresses would wrap onto lower rows
            raise ValueError(f"the {self.rows}-row matrix ends past byte 2**63")

    @classmethod
    def for_matrix(cls, m: int, row_stride_bytes: int | None = None,
                   row_bytes: int | None = None, **kw) -> "AddressModel":
        """Rows of m float64 features, packed back to back unless a
        stride is given; an examination reads the whole row by default."""
        stride = m * 8 if row_stride_bytes is None else row_stride_bytes
        return cls(row_stride_bytes=stride, row_bytes=row_bytes or m * 8, **kw)


def rows_to_lines(rows, addr: AddressModel) -> np.ndarray:
    """Expand row examinations into 64B-aligned line addresses: every
    distinct line covering the row's row_bytes bytes, per examination."""
    rows = np.asarray(rows, dtype=np.int64)
    # Rows start at multiples of gcd(stride, line) inside a line, so no
    # row crosses a line boundary when it is at most that long.  Then the
    # lines are one array, updated in place.
    if addr.row_bytes <= math.gcd(addr.row_stride_bytes, LINE_SIZE):
        lines = rows * addr.row_stride_bytes
        lines += addr.base
        lines &= -LINE_SIZE  # x // LINE_SIZE * LINE_SIZE, in two's complement
        return lines.view(np.uint64)
    start = addr.base + rows * addr.row_stride_bytes
    first = start // LINE_SIZE
    counts = (start + addr.row_bytes - 1) // LINE_SIZE - first + 1
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    return ((np.repeat(first, counts) + within) * LINE_SIZE).astype(np.uint64)


def rows_to_trace(rows, addr: AddressModel) -> Trace:
    """Read trace of row examinations, at physical addresses."""
    rows = np.asarray(rows, dtype=np.int64)
    lines = rows_to_lines(rows, addr)
    if addr.page_mapping == "shuffle" and len(rows):
        if rows.min() < 0 or rows.max() >= addr.rows:
            raise ValueError(f"row outside the {addr.rows}-row matrix")
        lines = _shuffle_pages(lines, addr)
    return Trace.from_addresses(lines, KIND_READ)


def _shuffle_pages(vaddr: np.ndarray, addr: AddressModel) -> np.ndarray:
    """Map the matrix's pages through one seeded permutation of their
    frames, keeping offsets inside pages, so every trace over the
    matrix sees the same mapping."""
    last = addr.base + (addr.rows - 1) * addr.row_stride_bytes + addr.row_bytes - 1
    lo, hi = addr.base // PAGE_SIZE, last // PAGE_SIZE
    frames = np.random.default_rng(addr.seed).permutation(hi - lo + 1).astype(np.uint64) + lo
    return frames[(vaddr // PAGE_SIZE - lo).astype(np.int64)] * PAGE_SIZE + vaddr % PAGE_SIZE


def gen_knn_trace(data: np.ndarray, queries: np.ndarray, k: int, addr: AddressModel):
    """kd-tree k-NN over all queries; returns (trace, row_sequence,
    starts), query q's visits being row_sequence[starts[q]:starts[q + 1]]."""
    if not 1 <= k <= len(data):
        raise ValueError("k must be between 1 and the number of rows")
    return _tree_trace(data, queries, addr, k=k)


def gen_dbscan_trace(data: np.ndarray, radius: float, addr: AddressModel):
    """Radius query around every point, DBSCAN-style neighborhood pass;
    returns what gen_knn_trace does, with the rows as the queries."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return _tree_trace(data, data, addr, r2=radius * radius)


def _tree_trace(data, queries, addr: AddressModel, k: int | None = None, r2: float = 0.0):
    """One KdTree walk over all query rows: kNN with `k`, else radius sqrt(r2)."""
    rows, starts = KdTree(data).walk(queries, k, r2)
    return rows_to_trace(rows, addr), rows, starts


def gen_dtree_trace(data: np.ndarray, labels: np.ndarray, max_depth: int,
                    addr: AddressModel):
    """Greedy single-feature threshold tree, grown by the compiled core;
    node subsets read via index lists.  Returns (trace, row_sequence,
    starts): the nodes' row lists, each in storage order, depth first,
    node i's at row_sequence[starts[i]:starts[i + 1]].

    A node shallower than max_depth with impure labels thresholds its
    rows at <= each feature's median (np.median's value) and splits on
    the feature whose two non-empty sides have the lowest weighted Gini
    impurity (1 - the squared class shares, summed left to right over
    the classes in ascending order), the first on ties, unless that is
    no lower than its own."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    data = feature_matrix(data)
    n, m = data.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must be a 1-D array of {n} entries, one per row")
    classes, codes = np.unique(labels, return_inverse=True)
    # No path is deeper than n, and a tree of l leaves has 2l - 1 nodes.
    depth = min(max_depth, n)
    cap = min((1 << min(depth, 62)) - 1, 2 * n - 1)
    idx = np.arange(n, dtype=np.int64)
    bounds = np.empty((cap, 2), dtype=np.int64)
    nodes = _core.load().memloc_dtree(n, m, data, len(classes), codes.astype(np.int64),
                                      depth, cap, idx, bounds)
    bounds = bounds[:nodes]
    starts = np.concatenate(([0], np.cumsum(bounds[:, 1] - bounds[:, 0])))
    # The core partitions node ranges of idx in place; node i's rows are
    # what its range holds at the end, put back in storage order.
    rows = node_rows(bounds, idx, np.arange(n, dtype=np.int64))
    return rows_to_trace(rows, addr), rows, starts


def node_rows(bounds: np.ndarray, src: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Node after node, the positions v, ascending, whose row order[v]
    the node holds.  The nodes form a tree over the rows of `order`, a
    permutation, and come in preorder: node s holds
    src[bounds[s, 0]:bounds[s, 1]], a subset of its parent's rows.  One
    core pass over the nodes and one over `order` (memloc_node_rows),
    with no sort; ValueError when the nodes are not such a tree."""
    out = np.empty((bounds[:, 1] - bounds[:, 0]).sum(), dtype=np.int64)
    if _core.load().memloc_node_rows(len(order), len(bounds), bounds, src, order, out) != len(out):
        raise ValueError("the nodes' rows are not a tree in preorder")
    return out


def gen_gather_trace(n: int, count: int, addr: AddressModel, seed: int = 0):
    """Indirect A[B[i]] reads over uniform random rows, each of the
    row's first addr.row_bytes bytes (one float64 in the pipeline)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=count, dtype=np.int64)
    return rows_to_trace(rows, addr), rows


def make_clustered(n: int, m: int, clusters: int, seed: int = 0,
                   layout: str = "contiguous", spread: float = 0.02) -> np.ndarray:
    """Gaussian cluster mixture in the unit cube.

    layout "contiguous" keeps each cluster's rows adjacent (generation
    order); "shuffled" permutes rows to destroy layout locality.
    """
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    centers = rng.random((clusters, m))
    sizes = np.full(clusters, n // clusters)
    sizes[: n % clusters] += 1
    data = rng.normal(0.0, spread, (n, m))
    data += np.repeat(centers, sizes, axis=0)
    if layout == "shuffled":
        data = data[rng.permutation(n)]
    elif layout != "contiguous":
        raise ValueError(f"unknown layout {layout!r}")
    return data


def make_uniform(n: int, m: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((n, m))
