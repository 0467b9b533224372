"""Synthetic kernel trace generators.

Each generator walks a kernel (kNN, DBSCAN-style radius queries,
decision-tree induction, random gather) over a dataset and emits one
read per distinct 64-byte line of every row examination, in
examination order; AddressModel says which lines a row covers.
Generators also return the logical row sequence, which feeds the
inspector-style reorderings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kdtree import KdTree
from .traceio import KIND_READ, LINE_SIZE, PAGE_SIZE, Trace


@dataclass
class AddressModel:
    """Where the rows of the feature matrix live.

    Row r starts at virtual byte base + r * row_stride_bytes, and each
    examination reads its first row_bytes bytes: one record per 64B line
    they cover.  base is page-aligned, so r * row_stride_bytes // PAGE_SIZE
    is the page the row starts on, counted from the matrix's first page.
    "shuffle" page mapping places the pages of the matrix's `rows` rows
    in a seeded random permutation of their frames.
    """

    base: int = 0x1000_0000
    row_stride_bytes: int = 64
    row_bytes: int = 0  # bytes read per examination; defaults to the stride
    page_mapping: str = "identity"  # or "shuffle"
    seed: int = 0
    rows: int = 0  # rows in the matrix; shuffle page mapping needs it

    def __post_init__(self):
        if self.base % PAGE_SIZE:
            raise ValueError("base must be page-aligned")
        if self.row_stride_bytes < 1:
            raise ValueError("row_stride_bytes must be >= 1")
        if self.page_mapping not in ("identity", "shuffle"):
            raise ValueError(f"unknown page_mapping {self.page_mapping!r}")
        if self.page_mapping == "shuffle" and self.rows < 1:
            raise ValueError("shuffle page mapping needs the matrix's rows")
        if not self.row_bytes:
            self.row_bytes = self.row_stride_bytes

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
    start = addr.base + rows * addr.row_stride_bytes
    first = start // LINE_SIZE
    # Rows start at multiples of gcd(stride, line) inside a line, so no
    # row crosses a line boundary when it is at most that long.
    if addr.row_bytes <= math.gcd(addr.row_stride_bytes, LINE_SIZE):
        return (first * LINE_SIZE).astype(np.uint64)
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
    """kd-tree k-NN over all queries; returns (trace, row_sequence)."""
    if not 1 <= k <= len(data):
        raise ValueError("k must be between 1 and the number of rows")
    return _tree_trace(data, queries, addr, k=k)


def gen_dbscan_trace(data: np.ndarray, radius: float, addr: AddressModel):
    """Radius query around every point, DBSCAN-style neighborhood pass."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return _tree_trace(data, data, addr, r2=radius * radius)


def _tree_trace(data, queries, addr: AddressModel, k: int | None = None, r2: float = 0.0):
    """One KdTree.walk per query row: kNN with `k`, else radius sqrt(r2)."""
    tree = KdTree(data)
    queries = np.asarray(queries, dtype=np.float64)
    if not np.isfinite(queries).all():
        raise ValueError("queries hold NaN or infinite values")
    rows: list = []
    visit = rows.append
    for q in queries.tolist():
        tree.walk(q, visit, k, r2)
    rows = np.asarray(rows, dtype=np.int64)
    return rows_to_trace(rows, addr), rows


def _gini(labels: np.ndarray) -> float:
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return 1.0 - float(p @ p)


def gen_dtree_trace(data: np.ndarray, labels: np.ndarray, max_depth: int,
                    addr: AddressModel):
    """Greedy single-feature threshold tree; node subsets read via index lists."""
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    rows: list = []

    def grow(idx: np.ndarray, depth: int):
        rows.extend(idx.tolist())
        if depth >= max_depth:
            return
        sub_labels = labels[idx]
        parent = _gini(sub_labels)
        if parent == 0.0:
            return
        best = None
        for j in range(data.shape[1]):
            col = data[idx, j]
            thr = float(np.median(col))
            mask = col <= thr
            nl = int(mask.sum())
            if nl == 0 or nl == len(idx):
                continue
            score = (nl * _gini(sub_labels[mask])
                     + (len(idx) - nl) * _gini(sub_labels[~mask])) / len(idx)
            if best is None or score < best[0]:
                best = (score, j, thr, mask)
        if best is None or best[0] >= parent:
            return
        _, _, _, mask = best
        grow(idx[mask], depth + 1)
        grow(idx[~mask], depth + 1)

    grow(np.arange(data.shape[0], dtype=np.int64), 1)
    rows = np.asarray(rows, dtype=np.int64)
    return rows_to_trace(rows, addr), rows


def gen_gather_trace(n: int, count: int, addr: AddressModel, seed: int = 0):
    """Indirect A[B[i]] reads over uniform random rows, each of the
    row's first addr.row_bytes bytes (one float64 in the pipeline)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=count, dtype=np.int64)
    return rows_to_trace(rows, addr), rows


def gen_sequential_trace(n_lines: int, addr: AddressModel) -> Trace:
    """Streaming sanity kernel: one pass of consecutive lines."""
    lines = addr.base + np.arange(n_lines, dtype=np.uint64) * LINE_SIZE
    return Trace.from_addresses(lines, KIND_READ)


def make_clustered(n: int, m: int, clusters: int, seed: int = 0,
                   layout: str = "contiguous", spread: float = 0.02) -> np.ndarray:
    """Gaussian cluster mixture in the unit cube.

    layout "contiguous" keeps each cluster's rows adjacent (generation
    order); "shuffled" permutes rows to destroy layout locality.
    """
    rng = np.random.default_rng(seed)
    centers = rng.random((clusters, m))
    sizes = np.full(clusters, n // clusters)
    sizes[: n % clusters] += 1
    parts = [centers[c] + rng.normal(0.0, spread, (sizes[c], m)) for c in range(clusters)]
    data = np.vstack(parts)
    if layout == "shuffled":
        data = data[rng.permutation(n)]
    elif layout != "contiguous":
        raise ValueError(f"unknown layout {layout!r}")
    return data


def make_uniform(n: int, m: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).random((n, m))
