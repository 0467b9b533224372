"""Implicit median kd-tree, built and walked by the compiled core.

The tree is one array, `order`, of row indices in tree order.  The
subtree on positions [lo, hi) has its node at mid = lo + (hi - lo) // 2,
its left subtree on [lo, mid) and its right subtree on [mid + 1, hi),
and splits on axis depth % m, ties kept in their earlier order.  Queries
report every row whose features are examined, in examination order.
The squared distance d2 is the left-to-right float64 sum of squared
coordinate differences, so it is the same on every host.
"""

from __future__ import annotations

import operator

import numpy as np

from . import _core


def feature_matrix(data) -> np.ndarray:
    """`data` as a C-contiguous float64 (n, m) array with n, m >= 1 and
    every value finite: the one check of every feature matrix memloc
    builds a tree, a bisection or a curve order over."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or 0 in data.shape or not np.isfinite(data).all():
        raise ValueError("dataset must be a non-empty (n, m) array with no NaN or infinite values")
    return data


def median_bisect(data: np.ndarray, leaf_size: int, rcb: bool) -> np.ndarray:
    """Row indices of `data`, a C-contiguous float64 (n, m) array with
    n, m >= 1, in median-bisection order, built by the compiled core:
    every subtree of more than `leaf_size` rows (1 <= leaf_size <= n) is
    stably sorted on one axis and split at its median.  The kd-tree
    (rcb False) splits on axis depth % m around the node described
    above; recursive coordinate bisection (rcb True) on the axis of
    widest spread, lowest index on ties, the left half taking the
    middle row of an odd subtree."""
    order = np.arange(len(data), dtype=np.int64)
    _core.load().memloc_bisect(len(data), data.shape[1], data, order, leaf_size, rcb)
    return order


class KdTree:
    def __init__(self, data: np.ndarray):
        data = feature_matrix(data)
        self.m = data.shape[1]
        self.order = median_bisect(data, 1, rcb=False)
        self._points = data[self.order]  # the walk reads the points in tree order

    def walk(self, queries, k: int | None = None, r2: float = 0.0):
        """One pruned depth-first walk from the root per query row, near
        side first, in the compiled core.  Returns (rows, found, starts):
        the examined rows of all queries in examination order; with `k`
        the k nearest (d2, row) pairs of each query as two
        (queries, min(k, n)) arrays in no set order, skipping a far side
        whose plane is no nearer than the k-th best d2, else a mask of
        the examined rows with d2 <= r2, skipping a far side whose plane
        lies beyond r2; and the queries + 1 offsets where each query's
        rows start in `rows`, the last being len(rows)."""
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.m:
            raise ValueError(f"queries must be a (q, {self.m}) array")
        if not np.isfinite(queries).all():
            raise ValueError("queries hold NaN or infinite values")
        if k is not None and operator.index(k) < 1:
            raise ValueError("k must be >= 1")
        n, nq = len(self.order), len(queries)
        width = 0 if k is None else min(k, n)  # k > n prunes as k = n does
        best_d2 = np.empty((nq, width))
        best_row = np.empty((nq, width), dtype=np.int64)
        starts = np.zeros(nq + 1, dtype=np.int64)
        # The core fills these from query `done` on and stops at the first
        # query that might not fit.  They grow and shrink in place, so no
        # copy lives beside them, and nothing may view them before the trim.
        # Only a radius walk writes the hit mask; a kNN walk passes none.
        rows = np.empty(n + 64 * nq, dtype=np.int64)
        hit = np.empty(len(rows) if k is None else 0, dtype=bool)
        done = 0
        while (done := _core.load().memloc_kdtree(
                n, self.m, self._points, self.order, nq, queries, width, float(r2),
                best_d2, best_row, done, len(rows), rows, hit, starts)) < nq:
            # Room for the queries left at the mean so far, and one more
            # query's n: more than the core had, so the walk moves on.
            rows.resize(int(starts[done]) * nq // done + n, refcheck=False)
            if k is None:
                hit.resize(len(rows), refcheck=False)
        rows.resize(int(starts[-1]), refcheck=False)
        if k is None:
            hit.resize(len(rows), refcheck=False)
        return rows, hit if k is None else (best_d2, best_row), starts
