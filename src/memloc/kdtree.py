"""Implicit median kd-tree, built and walked by the compiled core.

The tree is one array, `order`, of row indices in tree order.  The
subtree on positions [lo, hi) has its node at mid = lo + (hi - lo) // 2,
its left subtree on [lo, mid) and its right subtree on [mid + 1, hi),
and splits on axis depth % m, ties kept in their earlier order.  A walk
reports only the rows whose features it examines, in examination order,
not the neighbours found.  A kNN walk keeps the k best squared distances
d2, each the left-to-right float64 sum of squared coordinate
differences, so the same on every host; a radius walk computes no d2.
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
    n, m >= 1, in median-bisection order: the order that stably sorting
    every subtree of more than `leaf_size` rows (1 <= leaf_size <= n) on
    one axis and splitting it at its median gives, starting from row
    order.  The kd-tree (rcb False) splits on axis depth % m around the
    node described above; recursive coordinate bisection (rcb True) on
    the axis of widest spread, lowest index on ties, the left half
    taking the middle row of an odd subtree.  The compiled core finds
    each split by selection on the order those sorts imply, and sorts
    only the leaves of two rows or more."""
    order = np.empty(len(data), dtype=np.int64)
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
        side first, in the compiled core.  Returns (rows, starts): the
        examined rows of all queries in examination order, and the
        queries + 1 offsets where each query's rows start in `rows`, the
        last being len(rows).  With `k` a walk skips a far side whose
        plane is no nearer than the k-th best d2 so far, else one whose
        plane lies beyond r2 (>= 0, and may be infinite)."""
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != self.m:
            raise ValueError(f"queries must be a (q, {self.m}) array")
        if not np.isfinite(queries).all():
            raise ValueError("queries hold NaN or infinite values")
        if k is not None and operator.index(k) < 1:
            raise ValueError("k must be >= 1")
        r2 = float(r2)
        if not r2 >= 0.0:
            raise ValueError("r2 must be >= 0")
        n, nq = len(self.order), len(queries)
        best = np.empty(0 if k is None else min(k, n))  # k > n prunes as k = n does
        starts = np.zeros(nq + 1, dtype=np.int64)
        # The core fills rows from query `done` on and stops at the first
        # query that might not fit.  It grows and shrinks in place, so no
        # copy lives beside it, and nothing may view it before the trim.
        rows = np.empty(n + 64 * nq, dtype=np.int64)
        done = 0
        while (done := _core.load().memloc_kdtree(
                n, self.m, self._points, self.order, nq, queries, len(best), r2,
                best, done, len(rows), rows, starts)) < nq:
            # Room for the queries left at the mean so far, and one more
            # query's n: more than the core had, so the walk moves on.
            rows.resize(int(starts[done]) * nq // done + n, refcheck=False)
        rows.resize(int(starts[-1]), refcheck=False)
        return rows, starts
