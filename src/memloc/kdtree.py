"""Implicit median kd-tree with traversal-order callbacks.

The tree is one array, `order`, of row indices in tree order.  The
subtree on positions [lo, hi) has its node at mid = lo + (hi - lo) // 2,
its left subtree on [lo, mid) and its right subtree on [mid + 1, hi),
and splits on axis depth % m, ties kept in their earlier order.  Queries
report every row whose features are examined, in examination order.
The squared distance d2 is the left-to-right float64 sum of squared
coordinate differences, so it is the same on every host.
"""

from __future__ import annotations

import heapq

import numpy as np


class KdTree:
    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError("data must be a non-empty (n, m) array")
        if not np.isfinite(data).all():
            raise ValueError("data holds NaN or infinite values")
        n, self.m = data.shape
        # group[p] is the first position of the subtree holding p at this
        # depth, so one stable lexsort sorts every subtree at once.  The
        # subtrees deeper than n.bit_length() - 2 hold one row at most.
        order, pos = np.arange(n), np.arange(n)
        group = np.zeros(n, dtype=np.int64)
        for depth in range(n.bit_length() - 1):
            order = order[np.lexsort((data[order, depth % self.m], group))]
            mid = group + np.bincount(group, minlength=n)[group] // 2
            group = np.where(pos < mid, group, np.minimum(pos, mid + 1))
        self.order = order
        self._rows = order.tolist()
        self._points = data[order].tolist()

    def walk(self, query, visit, k: int | None = None, r2: float = 0.0):
        """Pruned depth-first walk from the root, near side first, calling
        `visit(row)` for every row whose features are read.  With `k`, the
        k nearest rows as a heap of (-d2, row), skipping a far side whose
        plane is no nearer than the k-th best d2; else the rows with
        d2 <= r2, skipping a far side whose plane lies beyond r2."""
        q = [float(v) for v in query]
        pts, rows, m = self._points, self._rows, self.m
        if len(q) != m:
            raise ValueError(f"query must have {m} coordinates")
        found: list = []
        # Only far sides are pushed; a near side is entered directly and
        # never pruned, even when the k-th best d2 is 0.
        stack = [(0, len(rows), 0, 0.0)]
        while stack:
            lo, hi, depth, plane2 = stack.pop()
            if k is None:
                if not plane2 <= r2:
                    continue
            elif len(found) == k and plane2 >= -found[0][0]:
                continue
            while lo < hi:
                mid = lo + (hi - lo) // 2
                p, row = pts[mid], rows[mid]
                visit(row)
                d2 = 0.0
                for a, b in zip(p, q):
                    d = a - b
                    d2 += d * d
                if k is None:
                    if d2 <= r2:
                        found.append(row)
                elif len(found) < k:
                    heapq.heappush(found, (-d2, row))
                elif d2 < -found[0][0]:
                    heapq.heapreplace(found, (-d2, row))
                ax = depth % m
                delta = q[ax] - p[ax]
                depth += 1
                if delta < 0:
                    stack.append((mid + 1, hi, depth, delta * delta))
                    hi = mid
                else:
                    stack.append((lo, mid, depth, delta * delta))
                    lo = mid + 1
        return found

    def knn(self, query: np.ndarray, k: int, visit=None):
        """The k nearest rows as sorted (d2, row) pairs."""
        return sorted((-d, r) for d, r in self.walk(query, visit or (lambda row: None), k=k))

    def radius(self, query: np.ndarray, radius: float, visit=None):
        """All rows within `radius`, in examination order."""
        return self.walk(query, visit or (lambda row: None), r2=radius * radius)
