"""Variants derived from the baseline walk against independent references.

The pipeline runs a kernel once per config and derives every layout and
query-order variant from that walk: relabelled rows, per-query segments
in a new order, or per-node row lists in the new row order.  Where the
tree does not depend on the storage order, the reference is the kernel
generated again over the permuted rows or queries.  Where it does (ties
in the first feature column of a kNN or DBSCAN config), a layout still
keeps the baseline's walk, and the reference is KdTreeOracle walked over
the original data and relabelled through the inverse permutation.
"""

import dataclasses
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_oracles import KdTreeOracle

from memloc import kernels, pipeline, reorder

LAYOUTS = ("hilbert", "zorder", "rcb", "first-touch")
DTREE_LAYOUTS = ("hilbert", "zorder", "rcb")  # a tree kernel rejects first-touch, its identity
CFG = pipeline.resolve_config({})


def _derived_and_expected(ctx, variant, expected):
    """The pipeline's trace for `variant`, and `expected(perm)` under the
    variant's permutation."""
    baseline = ctx.generate()
    perm, _ = pipeline.reorder_by(variant, CFG, kind=ctx.kind, rows=baseline[1],
                                  n=ctx.spec["n"],
                                  points=ctx.queries if variant == "zorder-comp" else ctx.data)
    return pipeline._transform(ctx, variant, CFG, baseline)(), expected(perm)


def _kernel(kind, seed, n, m, **spec):
    return pipeline.build_kernel({"seed": seed, "kernel": {"kind": kind, "n": n, "m": m,
                                                          **spec}})


def test_a_dtree_layout_allocates_only_its_rows():
    # 100k rows, depth 8: 601,561 node rows, 4.8 MB.  The core's own
    # scratch (n + 2 * nodes int64) is C malloc, which tracemalloc does
    # not see; no inverse permutation, relabelled copy or sort key is
    # made in Python beside the output.
    ctx = _kernel("dtree", 1, 100_000, 4, max_depth=8)
    _, rows, starts = ctx.generate()
    perm, _ = pipeline.reorder_by("hilbert", CFG, kind="dtree", points=ctx.data)
    tracemalloc.start()
    try:
        derived = pipeline._derive("dtree", "hilbert", perm, rows, starts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(derived) == starts[-1] > 4 * len(perm)
    assert peak <= 1.1 * derived.nbytes


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 200), m=st.integers(1, 4),
       max_depth=st.sampled_from([1, 5]), labels=st.sampled_from(["pure", "balanced"]),
       decimals=st.sampled_from([None, 1]))
def test_dtree_layouts_match_a_fresh_generation(seed, n, m, max_depth, labels, decimals):
    ctx = _kernel("dtree", seed, n, m, max_depth=max_depth)
    data = ctx.data if decimals is None else ctx.data.round(decimals)  # ties, duplicates
    if labels == "pure":
        y = np.zeros(n, dtype=np.int64)
    else:
        score = data @ np.random.default_rng(seed).random(m)
        y = (score > np.median(score)).astype(np.int64)
    ctx = dataclasses.replace(ctx, data=data, labels=y)
    for variant in DTREE_LAYOUTS:
        derived, fresh = _derived_and_expected(ctx, variant, lambda perm: kernels.gen_dtree_trace(
            data[perm], y[perm], max_depth, ctx.addr)[0])
        assert derived == fresh, variant


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 120), m=st.integers(1, 3),
       queries=st.integers(1, 30), k_is_n=st.booleans(), tied=st.booleans())
def test_knn_query_order_matches_a_fresh_generation(seed, n, m, queries, k_is_n, tied):
    k = n if k_is_n else 1
    ctx = _kernel("knn", seed, n, m, queries=queries, k=k)
    if tied:  # the tree is not rebuilt, so ties on its first axis do not matter
        ctx = dataclasses.replace(ctx, data=ctx.data.round(1))
    derived, fresh = _derived_and_expected(ctx, "zorder-comp", lambda qperm: kernels.gen_knn_trace(
        ctx.data, ctx.queries[qperm], k, ctx.addr)[0])
    assert derived == fresh


def _tie(ctx, column):
    """ctx with its data's `column` rounded to one decimal: ties there."""
    data = ctx.data.copy()
    data[:, column] = data[:, column].round(1)
    return dataclasses.replace(ctx, data=data)


def _oracle_segments(data, queries, walk):
    """Per query, the rows `walk(tree, query, visit)` visits in
    KdTreeOracle's tree over `data`."""
    tree, segments = KdTreeOracle(data), []
    for q in queries:
        segments.append([])
        walk(tree, q, segments[-1].append)
    return segments


def _relabelled(ctx, perm, segments):
    """The trace of `segments`' rows under their new indices after perm."""
    rows = np.array([r for seg in segments for r in seg], dtype=np.int64)
    return kernels.rows_to_trace(reorder.invert_permutation(perm)[rows], ctx.addr)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 120), m=st.integers(1, 3),
       radius=st.sampled_from([1e-9, 0.1, float("inf")]), tied=st.booleans())
def test_dbscan_layouts_match_a_fresh_generation(seed, n, m, radius, tied):
    ctx = _kernel("dbscan", seed, n, m, radius=radius)
    if tied:  # the baseline's segments, taken in the new row order and relabelled
        ctx = _tie(ctx, 0)
        segments = _oracle_segments(ctx.data, ctx.data, lambda tree, q, visit: tree.radius(
            q, radius, visit))
    for variant in LAYOUTS:
        derived, expected = _derived_and_expected(ctx, variant, lambda perm: (
            _relabelled(ctx, perm, [segments[i] for i in perm]) if tied
            else kernels.gen_dbscan_trace(ctx.data[perm], radius, ctx.addr)[0]))
        assert derived == expected, variant


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31), n=st.integers(1, 120), m=st.integers(1, 3),
       queries=st.integers(1, 20), k_is_n=st.booleans(), tied=st.sampled_from([None, 0, -1]))
def test_knn_layouts_match_a_fresh_generation(seed, n, m, queries, k_is_n, tied):
    k = n if k_is_n else 1
    ctx = _kernel("knn", seed, n, m, queries=queries, k=k)
    ctx = ctx if tied is None else _tie(ctx, tied)
    first_column_tied = tied is not None and tied % m == 0  # column -1 is column 0 at m = 1
    if first_column_tied:  # the baseline's visits, relabelled
        segments = _oracle_segments(ctx.data, ctx.queries, lambda tree, q, visit: tree.knn(
            q, k, visit))
    for variant in LAYOUTS:
        derived, expected = _derived_and_expected(ctx, variant, lambda perm: (
            _relabelled(ctx, perm, segments) if first_column_tied
            else kernels.gen_knn_trace(ctx.data[perm], ctx.queries, k, ctx.addr)[0]))
        assert derived == expected, variant
