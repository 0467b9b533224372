"""Row-permutation and access-order transformations for locality.

Data-layout reorderings (first-touch, recursive coordinate bisection,
Hilbert, Z-order) return a permutation ``map`` with
``map[new_position] = old_index``.  Computation reorderings permute the
access or query order instead of the rows themselves.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import _core
from .kdtree import feature_matrix, median_bisect
from .sfc import QuantizerConfig, quantize_rows
from .traceio import PAGE_SIZE

DEFAULT_SFC_BITS = 10
DEFAULT_BLOCK_WINDOW = 4096
_PAGE_SHIFT = PAGE_SIZE.bit_length() - 1  # byte -> page number


def check_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    perm = np.asarray(perm, dtype=np.int64)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError("not a bijection on [0, n)")
    return perm


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def reorder_first_touch(inspected, n: int) -> np.ndarray:
    """Order rows by first occurrence in the inspected access sequence.

    Rows never touched are appended in ascending original order.  The
    compiled core does both in one pass over the sequence and one over
    the rows (memloc_first_touch), with no sort.
    """
    inspected = np.ascontiguousarray(inspected, dtype=np.int64).ravel()
    if inspected.size and (inspected.min() < 0 or inspected.max() >= n):
        raise ValueError("access index out of range")
    order = np.empty(n, dtype=np.int64)
    _core.load().memloc_first_touch(len(inspected), inspected, len(order), order)
    return order


def reorder_rcb(data: np.ndarray, leaf_size: int) -> np.ndarray:
    """Recursive coordinate bisection.

    Splits at the lower median of the dimension with the largest spread
    (ties go to the lowest dimension index) until partitions have at
    most `leaf_size` points.  Splits are stable on equal keys.
    """
    data = feature_matrix(data)
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    # A leaf size past n leaves the one partition whole, and fits in int64.
    return median_bisect(data, int(min(leaf_size, len(data))), rcb=True)


def reorder_sfc(data: np.ndarray, curve: str, bits: int = DEFAULT_SFC_BITS) -> np.ndarray:
    """Stable sort of rows by ascending space-filling-curve index,
    quantizing with the dataset's own min/max bounds.

    The compiled core quantizes the rows (memloc_quantize), then encodes
    them and radix-sorts their codes in one call (memloc_sfc)."""
    if curve not in ("hilbert", "zorder"):
        raise ValueError(f"unknown curve {curve!r}")
    data = feature_matrix(data)
    # numpy reduces a narrow row-major matrix along axis 0 a row at a
    # time; the transposed copy reduces each axis in one contiguous run.
    axes = data.T.copy()
    cfg = QuantizerConfig(data.shape[1], bits, axes.min(axis=1), axes.max(axis=1))
    grid = quantize_rows(data, cfg)
    words = np.empty((-(-cfg.code_bits // 64), len(grid)), dtype=np.uint64)
    order = np.empty(len(grid), dtype=np.int64)
    _core.load().memloc_sfc(len(grid), cfg.dims, grid, bits, curve == "hilbert", words, order)
    return order


def reorder_queries_zorder(queries: np.ndarray, bits: int = DEFAULT_SFC_BITS) -> np.ndarray:
    """Permute query order by ascending Morton code (stable)."""
    return reorder_sfc(queries, "zorder", bits)


def block_by_page(seq, row_stride_bytes: int, window: int = DEFAULT_BLOCK_WINDOW) -> np.ndarray:
    """Group accesses by OS page inside consecutive windows.

    Within each window of `window` accesses, accesses are stably grouped
    by the page of their row's first byte, pages ordered by first
    appearance (memloc_block, in one pass per window).  The matrix starts
    on a page boundary (AddressModel), so that page is
    row * row_stride_bytes // PAGE_SIZE, which the core computes from
    each row, and that byte must lie in [-2**63, 2**63).  The multiset of
    accesses is preserved.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if not 1 <= row_stride_bytes < 2**63:
        raise ValueError("row_stride_bytes must be >= 1 and below 2**63")
    seq = np.asarray(seq, dtype=np.int64).ravel()
    if not len(seq):
        return seq.copy()
    lo, hi = int(seq.min()) * row_stride_bytes, int(seq.max()) * row_stride_bytes
    if lo < -2**63 or hi >= 2**63:  # int64 would wrap them onto other pages
        raise ValueError(f"rows start at bytes {lo} to {hi}, outside [-2**63, 2**63)")
    out = np.empty_like(seq)
    _core.load().memloc_block(len(seq), seq, row_stride_bytes, _PAGE_SHIFT,
                              min(window, len(seq)), out)
    return out


def apply_permutation(data: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Gather rows: output row i is input row perm[i]."""
    data = np.asarray(data)
    perm = check_permutation(perm, data.shape[0])
    return data[perm]


def save_permutation(path, perm: np.ndarray):
    """Two-column CSV (new_position,old_index) with a header, CRLF lines."""
    perm = np.asarray(perm, dtype=np.int64)
    np.savetxt(path, np.column_stack([np.arange(len(perm)), perm]), fmt="%d",
               delimiter=",", newline="\r\n", header="new_position,old_index",
               comments="")


def load_permutation(path) -> np.ndarray:
    """Inverse of :func:`save_permutation`; the header line is optional."""
    lines = Path(path).read_text().splitlines()
    if lines and not lines[0][:1].isdigit():
        lines = lines[1:]
    body = (np.loadtxt(lines, dtype=np.int64, delimiter=",", ndmin=2) if lines
            else np.empty((0, 2), dtype=np.int64))
    perm = np.full(len(body), -1, dtype=np.int64)
    perm[body[:, 0]] = body[:, 1]
    return check_permutation(perm, len(body))


def save_dataset(path, data: np.ndarray):
    """Raw little-endian float64 rows plus a JSON sidecar with n and m."""
    data = np.ascontiguousarray(data, dtype="<f8")
    Path(path).write_bytes(data.tobytes())
    meta = {"n": int(data.shape[0]), "m": int(data.shape[1])}
    Path(str(path) + ".json").write_text(json.dumps(meta))


def load_dataset(path) -> np.ndarray:
    meta = json.loads(Path(str(path) + ".json").read_text())
    raw = np.frombuffer(Path(path).read_bytes(), dtype="<f8")
    return raw.reshape(meta["n"], meta["m"]).copy()
