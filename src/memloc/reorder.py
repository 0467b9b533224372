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

from .sfc import QuantizerConfig, encode, quantize_rows
from .traceio import PAGE_SIZE

DEFAULT_SFC_BITS = 10
DEFAULT_BLOCK_WINDOW = 4096


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

    Rows never touched are appended in ascending original order.
    """
    inspected = np.asarray(inspected, dtype=np.int64).ravel()
    if inspected.size and (inspected.min() < 0 or inspected.max() >= n):
        raise ValueError("access index out of range")
    touched, first = np.unique(inspected, return_index=True)
    seen = np.zeros(n, dtype=bool)
    seen[touched] = True
    return np.concatenate([touched[np.argsort(first)], np.flatnonzero(~seen)])


def reorder_rcb(data: np.ndarray, leaf_size: int) -> np.ndarray:
    """Recursive coordinate bisection.

    Splits at the lower median of the dimension with the largest spread
    (ties go to the lowest dimension index) until partitions have at
    most `leaf_size` points.  Splits are stable on equal keys.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (n, m) array")
    if leaf_size < 1:
        raise ValueError("leaf_size must be >= 1")
    if not np.isfinite(data).all():
        raise ValueError("data holds NaN or infinite values")

    out = []

    def split(idx: np.ndarray):
        if len(idx) <= leaf_size:
            out.append(idx)
            return
        pts = data[idx]
        spread = pts.max(axis=0) - pts.min(axis=0)
        axis = int(np.argmax(spread))
        order = np.argsort(pts[:, axis], kind="stable")
        left = (len(idx) + 1) // 2
        split(idx[order[:left]])
        split(idx[order[left:]])

    split(np.arange(data.shape[0], dtype=np.int64))
    return np.concatenate(out)


def reorder_sfc(data: np.ndarray, curve: str, bits: int = DEFAULT_SFC_BITS) -> np.ndarray:
    """Stable sort of rows by ascending space-filling-curve index,
    quantizing with the dataset's own min/max bounds."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValueError("dataset must be a non-empty (n, m) array")
    cfg = QuantizerConfig(data.shape[1], bits, data.min(axis=0), data.max(axis=0))
    # lexsort takes its last key as the primary one: the top code word.
    return np.lexsort(encode(list(quantize_rows(data, cfg).T), bits, curve))


def reorder_queries_zorder(queries: np.ndarray, bits: int = DEFAULT_SFC_BITS) -> np.ndarray:
    """Permute query order by ascending Morton code (stable)."""
    return reorder_sfc(queries, "zorder", bits)


def block_by_page(seq, row_stride_bytes: int, window: int = DEFAULT_BLOCK_WINDOW) -> np.ndarray:
    """Group accesses by OS page inside consecutive windows.

    Within each window of `window` accesses, accesses are stably grouped
    by the page of their row's first byte, pages ordered by first
    appearance.  The matrix starts on a page boundary (AddressModel), so
    that page is row * row_stride_bytes // PAGE_SIZE.  The multiset of
    accesses is preserved.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    seq = np.asarray(seq, dtype=np.int64).ravel()
    if not len(seq):
        return seq.copy()
    pages = (seq * row_stride_bytes) // PAGE_SIZE
    # Sort by (window, page), keeping index order inside each group ...
    order = np.lexsort((pages, np.arange(len(seq)) // window))
    s_pages, s_windows = pages[order], order // window
    starts = np.flatnonzero(np.concatenate(
        [[True], (s_pages[1:] != s_pages[:-1]) | (s_windows[1:] != s_windows[:-1])]))
    # ... then order the groups by their first index, which also orders windows.
    first = np.repeat(order[starts], np.diff(np.append(starts, len(seq))))
    return seq[order[np.argsort(first, kind="stable")]]


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
