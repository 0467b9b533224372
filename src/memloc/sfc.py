"""Space-filling-curve codecs over a quantized d-dimensional grid.

Morton (Z-order) codes interleave coordinate bits with dimension 0 in
the least significant bit of each d-bit group.  Hilbert codes use the
Gray-code transpose construction, so consecutive indices always differ
by exactly 1 in exactly one coordinate.  Codes may be up to 128 bits
wide.  One encoder and one decoder serve both curves, on Python ints
of any width (the scalar API) or uint64 columns.

The row path runs in the compiled core: quantize_rows is its
memloc_quantize, and reorder.reorder_sfc encodes and orders the rows
with memloc_sfc, in the same bit layout as `encode`, which the tests
hold it to.  The core is loaded on the first call, not on import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _core

MAX_CODE_BITS = 128
MAX_GRID_BITS = 64  # grid coordinates are uint64
_WORD_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class QuantizerConfig:
    """Grid geometry: d dimensions, b bits each, with per-dimension bounds."""

    dims: int
    bits: int
    lo: tuple = ()
    hi: tuple = ()

    def __post_init__(self):
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.bits < 1:
            raise ValueError("bits must be >= 1")
        if self.dims * self.bits > MAX_CODE_BITS:
            raise ValueError(
                f"dims*bits = {self.dims * self.bits} exceeds the "
                f"{MAX_CODE_BITS}-bit code budget; reduce bits"
            )
        lo = tuple(self.lo) if len(self.lo) else (0.0,) * self.dims
        hi = tuple(self.hi) if len(self.hi) else (1.0,) * self.dims
        if len(lo) != self.dims or len(hi) != self.dims:
            raise ValueError("lo/hi must have length dims")
        for l, h in zip(lo, hi):
            if not (math.isfinite(l) and math.isfinite(h)):
                raise ValueError("lo/hi must be finite")
            if h < l:
                raise ValueError("hi must be >= lo in every dimension")
            if not math.isfinite(float(h) - float(l)):
                raise ValueError("hi - lo must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def grid_side(self) -> int:
        return 1 << self.bits

    @property
    def code_bits(self) -> int:
        return self.dims * self.bits


def quantize(point, cfg: QuantizerConfig):
    """Map a real point to integer grid coordinates in [0, 2^b).

    Round-half-up affine scaling, clamped to the grid.  A degenerate
    dimension (hi == lo) maps to coordinate 0.
    """
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (cfg.dims,):
        raise ValueError(f"expected a length-{cfg.dims} point, got shape {point.shape}")
    return tuple(int(v) for v in quantize_rows(point[None], cfg)[0])


def quantize_rows(data: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Vectorized quantize over an (n, d) array; returns (n, d) uint64.

    The compiled core's memloc_quantize does the arithmetic."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != cfg.dims:
        raise ValueError(f"expected an (n, {cfg.dims}) array")
    if not np.isfinite(data).all():
        raise ValueError("data holds NaN or infinite values")
    if cfg.bits > MAX_GRID_BITS:
        raise ValueError(f"bits = {cfg.bits} exceeds the {MAX_GRID_BITS}-bit grid columns")
    lo = np.array(cfg.lo, dtype=np.float64)
    span = np.array(cfg.hi, dtype=np.float64) - lo
    top = float(cfg.grid_side - 1)
    # Above 53 bits float64 rounds `top` up to 2^bits: clip below that.
    ceiling = min(top, np.nextafter(float(cfg.grid_side), 0))
    out = np.empty(data.shape, dtype=np.uint64)
    _core.load().memloc_quantize(len(data), cfg.dims, data, lo, span, top, ceiling, out)
    return out


def _exchange(x: list, i: int, k: int):
    """Skilling's inner step without branches: if bit k of axis i is set,
    invert the low k bits of axis 0, else swap them with axis i's."""
    p = (1 << k) - 1
    high = x[i] >> k & 1
    t = (x[0] ^ x[i]) & p * (1 - high)
    x[0] = x[0] ^ (p * high | t)
    x[i] = x[i] ^ t


def _axes_to_transpose(x: list, bits: int) -> list:
    x = list(x)  # Gray-code transpose form (Skilling 2004) of a copy
    for k in range(bits - 1, 0, -1):
        for i in range(len(x)):
            _exchange(x, i, k)
    for i in range(1, len(x)):
        x[i] = x[i] ^ x[i - 1]
    t = 0
    for k in range(bits - 1, 0, -1):
        t = t ^ ((1 << k) - 1) * (x[-1] >> k & 1)
    return [c ^ t for c in x]


def _transpose_to_axes(x: list, bits: int) -> list:
    t = x[-1] >> 1
    for i in range(len(x) - 1, 0, -1):
        x[i] = x[i] ^ x[i - 1]
    x[0] = x[0] ^ t
    for k in range(1, bits):
        for i in range(len(x) - 1, -1, -1):
            _exchange(x, i, k)
    return x


@lru_cache(maxsize=None)
def _layout(dims: int, bits: int, curve: str) -> tuple:
    """(axis j, bit k, word, shift) of every code bit: bit k of axis j is
    code bit k*d + j (Morton) or k*d + (d-1-j) (Hilbert, of the transpose)."""
    if curve not in ("hilbert", "zorder"):
        raise ValueError(f"unknown curve {curve!r}")
    lanes = range(dims) if curve == "zorder" else range(dims - 1, -1, -1)
    return tuple((j, k, *divmod(k * dims + lane, 64))
                 for j, lane in enumerate(lanes) for k in range(bits))


def encode(axes: list, bits: int, curve: str) -> list:
    """64-bit code words, least significant first, of d grid coordinates:
    Python ints (exact at any width), or uint64 columns for many rows."""
    x = _axes_to_transpose(axes, bits) if curve == "hilbert" else axes
    words = [0 * x[0] for _ in range(-(-len(x) * bits // 64))]  # int or uint64 zeros
    for j, k, w, s in _layout(len(x), bits, curve):
        words[w] |= (x[j] >> k & 1) << s
    return words


def decode(words: list, dims: int, bits: int, curve: str) -> list:
    """Inverse of :func:`encode`: the d coordinates of the code words."""
    x = [0 * words[0] for _ in range(dims)]
    for j, k, w, s in _layout(dims, bits, curve):
        x[j] |= (words[w] >> s & 1) << k
    return _transpose_to_axes(x, bits) if curve == "hilbert" else x


def _code(coords, cfg: QuantizerConfig, curve: str) -> int:
    if len(coords) != cfg.dims:
        raise ValueError(f"expected {cfg.dims} coordinates, got {len(coords)}")
    for c in coords:
        if not 0 <= c < cfg.grid_side:
            raise ValueError(f"coordinate {c} outside [0, {cfg.grid_side})")
    words = encode([int(c) for c in coords], cfg.bits, curve)
    return sum(w << 64 * i for i, w in enumerate(words))


def _coords(code: int, cfg: QuantizerConfig, curve: str) -> tuple:
    if not 0 <= code < (1 << cfg.code_bits):
        raise ValueError(f"code {code} outside [0, 2^{cfg.code_bits})")
    words = [code >> 64 * i & _WORD_MASK for i in range(-(-cfg.code_bits // 64))]
    return tuple(decode(words, cfg.dims, cfg.bits, curve))


def morton_encode(coords, cfg: QuantizerConfig) -> int:
    """Bit-interleave grid coordinates; dim 0 is the LSB of each group."""
    return _code(coords, cfg, "zorder")


def morton_decode(code: int, cfg: QuantizerConfig):
    """Inverse of :func:`morton_encode`."""
    return _coords(code, cfg, "zorder")


def hilbert_encode(coords, cfg: QuantizerConfig) -> int:
    """Hilbert index of a grid point (canonical orientation).

    For d=2, b=1 the cell order is (0,0), (0,1), (1,1), (1,0).
    """
    return _code(coords, cfg, "hilbert")


def hilbert_decode(code: int, cfg: QuantizerConfig):
    """Inverse of :func:`hilbert_encode`."""
    return _coords(code, cfg, "hilbert")
