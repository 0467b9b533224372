"""Space-filling-curve codecs over a quantized d-dimensional grid.

Morton (Z-order) codes interleave coordinate bits with dimension 0 in
the least significant bit of each d-bit group.  Hilbert codes use the
Gray-code transpose construction, so consecutive indices always differ
by exactly 1 in exactly one coordinate.  Codes are plain Python ints
and may be up to 128 bits wide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_CODE_BITS = 128


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
            if h < l:
                raise ValueError("hi must be >= lo in every dimension")
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
    """Vectorized quantize over an (n, d) array; returns (n, d) uint64."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != cfg.dims:
        raise ValueError(f"expected an (n, {cfg.dims}) array")
    lo = np.array(cfg.lo)
    hi = np.array(cfg.hi)
    span = hi - lo
    top = cfg.grid_side - 1
    out = np.zeros(data.shape, dtype=np.uint64)
    live = span > 0
    if live.any():
        scaled = np.floor((data[:, live] - lo[live]) / span[live] * top + 0.5)
        out[:, live] = np.clip(scaled, 0, top).astype(np.uint64)
    return out


def _check_coords(coords, cfg: QuantizerConfig):
    if len(coords) != cfg.dims:
        raise ValueError(f"expected {cfg.dims} coordinates, got {len(coords)}")
    side = cfg.grid_side
    for c in coords:
        if not 0 <= c < side:
            raise ValueError(f"coordinate {c} outside [0, {side})")


def _check_code(code: int, cfg: QuantizerConfig):
    if not 0 <= code < (1 << cfg.code_bits):
        raise ValueError(f"code {code} outside [0, 2^{cfg.code_bits})")


def morton_encode(coords, cfg: QuantizerConfig) -> int:
    """Bit-interleave grid coordinates; dim 0 is the LSB of each group."""
    _check_coords(coords, cfg)
    d, b = cfg.dims, cfg.bits
    code = 0
    for j, c in enumerate(coords):
        c = int(c)
        for k in range(b):
            if (c >> k) & 1:
                code |= 1 << (k * d + j)
    return code


def morton_decode(code: int, cfg: QuantizerConfig):
    """Inverse of :func:`morton_encode`."""
    _check_code(code, cfg)
    d, b = cfg.dims, cfg.bits
    coords = [0] * d
    for k in range(b):
        for j in range(d):
            if (code >> (k * d + j)) & 1:
                coords[j] |= 1 << k
    return tuple(coords)


def _axes_to_transpose(x: list, bits: int) -> list:
    # Gray-code transpose form (Skilling-style), in place.
    n = len(x)
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(n):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, n):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[n - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(n):
        x[i] ^= t
    return x


def _transpose_to_axes(x: list, bits: int) -> list:
    n = len(x)
    top = 2 << (bits - 1)
    t = x[n - 1] >> 1
    for i in range(n - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    while q != top:
        p = q - 1
        for i in range(n - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def hilbert_encode(coords, cfg: QuantizerConfig) -> int:
    """Hilbert index of a grid point (canonical orientation).

    For d=2, b=1 the cell order is (0,0), (0,1), (1,1), (1,0).
    """
    _check_coords(coords, cfg)
    d, b = cfg.dims, cfg.bits
    x = _axes_to_transpose([int(c) for c in coords], b)
    # Interleave transpose bits, axis 0 most significant within each group.
    code = 0
    for k in range(b - 1, -1, -1):
        for i in range(d):
            code = (code << 1) | ((x[i] >> k) & 1)
    return code


def hilbert_decode(code: int, cfg: QuantizerConfig):
    """Inverse of :func:`hilbert_encode`."""
    _check_code(code, cfg)
    d, b = cfg.dims, cfg.bits
    x = [0] * d
    pos = d * b
    for k in range(b - 1, -1, -1):
        for i in range(d):
            pos -= 1
            if (code >> pos) & 1:
                x[i] |= 1 << k
    return tuple(_transpose_to_axes(x, b))
