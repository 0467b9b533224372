"""The grid of the space-filling-curve layouts: a d-dimensional grid of
b bits per axis and its quantiser.

Morton (Z-order) codes interleave coordinate bits with dimension 0 in
the least significant bit of each d-bit group.  Hilbert codes use
Skilling's Gray-code transpose (AIP Conf. Proc. 707, 2004), so
consecutive indices always differ by exactly 1 in exactly one
coordinate.  Codes may be up to 128 bits wide.

Both run in the compiled core: quantize_rows is its memloc_quantize, and
reorder.reorder_sfc encodes and orders the rows with memloc_sfc, which
the tests hold to bit-loop oracles of both curves.  The core is loaded
on the first call, not on import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _core

MAX_CODE_BITS = 128
MAX_GRID_BITS = 64  # grid coordinates are uint64


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

