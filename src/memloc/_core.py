"""Build and load the compiled core, ``_core.c``, on first use.

The library is compiled with the system C compiler into
``__pycache__/`` beside the source (or a per-user temporary directory
when that is not writable), under a name keyed by the SHA-256 of the
source, the compiler command and the platform, so an edited source is
rebuilt and an unchanged one is only loaded.  A build in ``__pycache__/``
removes the older builds there.  The core is memloc's only
kd-tree build and walk, recursive coordinate bisection, first-touch
order, decision-tree induction, SFC quantiser and row order, page
blocking, prefetch injection, cache filter and DRAM scheduler, so memloc
needs a C compiler (``cc``): when the core cannot be built or loaded,
:func:`load` raises OSError.

Every core function takes int64s, doubles and C-contiguous numpy
arrays, writes its results into arrays its caller allocated, and
returns an int64.  A negative return means the core ran out of memory
for its own scratch space; the loaded functions raise
MemoryError("<function>: out of memory") for it, so callers check
nothing.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_core.c")
# No FMA contraction: a kd-tree d2 is the plain left-to-right float64 sum,
# and a grid coordinate rounds (x - lo) / span * top before adding 0.5.
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


def _array(dtype):
    return np.ctypeslib.ndpointer(dtype=dtype, flags="C_CONTIGUOUS")


_I64, _U8, _U64, _F64 = ctypes.c_int64, _array(np.uint8), _array(np.uint64), _array(np.float64)
_SIGNATURES = {
    "memloc_bisect": [_I64, _I64, _F64, _array(np.int64), _I64, _I64],
    "memloc_kdtree": [_I64, _I64, _F64, _array(np.int64), _I64, _F64, _I64, ctypes.c_double,
                      _F64, _I64, _I64, _array(np.int64), _array(np.int64)],
    "memloc_dtree": [_I64, _I64, _F64, _I64, _array(np.int64), _I64, _I64, _array(np.int64),
                     _array(np.int64)],
    "memloc_filter": [_I64, _U64, _I64, _U8, _U8, _array(np.int64), _array(np.int64),
                      *[_I64] * 5, _array(np.int64)],
    "memloc_simulate": [_I64, _U64, _array(np.uint32), *[_I64] * 11, _array(np.int64), _U8,
                        _U64],
    "memloc_quantize": [_I64, _I64, _F64, _F64, _F64, ctypes.c_double, ctypes.c_double, _U64],
    "memloc_sfc": [_I64, _I64, _U64, _I64, _I64, _U64, _array(np.int64)],
    "memloc_inject": [_I64, _U64, _array(np.uint32), _U8, _I64, _I64, _I64, _U64,
                      _array(np.uint32), _U8],
    "memloc_block": [_I64, *[_array(np.int64)] * 2, _I64, _array(np.int64)],
    "memloc_first_touch": [_I64, _array(np.int64), _I64, _array(np.int64)],
}


def _check(result, func, args):
    """The errcheck of every core function: a negative return means the
    core ran out of memory."""
    if result < 0:
        raise MemoryError(f"{func.__name__}: out of memory")
    return result


def _cache_dirs():
    yield _SOURCE.parent / "__pycache__"
    private = Path(tempfile.gettempdir()) / f"memloc-{os.getuid()}"
    private.mkdir(mode=0o700, exist_ok=True)
    if private.stat().st_uid == os.getuid():  # never load another user's build
        yield private


def _build() -> Path:
    """Path of the compiled library, compiling it if no cache holds it."""
    source = _SOURCE.read_bytes()
    tag = "\0".join([*_COMPILE, sysconfig.get_platform()]).encode()
    name = f"_core-{hashlib.sha256(source + tag).hexdigest()[:16]}.so"
    for directory in _cache_dirs():
        lib = directory / name
        if lib.exists():
            return lib
        try:
            directory.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        except OSError:
            continue
        os.close(fd)
        import subprocess  # only a build needs it, so a cached load stays cheap
        try:
            done = subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)],
                                  capture_output=True, text=True)
            if done.returncode:
                raise OSError(f"compiler failed: {done.stderr.strip()[:200]}")
            os.chmod(tmp, 0o755)
            os.replace(tmp, lib)  # atomic: concurrent workers never see a partial file
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        if directory == _SOURCE.parent / "__pycache__":  # other checkouts share the temp dir
            for stale in directory.glob("_core-*.so"):
                if stale != lib:
                    stale.unlink(missing_ok=True)  # a process that loaded it keeps its mapping
        return lib
    raise OSError("no writable directory for the compiled core")


@functools.cache
def _open():
    """The library, or the OSError that kept it from loading: one try per process."""
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as e:
        return OSError(f"the compiled simulator core could not be built or loaded ({e}); "
                       "memloc needs a C compiler (cc)")
    for fn, argtypes in _SIGNATURES.items():
        getattr(lib, fn).argtypes = argtypes
        getattr(lib, fn).restype = ctypes.c_int64
        getattr(lib, fn).errcheck = _check
    return lib


def load():
    """The compiled core as a ctypes library; OSError when it cannot be built."""
    lib = _open()
    if isinstance(lib, OSError):
        raise lib.with_traceback(None)  # drop the last raise's frames
    return lib


def prepare() -> None:
    """Build or load the core now, so that a timer started after this
    call times none of that.  A core that cannot be built raises
    nothing here: :func:`load` raises its OSError in the stage that
    needs the core."""
    _open()
