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

Every core function writes its results into arrays its caller
allocated and sized, and returns an int64.  :func:`load` binds each from
its definition in ``_core.c`` (in the style its header sets), the one
place its parameter types are written: an ``int64_t`` or ``double`` takes
a number, and a ``T *`` a C-contiguous array of T, writeable unless
``const``.  An array that does not fit raises TypeError before the call,
and a negative return, the core out of memory, MemoryError("<function>: out of memory").

An array's pointer is read through one buffer export,
``ctypes.addressof(ctypes.c_char.from_buffer(a))``, which itself demands
a writeable, C-contiguous array of at least one byte and costs about a
third of ``a.ctypes.data``.  The export is released before the call, so
the caller may resize the array in place between calls
(``KdTree.walk`` does).  Only a read-only array passed as ``const`` and
an empty array fall back to ``a.ctypes.data``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import re
import sysconfig
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

_SOURCE = Path(__file__).with_name("_core.c")
# No FMA contraction: a kd-tree d2 is the plain left-to-right float64 sum,
# and a grid coordinate rounds (x - lo) / span * top before adding 0.5.
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")


# The C types a parameter may have: a number's ctypes type, an array's element dtype.
_NUMBERS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double}
_ARRAYS = {"int64_t": np.dtype(np.int64), "uint64_t": np.dtype(np.uint64),
           "uint32_t": np.dtype(np.uint32), "uint8_t": np.dtype(np.uint8),
           "double": np.dtype(np.float64)}
_DEFINITION = re.compile(r"^int64_t (memloc_\w+)\(([^)]*)\)\s*\{", re.M)
_PARAMETER = re.compile(r"\s*(const )?(\w+) (\*?)(\w+)\s*")


class Param(NamedTuple):
    name: str
    ctype: type  # c_int64 or c_double for a number, c_void_p for an array
    dtype: np.dtype | None  # an array's elements
    writes: bool  # an array without const, which the function writes


def prototypes(source: str) -> dict:
    """{function: its Params} for each int64_t memloc_* function that the C
    source defines; TypeError for a parameter type the binding does not know."""
    found = {}
    for name, params in _DEFINITION.findall(source):
        found[name] = []
        for text in params.split(","):
            m = _PARAMETER.fullmatch(text)
            if not m or m[2] not in (_ARRAYS if m[3] else _NUMBERS):
                raise TypeError(f"{name}: the binding does not know the type of {text.strip()!r}")
            found[name].append(Param(m[4], ctypes.c_void_p, _ARRAYS[m[2]], not m[1]) if m[3]
                               else Param(m[4], _NUMBERS[m[2]], None, False))
    return found


def _bind(lib, name: str, params: list) -> None:
    """Set lib.<name> to the function that checks its array arguments and
    calls with their data pointers."""
    fn = getattr(lib, name)
    fn.argtypes, fn.restype = [p.ctype for p in params], ctypes.c_int64
    arrays = [(i, p) for i, p in enumerate(params) if p.dtype is not None]
    address, export = ctypes.addressof, ctypes.c_char.from_buffer

    def unfit(p):
        return TypeError(f"{name}: argument {p.name} must be a C-contiguous"
                         f"{' writeable' if p.writes else ''} {p.dtype} array")

    def call(*args):
        if len(args) != len(params):
            raise TypeError(f"{name} takes {len(params)} arguments, not {len(args)}")
        values = list(args)  # args keeps every array alive until fn returns
        for i, p in arrays:
            a = args[i]
            if not (isinstance(a, np.ndarray) and a.dtype == p.dtype):
                raise unfit(p)
            try:  # the export dies with the expression, so a caller may resize a between calls
                values[i] = address(export(a))
            except (TypeError, ValueError):  # read-only, not C-contiguous, or empty
                if not (a.flags.c_contiguous and (a.flags.writeable or not p.writes)):
                    raise unfit(p) from None
                values[i] = a.ctypes.data
        if (result := fn(*values)) < 0:
            raise MemoryError(f"{name}: out of memory")
        return result

    call.__name__ = name
    setattr(lib, name, call)


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
    bound = prototypes(_SOURCE.read_text())  # before a build: a bad prototype builds nothing
    try:
        lib = ctypes.CDLL(str(_build()))
    except OSError as e:
        return OSError(f"the compiled simulator core could not be built or loaded ({e}); "
                       "memloc needs a C compiler (cc)")
    for name, params in bound.items():
        _bind(lib, name, params)
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
