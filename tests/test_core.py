"""Building, caching and loading the compiled simulator core."""

import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest

from memloc import _core

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture
def source(tmp_path, monkeypatch):
    """A private copy of the core's source, and a count of compiler runs."""
    path = tmp_path / "pkg" / "_core.c"
    path.parent.mkdir()
    path.write_bytes(_core._SOURCE.read_bytes())
    monkeypatch.setattr(_core, "_SOURCE", path)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    compiles = []
    real_run = subprocess.run

    def run(cmd, **kw):
        compiles.append(cmd)
        return real_run(cmd, **kw)
    monkeypatch.setattr(subprocess, "run", run)
    _core.load.cache_clear()
    yield path, compiles
    _core.load.cache_clear()


def _loaded() -> Path:
    _core.load.cache_clear()
    lib = _core.load()
    assert lib is not None
    return Path(lib._name)


def test_a_second_load_uses_the_cached_build(source):
    path, compiles = source
    first = _loaded()
    assert first.parent == path.parent / "__pycache__"
    assert len(compiles) == 1
    assert _loaded() == first
    assert len(compiles) == 1
    assert [p.name for p in first.parent.iterdir()] == [first.name]  # no temporaries left


def test_an_edited_source_is_rebuilt(source):
    path, compiles = source
    first = _loaded()
    path.write_bytes(path.read_bytes() + b"/* edited */\n")
    second = _loaded()
    assert len(compiles) == 2
    assert second != first and second.exists()


def test_an_unwritable_cache_falls_back_to_a_private_temp_dir(source):
    path, compiles = source
    (path.parent / "__pycache__").write_text("not a directory")
    lib = _loaded()
    private = Path(tempfile.gettempdir()) / f"memloc-{os.getuid()}"
    assert lib.parent == private
    assert private.stat().st_mode & 0o777 == 0o700
    assert _loaded() == lib and len(compiles) == 1


def test_a_failed_build_warns_and_returns_none(source):
    path, compiles = source
    path.write_text("this is not C\n")
    with pytest.warns(RuntimeWarning, match="compiler failed"):
        assert _core.load() is None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _core.load() is None  # cached: no second compile, no second warning
    assert caught == []
    assert len(compiles) == 1
    assert list((path.parent / "__pycache__").iterdir()) == []


def test_importing_memloc_builds_nothing():
    code = ("import memloc.cli, memloc.pipeline\n"
            "from memloc import _core\n"
            "assert _core.load.cache_info().currsize == 0\n")
    src = Path(_core.__file__).parent.parent
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": str(src)})
