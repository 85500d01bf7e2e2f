"""Building, caching and loading the compiled kernel.

The kernel is compiled once per source hash into a per-user cache
(``$XDG_CACHE_HOME/repro``). These tests point that cache at a
temporary directory, in this process or in fresh interpreters.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.dram import kernel
from repro.errors import KernelBuildError, ReproError

#: the directory holding the ``repro`` package, wherever it is installed
PACKAGE_ROOT = str(Path(repro.__file__).resolve().parents[1])

#: import the package, serve a few accesses through one device and a
#: two-region flush through the controller, and check a read that
#: follows a write through the shadow's pass
SMOKE = """
import numpy as np
from repro import scaled_config
from repro.analysis.protocol import model_address_map
from repro.config import offpkg_dram_timing
from repro.datamodel import ShadowMemory
from repro.dram import DramGeometry, FastDevice
from repro.memctrl.heterogeneous import ONE_EPOCH, HeterogeneousController
from repro.migration.table import TranslationTable
lat = FastDevice(DramGeometry(offpkg_dram_timing())).service(
    np.arange(64, dtype=np.int64) * 64, np.arange(64, dtype=np.int64))
assert (lat > 0).all()
ctrl = HeterogeneousController(scaled_config())
on = np.arange(64) % 2 == 0
machine = np.where(on, 0, ctrl.amap.n_onpkg_pages)
times = np.arange(64, dtype=np.int64)
lat = ctrl.service_resolved(on, machine, times * 64, times, ONE_EPOCH, 0 * times)
assert (lat > 0).all()
for model in (ctrl.onpkg_model, ctrl.offpkg_model):
    assert model.device.row_hits + model.device.row_conflicts == 32
table = TranslationTable(model_address_map())
shadow = ShadowMemory(table)
kind, machine = table.location(5)
shadow.feed(np.arange(2), np.full(2, 5), np.ones(2, dtype=np.int64),
            np.full(2, kind == "slot"), np.full(2, machine), np.array([True, False]))
shadow.process()
assert (shadow.reads, shadow.writes, shadow.violations) == (1, 1, [])
print("served")
"""

#: report the error an import raises, with its class hierarchy
IMPORT_ERROR = """
import sys
try:
    import repro
except Exception as exc:
    print(*[c.__name__ for c in type(exc).__mro__])
    print(getattr(exc, "stderr", ""))
    sys.exit(3)
print("imported")
"""


def _python(code: str, cache: Path, **env: str) -> subprocess.Popen:
    """Start a fresh interpreter on ``code`` with the kernel cache at ``cache``."""
    full = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": PACKAGE_ROOT, **env}
    return subprocess.Popen(
        [sys.executable, "-c", code], env=full, cwd=str(cache),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc: subprocess.Popen) -> subprocess.CompletedProcess:
    out, err = proc.communicate(timeout=120)
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _cached(cache: Path) -> list[str]:
    return sorted(p.name for p in (cache / "repro").iterdir())


class TestBuild:
    def test_builds_once_then_loads_from_cache(self, tmp_path):
        target = kernel.build(tmp_path, kernel.compiler())
        assert target == kernel.library_path(tmp_path)
        stamp = target.stat().st_mtime_ns
        # a compiler that cannot run proves the second call never calls one
        assert kernel.build(tmp_path, ["/nonexistent/cc"]) == target
        assert target.stat().st_mtime_ns == stamp
        lib = kernel.load(target)
        assert lib.flush_regions is not None and lib.shadow_pass is not None
        # one FIFO loop: the per-region pass it replaced is gone
        assert not hasattr(lib, "fifo_service")
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_missing_compiler_raises_typed_error(self, tmp_path):
        with pytest.raises(KernelBuildError, match="cannot run the C compiler") as info:
            kernel.build(tmp_path, ["/nonexistent/cc"])
        assert isinstance(info.value, ReproError)
        assert info.value.stderr
        assert list(tmp_path.iterdir()) == []  # no half-written library left

    def test_failed_compile_carries_stderr(self, tmp_path):
        cc = [*kernel.compiler(), "--no-such-compiler-option"]
        with pytest.raises(KernelBuildError, match="failed") as info:
            kernel.build(tmp_path, cc)
        assert "no-such-compiler-option" in info.value.stderr
        assert list(tmp_path.iterdir()) == []

    def test_cache_key_covers_the_source(self, tmp_path, monkeypatch):
        edited = tmp_path / "fifo_kernel.c"
        edited.write_text(kernel.SOURCE.read_text() + "\n/* edited */\n")
        before = kernel.library_path(tmp_path)
        monkeypatch.setattr(kernel, "SOURCE", edited)
        assert kernel.library_path(tmp_path) != before


class TestFreshProcess:
    def test_second_import_does_not_compile(self, tmp_path):
        first = _finish(_python(SMOKE, tmp_path))
        assert first.returncode == 0, first.stderr
        built = _cached(tmp_path)
        assert len(built) == 1 and built[0].endswith(".so")
        again = _finish(_python(SMOKE, tmp_path, CC="/nonexistent/cc"))
        assert again.returncode == 0, again.stderr
        assert _cached(tmp_path) == built

    def test_concurrent_builds_both_load(self, tmp_path):
        procs = [_python(SMOKE, tmp_path) for _ in range(2)]
        for result in map(_finish, procs):
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip() == "served"
        built = _cached(tmp_path)
        assert len(built) == 1, built  # one library, no leftover temporaries

    def test_missing_compiler_fails_the_import(self, tmp_path):
        result = _finish(_python(IMPORT_ERROR, tmp_path, CC="/nonexistent/cc"))
        assert result.returncode == 3, result.stdout + result.stderr
        classes = result.stdout.splitlines()[0].split()
        assert classes[:2] == ["KernelBuildError", "ReproError"]
        assert "/nonexistent/cc" in result.stdout
