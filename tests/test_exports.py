"""Every name a ``repro`` package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro


def _packages_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [n for n in names if hasattr(importlib.import_module(n), "__all__")]


@pytest.mark.parametrize("package", _packages_with_all())
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    dangling = [name for name in module.__all__ if not hasattr(module, name)]
    assert not dangling, f"{package}.__all__ names missing attributes: {dangling}"
