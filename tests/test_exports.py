"""Every name a ``repro`` package exports in ``__all__`` resolves, and
every test the sources and docs name exists."""

import importlib
import pkgutil
import re
from pathlib import Path

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


REPO = Path(__file__).resolve().parent.parent
#: ``tests/<file>.py`` with optional ``::Class::test`` parts, which may
#: wrap onto the next line after a ``::``
TEST_REF = re.compile(r"tests/[\w/]+\.py((?:::\s*\w+)*)")
#: files whose prose names tests (history files such as CHANGES.md name
#: tests that were later deleted on purpose)
DOC_SOURCES = ["src/**/*.py", "docs/**/*.md", "README.md", "DESIGN.md",
               "EXPERIMENTS.md"]


def _test_references():
    refs = set()
    for pattern in DOC_SOURCES:
        for path in sorted(REPO.glob(pattern)):
            for match in TEST_REF.finditer(path.read_text(encoding="utf-8")):
                parts = re.split(r"::\s*", match.group(0))
                refs.add((path.relative_to(REPO).as_posix(), tuple(parts)))
    return sorted(refs)


def test_named_tests_exist():
    """Every test file, class and test a docstring or doc names exists."""
    refs = _test_references()
    assert refs, "the reference pattern matched nothing"
    dangling = []
    for where, (test_file, *names) in refs:
        target = REPO / test_file
        source = target.read_text(encoding="utf-8") if target.is_file() else None
        if source is None or any(
            not re.search(rf"^\s*(class|def) {name}\b", source, re.MULTILINE)
            for name in names
        ):
            dangling.append(f"{where}: {'::'.join([test_file, *names])}")
    assert not dangling, "docs name missing tests:\n" + "\n".join(dangling)
