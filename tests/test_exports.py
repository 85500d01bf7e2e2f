"""Every name a ``repro`` package exports in ``__all__`` resolves, and
every test, dotted ``repro.*`` name and ``repro/…/*.py`` path the sources
and docs name exists."""

import importlib
import itertools
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
#: a dotted module/attribute path such as ``repro.trace.stream.iter_chunks``
DOTTED_REF = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
#: files whose prose names tests and objects (history files such as
#: CHANGES.md name tests and modules that were later deleted on purpose)
PROSE_SOURCES = ["docs/**/*.md", "README.md", "DESIGN.md", "EXPERIMENTS.md"]
DOC_SOURCES = ["src/**/*.py", *PROSE_SOURCES]
#: a source path such as ``repro/memctrl/{heterogeneous,foo}.py``
PATH_REF = re.compile(r"(?<![\w.])repro/[\w/{},]*\.py")


def _references(pattern, split, sources=DOC_SOURCES):
    """``(file, parts)`` for every ``pattern`` match in the doc sources,
    the match split into its parts by the ``split`` regex."""
    refs = set()
    for glob in sources:
        for path in sorted(REPO.glob(glob)):
            for match in pattern.finditer(path.read_text(encoding="utf-8")):
                parts = re.split(split, match.group(0))
                refs.add((path.relative_to(REPO).as_posix(), tuple(parts)))
    return sorted(refs)


def _resolves(parts):
    """Import the longest importable module prefix, then walk attributes."""
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_named_objects_resolve():
    """Every dotted ``repro.*`` module, class or function a doc names exists."""
    refs = _references(DOTTED_REF, r"\.")
    assert refs, "the reference pattern matched nothing"
    dangling = [
        f"{where}: {'.'.join(parts)}" for where, parts in refs if not _resolves(parts)
    ]
    assert not dangling, "docs name missing objects:\n" + "\n".join(dangling)


def test_named_tests_exist():
    """Every test file, class and test a docstring or doc names exists."""
    refs = _references(TEST_REF, r"::\s*")
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


def _expand_braces(path):
    """``a/{b,c}.py`` -> ``["a/b.py", "a/c.py"]``, every brace group."""
    pieces = re.split(r"\{([^}]*)\}", path)
    # odd-indexed pieces are the groups' contents
    choices = [p.split(",") if i % 2 else [p] for i, p in enumerate(pieces)]
    return ["".join(combo) for combo in itertools.product(*choices)]


def test_named_source_paths_exist():
    """Every ``repro/…/*.py`` path the prose docs name exists."""
    # split on a pattern that never matches: each path stays whole
    refs = _references(PATH_REF, r"(?!)", PROSE_SOURCES)
    assert refs, "the path pattern matched nothing"
    dangling = [
        f"{where}: {path}"
        for where, (named,) in refs
        for path in _expand_braces(named)
        if not (REPO / "src" / path).is_file()
    ]
    assert not dangling, "docs name missing source files:\n" + "\n".join(dangling)
