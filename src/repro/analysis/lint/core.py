"""Rule-plugin framework for ``repro-lint``.

A :class:`LintRule` is an :mod:`ast` visitor with a stable name, a
severity, and a path scope. Rules are registered with :func:`register`
and instantiated fresh per file by the engine, so they may keep
per-file state freely. There is no baseline of grandfathered findings:
every finding fails the run until it is fixed or suppressed inline.

Inline suppression: append ``# repro-lint: disable=RULE`` (or a
comma-separated list, or ``all``) to the offending line. Suppressions
are extracted with :mod:`tokenize` so comment-looking text inside
string literals never counts.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from enum import Enum

SUPPRESS_MARKER = "repro-lint:"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored at a source position."""

    rule: str
    severity: Severity
    path: str                 # repo-relative, forward slashes
    line: int                 # 1-based
    col: int                  # 0-based
    message: str
    #: optional step-indexed dataflow trace (one step per entry)
    trace: tuple[str, ...] = ()

    def format(self) -> str:
        head = (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.severity.value} [{self.rule}] {self.message}"
        )
        if not self.trace:
            return head
        return head + "\n  trace:\n    " + "\n    ".join(self.trace)


@dataclass
class FileContext:
    """Everything a rule may inspect about the file under analysis."""

    path: str                     # repo-relative, forward slashes
    source: str
    tree: ast.Module
    #: line -> set of rule names disabled there ("all" disables every rule)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree,
                   suppressions=extract_suppressions(source))

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.suppressions.get(line)
        if not rules:
            return False
        return "all" in rules or rule in rules


def extract_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule names disabled by an inline comment."""
    out: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            # the marker may follow other annotations ("# noqa ... # repro-lint: ...")
            pos = tok.string.find(SUPPRESS_MARKER)
            if pos < 0:
                continue
            directive = tok.string[pos + len(SUPPRESS_MARKER):].strip()
            if not directive.startswith("disable="):
                continue
            names = directive[len("disable="):]
            # allow trailing prose after the rule list: "disable=x,y - why"
            names = names.split(" ")[0]
            rules = {n.strip() for n in names.split(",") if n.strip()}
            if rules:
                out.setdefault(tok.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # unterminated constructs: ast.parse will fail first anyway
    return out


class LintRule(ast.NodeVisitor):
    """Base class for rules: visit the tree, call :meth:`report`.

    Subclasses set ``name`` (kebab-case, the suppression token),
    ``severity`` and ``description``. ``path_scope``, when non-empty,
    restricts the rule to files whose repo-relative path contains one of
    the substrings; ``path_exclude`` removes files the same way.
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    path_scope: tuple[str, ...] = ()
    path_exclude: tuple[str, ...] = ()

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.findings: list[Finding] = []

    @classmethod
    def applies_to(cls, path: str) -> bool:
        if any(part in path for part in cls.path_exclude):
            return False
        if cls.path_scope:
            return any(part in path for part in cls.path_scope)
        return True

    def run(self) -> list[Finding]:
        self.visit(self.ctx.tree)
        return self.findings

    def report(
        self,
        node: ast.AST,
        message: str,
        *,
        trace: tuple[str, ...] = (),
        severity: Severity | None = None,
    ) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.ctx.suppressed(self.name, line):
            return
        self.findings.append(
            Finding(
                rule=self.name,
                severity=severity if severity is not None else self.severity,
                path=self.ctx.path,
                line=line,
                col=col,
                message=message,
                trace=trace,
            )
        )


#: global rule registry, populated by the :func:`register` decorator
RULES: dict[str, type[LintRule]] = {}


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the registry (import-time)."""
    if not cls.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if cls.name in RULES:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    RULES[cls.name] = cls
    return cls


def dotted_call_name(node: ast.AST) -> str | None:
    """``a.b.c(...)`` -> ``"a.b.c"``; plain names -> ``"a"``; else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None
