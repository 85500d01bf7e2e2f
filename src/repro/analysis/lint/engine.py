"""The lint runner: walk files, run rules, report findings.

``run_lint`` is the single entry point the CLI and tests share. It
returns a :class:`LintReport`; the exit-code policy (fail on any
finding or parse error) lives here so CI and local runs can never
disagree.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ...errors import AnalysisError
from .core import RULES, FileContext, Finding, LintRule

#: directories never descended into
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", "build"}


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            out.add(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in _SKIP_DIRS)
                for name in files:
                    if name.endswith(".py"):
                        out.add(os.path.join(root, name))
        else:
            raise AnalysisError(f"no such file or directory: {path}")
    return sorted(out)


def _relpath(path: str, root: str | None) -> str:
    rel = os.path.relpath(path, root) if root else path
    return rel.replace(os.sep, "/")


def resolve_rules(select: list[str] | None = None) -> list[type[LintRule]]:
    """The rule classes to run: every registered rule, or only ``select``."""
    unknown = sorted(set(select or ()) - set(RULES))
    if unknown:
        raise AnalysisError(
            f"unknown rule {unknown[0]!r}; available: {', '.join(sorted(RULES))}"
        )
    return [RULES[n] for n in sorted(select or RULES)]


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    parse_errors: list[tuple[str, str]] = field(default_factory=list)
    n_files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.parse_errors else 0

    def format_text(self) -> str:
        lines = [f.format() for f in sorted(
            self.findings, key=lambda f: (f.path, f.line, f.rule)
        )]
        for path, message in self.parse_errors:
            lines.append(f"{path}:1:1: error [parse] {message}")
        lines.append(
            f"repro-lint: {self.n_files} files, {len(self.findings)} "
            f"finding(s), {len(self.parse_errors)} parse error(s)"
        )
        return "\n".join(lines)


def lint_file(
    path: str,
    rules: list[type[LintRule]],
    *,
    root: str | None = None,
    source: str | None = None,
) -> list[Finding]:
    """Run ``rules`` over one file; returns (possibly empty) findings."""
    rel = _relpath(path, root)
    if source is None:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    ctx = FileContext.parse(rel, source)
    findings: list[Finding] = []
    for rule_cls in rules:
        if rule_cls.applies_to(rel):
            findings.extend(rule_cls(ctx).run())
    return findings


def run_lint(paths: list[str], *, root: str | None = None) -> LintReport:
    """Run every registered rule over ``paths`` (files or directories)."""
    rules = resolve_rules()
    report = LintReport()
    for path in iter_python_files(paths):
        report.n_files += 1
        try:
            report.findings.extend(lint_file(path, rules, root=root))
        except SyntaxError as exc:
            report.parse_errors.append((_relpath(path, root), str(exc)))
    return report
