"""``repro-lint``: determinism / state-safety lint engine.

Rule plugins live in :mod:`repro.analysis.lint.rules`; the visitor
framework in :mod:`~repro.analysis.lint.core`; the file walker and runner in
:mod:`~repro.analysis.lint.engine`.
"""

from .core import RULES, FileContext, Finding, LintRule, Severity, register
from .engine import LintReport, lint_file, resolve_rules, run_lint
from . import rules as _rules  # noqa: F401  (import registers the rules)
from ..domains import rule as _domains_rule  # noqa: F401  (registers domain-confusion)

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "Severity",
    "lint_file",
    "register",
    "resolve_rules",
    "run_lint",
]
