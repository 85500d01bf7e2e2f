"""The ``domain-confusion`` lint rule: the flow analysis on the chassis.

Rides the standard lint machinery — registered in :data:`RULES`, so
``repro-lint lint`` runs it with every other rule, and honors inline
``# repro-lint: disable=domain-confusion`` suppressions — and adds the
step-indexed dataflow trace of each confusion to the finding.

Severity policy: a confusion is an ``error`` only when *both* sides'
domains are at least annotation-confidence (declared signature or
inline annotation); when the weaker side is name-inferred the finding
is a ``warning``, because name vocabulary is a heuristic.
"""

from __future__ import annotations

from ..lint.core import LintRule, Severity, register
from .annotate import extract_annotations
from .interp import analyze_module
from .model import Confidence


@register
class DomainConfusionRule(LintRule):
    name = "domain-confusion"
    severity = Severity.WARNING
    description = (
        "flow-sensitive check that useful/wall cycle counts and "
        "page/frame/row/byte/subblock indices never mix in arithmetic, "
        "comparisons, returns, or argument passing"
    )
    path_exclude = ("tests/",)

    def run(self):
        annotations = extract_annotations(self.ctx.source)
        for confusion in analyze_module(self.ctx.tree, annotations):
            severity = (
                Severity.ERROR
                if confusion.confidence >= Confidence.ANNOTATED
                else Severity.WARNING
            )
            self.report(
                confusion.node,
                confusion.message,
                trace=confusion.trace,
                severity=severity,
            )
        return self.findings
