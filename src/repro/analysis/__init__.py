"""Static correctness tooling: ``repro-lint`` + protocol model checker.

Two independent prongs, one CLI (:mod:`repro.analysis.cli`):

* :mod:`repro.analysis.lint` — an AST lint engine with rules for the
  determinism and state-safety conventions this repository relies on
  (no wall-clock in simulation paths, no unseeded RNG, no float
  equality in metrics, no unordered iteration feeding results, no
  per-iteration copies in hot loops, no fork-unsafe module state, no
  over-broad excepts in the fault-handling layers), plus the
  flow-sensitive ``domain-confusion`` rule of
  :mod:`repro.analysis.domains` (useful vs wall cycles, page vs frame
  vs row vs byte vs sub-block);
* :mod:`repro.analysis.protocol` — an exhaustive symbolic model checker
  for the swap-protocol step sequences of all three migration designs
  (N, N-1, Live Migration), verifying the paper's no-halt claim at
  every step boundary, plus a fault-injection impact analysis mapping
  each :class:`~repro.resilience.faults.FaultKind` to the invariants it
  violates.
"""

from .lint import (  # noqa: F401
    FileContext,
    Finding,
    LintReport,
    LintRule,
    RULES,
    Severity,
    lint_file,
    run_lint,
)
from .protocol import (  # noqa: F401
    ALL_INVARIANTS,
    FaultImpact,
    VariantReport,
    Violation,
    check_all_variants,
    check_plan,
    check_variant,
    fault_invariant_analysis,
    model_address_map,
)

__all__ = [
    "ALL_INVARIANTS",
    "FaultImpact",
    "FileContext",
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "Severity",
    "VariantReport",
    "Violation",
    "check_all_variants",
    "check_plan",
    "check_variant",
    "fault_invariant_analysis",
    "lint_file",
    "model_address_map",
    "run_lint",
]
