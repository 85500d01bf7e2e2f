"""Resilience subsystem: fault injection, checkpoint/restore, degradation.

Four pillars:

* :mod:`.faults` — deterministic seeded fault injection (migration
  aborts, stuck table bits, bitmap corruption, transient DRAM errors
  with an ECC detect/correct/retry model, trace-file corruption
  helpers).
* :mod:`.checkpoint` — versioned, digest-verified checkpoint/restore of
  a whole campaign, plus the :func:`~.checkpoint.run_resumable` driver.
* :mod:`.degradation` — structured :class:`~.degradation.DegradationEvent`
  records emitted whenever a resilience mechanism fires (the engine's
  quarantine/static-mapping fallback lives in
  :mod:`repro.migration.engine`).
* invariant auditing — wired into
  :class:`repro.core.simulator.EpochSimulator` and
  :meth:`repro.migration.table.TranslationTable.audit`, configured by
  :class:`repro.config.ResilienceConfig`.
"""

from .checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointBundle,
    load_checkpoint,
    run_resumable,
    save_checkpoint,
)
from .degradation import (
    ABORT_RECOVERED,
    AUDIT_FAILED,
    DRAM_CORRECTED,
    DRAM_UNCORRECTABLE,
    FRAME_RETIRED,
    MIGRATION_QUARANTINED,
    RETIREMENT_SUPPRESSED,
    SWAP_FAILED,
    TABLE_REPAIRED,
    DegradationEvent,
    summarize_events,
)
from .faults import (
    CORE_FAULT_KINDS,
    EccModel,
    EccOutcome,
    FaultEvent,
    FaultKind,
    FaultPlan,
    corrupt_trace_file,
    truncate_trace_file,
)

__all__ = [
    "ABORT_RECOVERED",
    "AUDIT_FAILED",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CORE_FAULT_KINDS",
    "CheckpointBundle",
    "DegradationEvent",
    "DRAM_CORRECTED",
    "DRAM_UNCORRECTABLE",
    "EccModel",
    "EccOutcome",
    "FRAME_RETIRED",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "MIGRATION_QUARANTINED",
    "RETIREMENT_SUPPRESSED",
    "SWAP_FAILED",
    "TABLE_REPAIRED",
    "corrupt_trace_file",
    "load_checkpoint",
    "run_resumable",
    "save_checkpoint",
    "summarize_events",
    "truncate_trace_file",
]
