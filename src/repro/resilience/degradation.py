"""Structured degradation events and the quarantine bookkeeping.

When the resilience machinery corrects, retries, or gives up on a
fault, it records a :class:`DegradationEvent` instead of printing or
raising. A campaign driver inspects the event stream afterwards: every
injected fault must be accounted for here (acceptance criterion of the
fault-campaign suite), and a quarantined run can be distinguished from
a clean one without diffing latencies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass


#: canonical event kinds (free-form strings are allowed, these are the
#: ones the built-in machinery emits)
SWAP_FAILED = "swap-failed"
ABORT_RECOVERED = "abort-recovered"
AUDIT_FAILED = "audit-failed"
TABLE_REPAIRED = "table-repaired"
MIGRATION_QUARANTINED = "migration-quarantined"
DRAM_CORRECTED = "dram-corrected"
DRAM_UNCORRECTABLE = "dram-uncorrectable"
FRAME_RETIRED = "frame-retired"
RETIREMENT_SUPPRESSED = "retirement-suppressed"
VICTIM_REFRESHED = "victim-refreshed"
HAMMER_THROTTLED = "hammer-throttled"
ROW_DISTURB_FLIPS = "row-disturb-flips"


@dataclass(frozen=True)
class DegradationEvent:
    """One recovered-or-surfaced fault in a simulation run.

    ``time`` is the simulation cycle of the epoch boundary where the
    event was observed; ``epoch`` the running epoch index. ``recovered``
    is True when the system corrected or contained the fault and kept
    serving, False when functionality was permanently reduced (e.g. an
    uncorrectable DRAM error or the migration engine quarantining).
    """

    time: int
    epoch: int
    kind: str
    detail: str
    recovered: bool = True


def summarize_events(events: list[DegradationEvent]) -> dict[str, int]:
    """Event count per kind (for reports and campaign assertions)."""
    return dict(Counter(e.kind for e in events))
