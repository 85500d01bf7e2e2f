"""Campaign orchestration: fault-tolerant parallel sweeps.

Three pieces:

* :mod:`.supervisor` — :class:`CampaignSupervisor` fans simulation
  points out to worker processes with per-task wall-clock timeouts and
  crash isolation; a dying worker marks the task failed, never the
  campaign.
* :mod:`.retry` — :class:`RetryPolicy`: exponential backoff for worker
  crashes and timeouts, the only failures a retry can change; time is
  injectable via :class:`Clock` / :class:`FakeClock` so tests never
  sleep.
* :mod:`.manifest` — :class:`CampaignManifest`: a schema-versioned
  JSON record of per-task status/attempts/durations written with
  atomic renames, so an interrupted campaign resumes by skipping
  completed tasks and re-queuing in-flight ones.

The experiments CLI (``repro-experiments <id> --jobs N``) drives the
Table 4 / Fig 12-14 grids and the ``all`` sweep through this layer;
``--jobs 1`` (the default) stays serial and byte-identical.
"""

from .manifest import (
    COMPLETED,
    FAILED,
    MANIFEST_MAGIC,
    MANIFEST_VERSION,
    PENDING,
    RUNNING,
    CampaignManifest,
    TaskRecord,
)
from .retry import DEFAULT_RETRYABLE, Clock, FakeClock, RetryPolicy
from .supervisor import (
    SKIPPED,
    CampaignReport,
    CampaignSupervisor,
    CampaignTask,
    TaskOutcome,
)

__all__ = [
    "COMPLETED",
    "Clock",
    "CampaignManifest",
    "CampaignReport",
    "CampaignSupervisor",
    "CampaignTask",
    "DEFAULT_RETRYABLE",
    "FAILED",
    "FakeClock",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "PENDING",
    "RUNNING",
    "RetryPolicy",
    "SKIPPED",
    "TaskOutcome",
    "TaskRecord",
]
