"""Exception hierarchy for the ``repro`` package.

All library-raised errors derive from :class:`ReproError` so callers can
catch a single base class at the API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration object is inconsistent or out of range."""


class AddressError(ReproError):
    """An address is outside the configured physical space or misaligned."""


class TraceError(ReproError):
    """A trace file or trace chunk is malformed."""


class MigrationError(ReproError):
    """The migration state machine was driven into an illegal transition."""


class TranslationTableError(MigrationError):
    """The physical<->machine translation table invariants were violated."""


class SwapAbortError(MigrationError):
    """A swap plan aborted mid-execution (injected fault or torn update).

    Either way the engine copied every page the aborted plan displaced
    back home from a surviving duplicate and restored the table, so
    routing points at live data everywhere. ``recovered`` is True for an
    injected abort, which does not count toward quarantine; False for a
    torn table update (a table-level corruption), which does.
    """

    def __init__(self, message: str, *, recovered: bool = False):
        super().__init__(message)
        self.recovered = recovered


class SimulationError(ReproError):
    """A simulator was misused (e.g. fed records out of time order)."""


class WorkloadError(ReproError):
    """Unknown workload name or invalid workload parameters."""


class FaultInjectionError(ReproError):
    """A deliberately injected fault fired (aborted swap, flipped bit, ...).

    Raised only by the resilience subsystem's fault hooks; production code
    paths never raise it spontaneously. The migration engine converts it
    into a :class:`MigrationError` after rolling the table back, so a
    campaign sees structured degradation instead of a torn state.
    """


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from an unknown version.

    Covers bad magic, unsupported format versions, payload digest
    mismatches (bit rot / truncation) and attempts to restore state into
    a simulator built from an incompatible configuration.
    """


class CampaignError(ReproError):
    """A campaign (multi-task sweep) was misused or its manifest is bad.

    Raised for duplicate task ids, unknown manifest schema versions,
    and corrupt manifest files — never for an individual task failing;
    task failures are recorded in the campaign report instead.
    """


class TaskCrashError(CampaignError):
    """A campaign worker process died without reporting a result.

    Covers ``os._exit``, SIGKILL, OOM kills and interpreter aborts.
    Retryable by the default :class:`~repro.campaign.RetryPolicy`: a
    crash poisons only the attempt, not the campaign.
    """


class TaskTimeoutError(CampaignError):
    """A campaign task exceeded its wall-clock budget.

    Raised (and recorded) when a task blows its ``task_timeout``, busy
    or silent alike (a SIGSTOP'd worker included). The supervisor kills
    the worker; the task is retried per policy.
    """


class TenancyError(ReproError):
    """The multi-tenant layer was misused.

    Raised for admission failures (no contiguous page window left for
    the requested footprint), duplicate or unknown tenant ids, traces
    addressing outside the tenant's declared footprint, and QoS policy
    misconfiguration. Table-level reclamation failures keep raising
    :class:`TranslationTableError` — this class covers the layer above.
    """


class AnalysisError(ReproError):
    """Static-analysis tooling failure (repro-lint, protocol checker).

    Raised for unusable inputs — a missing lint path, an unknown rule
    name, a malformed swap plan handed to the model checker — never for findings or invariant violations, which are
    reported as data so callers can render counterexample traces.
    """


class KernelBuildError(ReproError):
    """The compiled DRAM kernel could not be built or loaded on import.

    ``stderr`` holds the compiler's diagnostics. There is no fallback.
    """

    def __init__(self, message: str, *, stderr: str = ""):
        super().__init__(message)
        self.stderr = stderr
