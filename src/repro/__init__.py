"""repro — heterogeneous main memory with on-chip memory controller support.

A full reproduction of Dong, Xie, Muralimanohar & Jouppi, *"Simple but
Effective Heterogeneous Main Memory with On-Chip Memory Controller
Support"* (SC 2010): the second-level address translation table, the
N / N-1 / Live Migration hottest-coldest swap algorithms, the
heterogeneity-aware memory controller, and every substrate the
evaluation needs (DDR3 timing with FR-FCFS, the L1-L3 hierarchy and the
tags-in-DRAM L4 cache model, synthetic workload traces, power model).

Quickstart::

    import repro
    from repro.workloads.registry import generate_trace

    cfg = repro.paper_config(algorithm="live", macro_page_bytes=repro.MB)
    system = repro.HeterogeneousMainMemory(cfg)
    result = system.run(generate_trace("pgbench", 500_000))
    print(f"avg latency {result.average_latency:.0f} cycles, "
          f"{result.onpkg_fraction:.0%} served on-package")

``HeterogeneousMainMemory`` is a second name for ``EpochSimulator``;
checkpoints go through ``save_checkpoint`` / ``load_checkpoint``.
"""

from .config import (
    BusConfig,
    CacheHierarchyConfig,
    CacheLevelConfig,
    DramTiming,
    LatencyComponents,
    MigrationAlgorithm,
    MigrationConfig,
    PowerConfig,
    ResilienceConfig,
    SystemConfig,
    paper_config,
    scaled_config,
)
from .address import AddressMap
from .core import (
    BaselineKind,
    DetailedSimulator,
    EpochSimulator,
    HeterogeneousMainMemory,
    SimulationResult,
    baseline_latency,
    effectiveness,
)
from .campaign import (
    CampaignManifest,
    CampaignReport,
    CampaignSupervisor,
    CampaignTask,
    RetryPolicy,
)
from .datamodel import DataViolation, ShadowMemory
from .errors import (
    CampaignError,
    CheckpointError,
    FaultInjectionError,
    ReproError,
    SwapAbortError,
    TaskCrashError,
    TaskTimeoutError,
    TenancyError,
    WatchdogError,
)
from .tenancy import (
    CrossTenantViolation,
    IsolationOracle,
    MultiTenantSimulator,
    ProportionalSharePolicy,
    TenantDomain,
    TenantMetrics,
    TenantRegistry,
    TenantScheduler,
    TenantSpec,
)
from .resilience import (
    DegradationEvent,
    FaultKind,
    FaultPlan,
    load_checkpoint,
    run_resumable,
    save_checkpoint,
)
from .units import GB, KB, MB

__version__ = "1.0.0"

__all__ = [
    "AddressMap",
    "BaselineKind",
    "BusConfig",
    "CacheHierarchyConfig",
    "CacheLevelConfig",
    "CampaignError",
    "CampaignManifest",
    "CampaignReport",
    "CampaignSupervisor",
    "CampaignTask",
    "CheckpointError",
    "CrossTenantViolation",
    "DataViolation",
    "DegradationEvent",
    "DetailedSimulator",
    "DramTiming",
    "EpochSimulator",
    "FaultInjectionError",
    "FaultKind",
    "FaultPlan",
    "GB",
    "HeterogeneousMainMemory",
    "IsolationOracle",
    "KB",
    "LatencyComponents",
    "MB",
    "MigrationAlgorithm",
    "MigrationConfig",
    "MultiTenantSimulator",
    "PowerConfig",
    "ProportionalSharePolicy",
    "ReproError",
    "ResilienceConfig",
    "RetryPolicy",
    "ShadowMemory",
    "SimulationResult",
    "SwapAbortError",
    "SystemConfig",
    "TaskCrashError",
    "TaskTimeoutError",
    "TenancyError",
    "TenantDomain",
    "TenantMetrics",
    "TenantRegistry",
    "TenantScheduler",
    "TenantSpec",
    "WatchdogError",
    "baseline_latency",
    "effectiveness",
    "load_checkpoint",
    "paper_config",
    "run_resumable",
    "save_checkpoint",
    "scaled_config",
]
