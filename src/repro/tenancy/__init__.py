"""Multi-tenant translation domains over the on-chip controller.

See :mod:`repro.tenancy.simulator` for the composition; the pieces:

* :mod:`~repro.tenancy.domain` — tenant specs, page windows, registry;
* :mod:`~repro.tenancy.scheduler` — trace interleaving front-end;
* :mod:`~repro.tenancy.qos` — on-package capacity partitioning;
* :mod:`~repro.tenancy.isolation` — cross-tenant data-flow oracle;
* :mod:`~repro.tenancy.metrics` — per-tenant attribution.
"""

from .domain import TenantDomain, TenantRegistry, TenantSpec
from .isolation import (
    HYPERVISOR,
    UNWRITTEN,
    CrossTenantViolation,
    IsolationOracle,
)
from .metrics import TenantMetrics
from .qos import ProportionalSharePolicy
from .scheduler import AdmitEvent, ChunkEvent, DepartEvent, TenantScheduler
from .simulator import MultiTenantSimulator

__all__ = [
    "AdmitEvent",
    "ChunkEvent",
    "CrossTenantViolation",
    "DepartEvent",
    "HYPERVISOR",
    "IsolationOracle",
    "MultiTenantSimulator",
    "ProportionalSharePolicy",
    "TenantDomain",
    "TenantMetrics",
    "TenantRegistry",
    "TenantScheduler",
    "TenantSpec",
    "UNWRITTEN",
]
