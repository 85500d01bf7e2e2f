"""Blocking-core IPC model over the cache hierarchy (Fig 5).

Cycles = instructions x base CPI + memory references x (AMAT - L1 hit
time). The model only needs *relative* IPC across memory organisations,
which is what Fig 5 plots (IPC improvement over the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.hierarchy import CacheHierarchy
from ..cache.stackdist import StackDistanceProfile
from ..config import CacheHierarchyConfig
from ..errors import ConfigError
from ..trace.record import TraceChunk
from .amat import (
    FixedLatencies,
    MemoryOrganization,
    amat_for_organization,
    static_lowaddr_fraction,
)


@dataclass(frozen=True)
class IpcResult:
    """IPC of one workload under one memory organisation."""

    organization: MemoryOrganization
    ipc: float
    amat_cycles: float
    memory_latency: float

    def improvement_over(self, baseline: "IpcResult") -> float:
        """Relative IPC gain (the Fig 5 y-axis)."""
        return self.ipc / baseline.ipc - 1.0


class IpcModel:
    """Price a reference stream under the four memory organisations."""

    def __init__(
        self,
        caches: CacheHierarchyConfig | None = None,
        *,
        onpkg_capacity_bytes: int,
        base_cpi: float = 1.0,
        refs_per_instruction: float = 0.3,
        latencies: FixedLatencies | None = None,
    ):
        if not 0 < refs_per_instruction <= 1:
            raise ConfigError("refs_per_instruction must be in (0, 1]")
        self.caches = caches or CacheHierarchyConfig()
        self.hierarchy = CacheHierarchy(self.caches)
        self.onpkg_capacity_bytes = onpkg_capacity_bytes
        self.base_cpi = base_cpi
        self.refs_per_instruction = refs_per_instruction
        self.latencies = latencies or FixedLatencies.from_components()

    def evaluate(
        self,
        trace: TraceChunk,
        org: MemoryOrganization,
        profile: StackDistanceProfile | None = None,
    ) -> IpcResult:
        if profile is None:
            profile = StackDistanceProfile(trace.addr, self.caches.l3.line_bytes)
        l3_c = self.caches.l3.capacity_bytes
        kwargs = {}
        if org is MemoryOrganization.STATIC_ONPKG:
            kwargs["lowaddr_onpkg_fraction"] = static_lowaddr_fraction(
                trace.addr, profile, l3_c, self.onpkg_capacity_bytes
            )
        mem_latency = amat_for_organization(
            org,
            profile,
            onpkg_capacity_bytes=self.onpkg_capacity_bytes,
            l3_capacity_bytes=l3_c,
            latencies=self.latencies,
            **kwargs,
        )
        amat = self.hierarchy.amat_cycles(profile, mem_latency)
        # stalls beyond the pipelined L1 hit
        stall_per_ref = max(0.0, amat - self.caches.l1.latency_cycles)
        cpi = self.base_cpi + self.refs_per_instruction * stall_per_ref
        return IpcResult(
            organization=org, ipc=1.0 / cpi, amat_cycles=amat, memory_latency=mem_latency
        )

    def compare_all(self, trace: TraceChunk) -> dict[MemoryOrganization, IpcResult]:
        profile = StackDistanceProfile(trace.addr, self.caches.l3.line_bytes)
        return {org: self.evaluate(trace, org, profile) for org in MemoryOrganization}
