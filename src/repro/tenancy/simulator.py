"""Multi-tenant front-end over one :class:`EpochSimulator`.

One shared simulator (one controller, one translation table, one
migration engine) serves many tenant workloads:

1. the :class:`~repro.tenancy.scheduler.TenantScheduler` interleaves
   the tenant traces into a tagged quantum stream;
2. each tenant's chunks are rewritten into its
   :class:`~repro.tenancy.domain.TenantDomain` window and fed to the
   shared simulator (fused fast path and all);
3. an optional :class:`~repro.tenancy.qos.ProportionalSharePolicy`
   hangs off the migration engine and partitions the on-package slots;
4. an :class:`~repro.tenancy.isolation.IsolationOracle` watches every
   translated chunk for cross-tenant data flow;
5. tenant departures reclaim translation state via the engine's
   ``release_tenant`` path — deferred to a quiescent chunk boundary
   when a swap is in flight — and return the page window to the
   registry for later arrivals.

A single tenant degenerates to the plain simulator: zero-base window
(chunks untouched), zero time shift, structurally neutral QoS — the
run is bit-identical to ``EpochSimulator.run`` on the same trace, and
``tests/test_tenancy.py`` pins that.
"""

from __future__ import annotations

import numpy as np

from ..config import SystemConfig
from ..core.simulator import EpochSimulator, SimulationResult
from ..errors import TenancyError
from ..trace.record import TraceChunk
from .domain import TenantRegistry, TenantSpec
from .isolation import IsolationOracle
from .metrics import TenantMetrics
from .qos import ProportionalSharePolicy
from .scheduler import AdmitEvent, ChunkEvent, DepartEvent, TenantScheduler


class MultiTenantSimulator:
    """Schedule, translate and attribute many tenant workloads."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        policy: ProportionalSharePolicy | None = None,
        fused: bool = True,
        track_data: bool = False,
        solo_baselines: bool = False,
    ):
        self.config = config
        self._fused = fused
        self.sim = EpochSimulator(config, fused=fused, track_data=track_data)
        self.registry = TenantRegistry(self.sim.table)
        self.scheduler = TenantScheduler(config.migration.swap_interval)
        self.policy = policy
        if policy is not None:
            policy.bind(self.registry, self.sim.table)
            self.sim.engine.qos = policy
        self.oracle = IsolationOracle(self.sim.table.amap)
        self.solo_baselines = solo_baselines
        self.metrics: dict[int, TenantMetrics] = {}
        self.domains = {}
        self._traces: dict[int, TraceChunk] = {}
        #: departures waiting for a quiescent boundary to reclaim
        self._pending_release: list[tuple[int, np.ndarray]] = []
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def table(self):
        return self.sim.table

    @property
    def engine(self):
        return self.sim.engine

    @property
    def violations(self):
        """Cross-tenant violations recorded by the isolation oracle."""
        return self.oracle.violations

    def add_tenant(self, spec: TenantSpec, trace: TraceChunk) -> None:
        self.scheduler.add(spec, trace)
        self._traces[spec.tenant_id] = trace

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        if self._ran:
            raise TenancyError("MultiTenantSimulator.run is one-shot")
        self._ran = True
        result = SimulationResult()
        for event in self.scheduler.schedule():
            if isinstance(event, AdmitEvent):
                self._admit(event)
            elif isinstance(event, ChunkEvent):
                self._feed(event, result)
            else:
                self._depart(event)
        self._drain_releases(force=True)
        if self.solo_baselines:
            self._run_solo_baselines()
        result.tenants = self.metrics
        return result

    # ------------------------------------------------------------------
    def _admit(self, event: AdmitEvent) -> None:
        if self._pending_release:
            # the arrival may need a window a departed tenant still
            # holds: settle reclamation first
            self._drain_releases(force=True)
        domain = self.registry.admit(event.spec)
        self.domains[event.tenant_id] = domain
        self.metrics[event.tenant_id] = TenantMetrics(
            tenant_id=event.tenant_id,
            name=event.spec.name,
            arrived_epoch=event.epoch,
        )

    def _feed(self, event: ChunkEvent, result: SimulationResult) -> None:
        domain = self.domains[event.tenant_id]
        chunk = domain.translate(event.chunk)
        self.oracle.observe(event.tenant_id, chunk)
        engine = self.sim.engine
        # the chunk's share of the run totals, boundary cycles included
        before = (result.n_accesses, result.total_latency,
                  result.onpkg_accesses, result.offpkg_accesses)
        swaps0 = engine.swaps_triggered
        migrated0 = engine.migrated_bytes
        self.sim.run_into(chunk, result)
        m = self.metrics[event.tenant_id]
        m.accesses += result.n_accesses - before[0]
        m.total_latency += result.total_latency - before[1]
        m.onpkg_accesses += result.onpkg_accesses - before[2]
        m.offpkg_accesses += result.offpkg_accesses - before[3]
        m.swaps_triggered += engine.swaps_triggered - swaps0
        m.migrated_bytes += engine.migrated_bytes - migrated0
        m.chunks += 1
        m.consumed = event.consumed
        self._drain_releases()

    def _depart(self, event: DepartEvent) -> None:
        domain = self.domains.pop(event.tenant_id)
        self.metrics[event.tenant_id].departed_epoch = event.epoch
        self._pending_release.append((event.tenant_id, domain.pages))
        self._drain_releases()

    def _drain_releases(self, force: bool = False) -> None:
        """Reclaim departed tenants' translation state when quiescent.

        ``release_tenant`` refuses to run mid-swap (P/F bits live), so
        departures queue until a chunk boundary finds the engine idle.
        ``force`` (end of run, or an arrival that needs the window)
        instead waits the in-flight window out by dating the release at
        its end time.
        """
        engine = self.sim.engine
        while self._pending_release:
            now = self.sim._last_time + 1 if self.sim._epoch_index else 0
            if engine.active is not None and engine.active.in_flight(now):
                if not force:
                    return
                now = engine.active.end
            tenant_id, pages = self._pending_release[0]
            engine.release_tenant(now, pages)
            self.oracle.scrub(pages)
            self.registry.release(tenant_id)
            self._pending_release.pop(0)

    def _run_solo_baselines(self) -> None:
        """Re-run each tenant's consumed trace prefix alone (fresh
        simulator, same config) to anchor slowdown/interference."""
        for tenant_id, m in self.metrics.items():
            prefix = self._traces[tenant_id][: m.consumed]
            if len(prefix) == 0:
                continue
            solo = EpochSimulator(self.config, fused=self._fused)
            m.solo_average_latency = solo.run(prefix).average_latency
