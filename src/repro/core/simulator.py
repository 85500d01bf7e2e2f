"""Epoch-driven trace simulation of the heterogeneous main memory.

The trace is consumed in epochs of ``swap_interval`` accesses (the
paper's swap-trigger unit). Within an epoch everything is vectorised:
translation via the table's dense mirrors, region split, per-region
DRAM service, with per-access-time overrides for the (at most one)
in-flight migration. At each epoch boundary the migration engine
evaluates the hottest-coldest trigger. DRAM service is flushed once per
chunk, or once per epoch when a boundary hook reads its result.

Resilience hooks (all governed by :class:`~repro.config.ResilienceConfig`
and off by default) run at the same boundary: seeded fault injection via
an attached :class:`~repro.resilience.faults.FaultPlan`, ECC handling of
transient DRAM errors, and periodic translation-table audits with
in-place repair. A checkpoint is the pickled simulator itself (see
:mod:`repro.resilience.checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..ras import DisturbReport, RasReport

from ..config import SystemConfig
from ..dram.refresh import RefreshSchedule
from ..errors import SimulationError, TranslationTableError
from ..memctrl.heterogeneous import ONE_EPOCH, HeterogeneousController
from ..migration.engine import MigrationEngine
from ..resilience.degradation import (
    AUDIT_FAILED,
    DRAM_CORRECTED,
    DRAM_UNCORRECTABLE,
    TABLE_REPAIRED,
    DegradationEvent,
)
from ..resilience.faults import EccModel, FaultKind, FaultPlan
from ..trace.record import TraceChunk
from ..trace.stream import aligned_chunk_size, iter_chunks
from ..units import log2_exact

#: accesses per view :meth:`EpochSimulator.run` simulates at a time
#: (rounded up to whole epochs): it bounds the epoch loop's per-chunk
#: arrays, so a run holds O(chunk) beyond the trace itself
RUN_CHUNK = 1 << 16


@dataclass
class SimulationResult:
    """Aggregate outcome of one simulation run."""

    n_accesses: int = 0
    total_latency: int = 0
    onpkg_accesses: int = 0
    offpkg_accesses: int = 0
    swaps_triggered: int = 0
    swaps_suppressed_busy: int = 0
    swaps_suppressed_cold: int = 0
    #: swaps a tenancy QoS capacity policy suppressed (every demotion
    #: candidate excluded)
    swaps_suppressed_qos: int = 0
    migrated_bytes: int = 0
    cross_boundary_migrated_bytes: int = 0
    #: per-epoch mean latency series (for convergence plots)
    epoch_latency: list[float] = field(default_factory=list)
    #: epochs flushed with their chunk in one segmented call vs one
    #: epoch at a time (every epoch lands in exactly one; the per-epoch
    #: flush is taken when a boundary hook reads serviced latency)
    fused_epochs: int = 0
    stepwise_epochs: int = 0
    #: row-buffer hit rates observed by each region's device
    onpkg_row_hit_rate: float = 0.0
    offpkg_row_hit_rate: float = 0.0
    #: wall-clock span of the simulated trace (for background power)
    duration_cycles: int = 0
    #: resilience bookkeeping (empty/zero unless faults were injected or
    #: a resilience mechanism fired)
    degradation_events: list[DegradationEvent] = field(default_factory=list)
    quarantined: bool = False
    faults_injected: int = 0
    dram_errors_corrected: int = 0
    dram_errors_retried: int = 0
    dram_errors_uncorrectable: int = 0
    #: demand reads that returned stale/garbage data per the shadow
    #: memory (always 0 unless the simulator ran with track_data=True)
    data_violations: int = 0
    #: RAS summary (None unless the run had ``RASConfig(enabled=True)``)
    ras: RasReport | None = None
    #: row-disturbance summary (None unless ``DisturbConfig(enabled=True)``)
    disturb: DisturbReport | None = None
    #: tenant_id -> TenantMetrics (None unless run by MultiTenantSimulator)
    tenants: dict | None = None

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.n_accesses if self.n_accesses else 0.0

    def tail_average_latency(self, fraction: float = 0.5) -> float:
        """Mean latency over the last ``fraction`` of epochs.

        The paper averages over runs long enough for migration to reach
        steady state; on scaled traces the converged tail is the
        comparable number (epochs carry equal access counts except the
        last, so an epoch-mean average is faithful).
        """
        if not self.epoch_latency:
            return self.average_latency
        k = max(1, int(len(self.epoch_latency) * fraction))
        tail = self.epoch_latency[-k:]
        return float(sum(tail) / len(tail))

    @property
    def onpkg_fraction(self) -> float:
        return self.onpkg_accesses / self.n_accesses if self.n_accesses else 0.0

    @property
    def offpkg_traffic_fraction(self) -> float:
        return 1.0 - self.onpkg_fraction


class EpochSimulator:
    """Vectorised trace-driven simulator (the workhorse)."""

    def __init__(self, config: SystemConfig, *, migrate: bool = True,
                 fused: bool = True, track_data: bool = False):
        self.config = config
        self.migrate = migrate
        self.controller = HeterogeneousController(
            config, translation_overhead=migrate
        )
        amap = config.address_map()
        self.engine = MigrationEngine(
            amap, config.migration, config.bus,
            resilience=config.resilience,
            reserved_pages=config.ras.reserved_pages(amap),
            # None unless the timing enables refresh: the engine prices
            # copy steps against each region's tRFC windows
            onpkg_refresh=RefreshSchedule.from_timing(config.onpkg_dram),
            offpkg_refresh=RefreshSchedule.from_timing(config.offpkg_dram),
        )
        #: runtime RAS orchestrator (None keeps the default path — and
        #: its import footprint — identical to a RAS-less build)
        self._ras = None
        if config.ras.enabled:
            from ..ras import RasController

            self._ras = RasController(config, self.engine, self.controller)
        #: row-disturbance orchestrator (None keeps the default path
        #: identical, like RAS)
        self._disturb = None
        if config.disturb.enabled:
            from ..ras.disturb import DisturbController

            self._disturb = DisturbController(
                config, self.engine, self.controller
            )
            self._disturb.ras = self._ras
        #: optional data-content shadow memory (pure bookkeeping: it
        #: never feeds back into routing or timing)
        self.shadow = None
        if track_data:
            # local import: datamodel depends on migration.table, and
            # keeping the default path import-free keeps startup identical
            from ..datamodel import ShadowMemory

            self.shadow = ShadowMemory(self.engine.table)
            self.engine.shadow = self.shadow
            if self._disturb is not None:
                self._disturb.shadow = self.shadow
        #: flush DRAM service once per epoch instead of once per chunk
        #: exactly when something at the epoch boundary reads serviced
        #: device state: RAS patrol scrubs and disturbance victim
        #: refreshes (both go through the devices). Both granularities
        #: are bit-identical; ``fused=False`` forces the per-epoch flush
        #: for equivalence tests and benchmarks.
        self._flush_per_epoch = (
            not fused
            or self._ras is not None
            or self._disturb is not None
        )
        self._sb_shift = log2_exact(config.migration.subblock_bytes)
        self._last_time = -(1 << 62)
        self._epoch_index = 0
        self._fault_plan: FaultPlan | None = None
        self._ecc = EccModel()
        self._events: list[DegradationEvent] = []
        self._faults_injected = 0

    def attach_faults(self, plan: FaultPlan) -> None:
        """Arm a seeded fault plan; epochs consult it at their boundary.

        The plan becomes part of the simulator's checkpointed state, so
        a resumed run keeps injecting the remaining scheduled faults.
        """
        self._fault_plan = plan

    @property
    def table(self):
        return self.engine.table

    @property
    def degradation_events(self) -> list[DegradationEvent]:
        """Every resilience event so far (engine + simulator), time-ordered."""
        return sorted(
            self.engine.degradation_events + self._events,
            key=lambda e: (e.time, e.epoch),
        )

    def run(self, trace: TraceChunk) -> SimulationResult:
        """Simulate a whole trace; may be called repeatedly with
        consecutive chunks of one long trace.

        The trace is simulated as epoch-aligned views of about
        :data:`RUN_CHUNK` accesses, so the result is bit-identical to one
        whole-trace chunk while memory above the trace stays O(chunk).
        Every view is checked before the first one is simulated, so a
        rejected trace leaves the simulator as it was.
        """
        size = aligned_chunk_size(RUN_CHUNK, self.config.migration.swap_interval)
        # an empty trace still passes through _advance once, which fills
        # the summary fields (row-hit rates, events, ...)
        views = list(iter_chunks(trace, size)) or [trace]
        last_time = self._last_time
        for view in views:
            self._check_chunk(view, last_time)
            if len(view):
                last_time = int(view.time[-1])
        result = SimulationResult()
        for view in views:
            self._advance(view, result)
        return result

    def run_stream(self, stream) -> SimulationResult:
        """Simulate a trace *stream* (any iterable of time-ordered
        :class:`TraceChunk`) — peak memory stays O(chunk), never
        O(trace).

        Epoch segmentation restarts at every chunk boundary, so the
        result is bit-identical to :meth:`run` on the concatenated trace
        exactly when every chunk except the last holds a multiple of
        ``swap_interval`` accesses (chunk boundaries == epoch
        boundaries); see :mod:`repro.trace.stream`. Each chunk is
        checked as it arrives: a rejected chunk leaves the simulator
        after the chunks before it.
        """
        result = SimulationResult()
        for chunk in stream:
            self.run_into(chunk, result)
        return result

    def run_into(self, trace: TraceChunk, result: SimulationResult) -> None:
        self._check_chunk(trace, self._last_time)
        self._advance(trace, result)

    def _check_chunk(self, trace: TraceChunk, last_time: int) -> None:
        """Reject a hostile chunk with a clear error before it changes
        any state, instead of a table-internal failure mid-translation."""
        if not len(trace):
            return
        t = trace.time
        if int(t[0]) < last_time:
            raise SimulationError("trace chunks must be fed in time order")
        self.controller.amap.check_addresses(trace.addr)
        reserved = self.engine.table.reserved_pages
        if reserved:
            pages = self.controller.amap.page_of(trace.addr)
            if np.isin(pages, np.fromiter(reserved, np.int64)).any():
                raise SimulationError(
                    "trace touches a reserved RAS spare page; spares "
                    "are controller-private and carry no program data"
                )
        if np.any(t[1:] < t[:-1]):
            # stalls only floor times to a common value, so this one check
            # covers every epoch's effective arrival times too
            raise SimulationError("chunk times must be non-decreasing")

    def _advance(self, trace: TraceChunk, result: SimulationResult) -> None:
        """Simulate one checked chunk into ``result``."""
        n = len(trace)
        # duration must not depend on where the trace was chunked: span
        # from the previous chunk's end (covering the inter-chunk gap)
        duration_ref = self._last_time if self._epoch_index else (
            int(trace.time[0]) if n else 0
        )
        if n:
            self._run_epochs(trace, result)
            result.duration_cycles += int(trace.time[-1]) - duration_ref
        result.swaps_suppressed_busy = self.engine.swaps_suppressed_busy
        result.swaps_suppressed_cold = self.engine.swaps_suppressed_cold
        result.swaps_suppressed_qos = self.engine.swaps_suppressed_qos
        result.migrated_bytes = self.engine.migrated_bytes
        result.cross_boundary_migrated_bytes = self.engine.cross_boundary_bytes
        result.onpkg_row_hit_rate = self.controller.onpkg_model.device.row_hit_rate
        result.offpkg_row_hit_rate = self.controller.offpkg_model.device.row_hit_rate
        result.degradation_events = self.degradation_events
        result.quarantined = self.engine.quarantined
        result.faults_injected = self._faults_injected
        if self.shadow is not None:
            self.shadow.process()
            result.data_violations = len(self.shadow.violations)
        if self._ras is not None:
            result.ras = self._ras.report()
        if self._disturb is not None:
            result.disturb = self._disturb.report()

    def _run_epochs(self, trace: TraceChunk, result: SimulationResult) -> None:
        """The epoch loop.

        Per epoch, in order: apply faults, expire the finished migration,
        translate and route every access (``resolve_into``), buffer it in
        the shadow memory (which checks the chunk in one pass at its
        end), charge the in-flight migration's stall or copy
        interference, run the boundary hooks (ECC, RAS, disturbance,
        audit) and let the migration engine observe the epoch and maybe
        swap.

        DRAM service flushes through
        :meth:`~repro.memctrl.heterogeneous.HeterogeneousController.service_resolved`
        either per epoch, before the boundary hooks, or once per chunk in
        one segmented call whose segments are the epoch boundaries (see
        ``_flush_per_epoch``). Either way the flush is one compiled pass
        over both regions (:func:`~repro.dram.kernel.flush_regions`). The
        two are bit-identical because latency never feeds back into
        control flow — trigger decisions depend only on address
        resolution, access times and monitor state — and that pass
        carries each region's queue state across segment ends exactly as
        one call per segment would.

        The loop steps by span: one epoch or, where the chunk flushes at
        once, no fault plan is attached, audits are off and migration is
        on, the longest run of epochs whose boundaries all fall inside
        the in-flight migration's window (``now < active.end``). That is
        exact: a busy boundary keeps nothing but slot recency, and the
        table is frozen while a migration is in flight. The flush and
        ``epoch_latency`` still segment by epoch; ``fused=False`` steps
        per epoch and is the oracle for spans.
        """
        interval = self.config.migration.swap_interval
        resilience = self.config.resilience
        controller = self.controller
        amap = controller.amap
        engine = self.engine
        per_epoch = self._flush_per_epoch
        n = len(trace)
        # whole-chunk precomputed arrays + flush buffers; epochs take views
        # (contiguous: the structured-array field views are strided)
        times_all = np.ascontiguousarray(trace.time)
        pages_all = amap.page_of(trace.addr)
        offsets_all = amap.offset_of(trace.addr)
        subblocks_all = offsets_all >> self._sb_shift
        writes_all = trace.rw != 0
        # effective arrival times: aliases times_all until a stall window
        # actually has to push accesses forward (N design only)
        eff_times = times_all
        on_all = np.empty(n, dtype=bool)
        machine_all = np.empty(n, dtype=np.int64)
        extra = np.zeros(n, dtype=np.int64)  # stall + interference cycles
        latency = np.empty(n, dtype=np.int64) if per_epoch else None
        # ECC/RAS/disturbance cycles: in the total, in no epoch's mean
        boundary_cycles = 0

        epoch_starts = np.arange(0, n, interval, dtype=np.int64)
        if per_epoch:
            result.stepwise_epochs += int(epoch_starts.shape[0])
        else:
            result.fused_epochs += int(epoch_starts.shape[0])
        # no boundary hook could act inside a busy span
        spans = (not per_epoch and self._fault_plan is None
                 and not resilience.audit_interval and self.migrate)
        start = 0
        while start < n:
            t0 = int(times_all[start])
            epoch_index = self._epoch_index
            pending_dram_errors = 0
            if self._fault_plan is not None:
                pending_dram_errors = self._apply_faults(epoch_index, t0, result)

            active = engine.active
            if active is not None and active.end <= t0:
                active = None  # finished before this epoch: mirrors suffice
            busy = 0  # epochs in this span, when all their boundaries are busy
            if spans and active is not None and not engine.quarantined:
                # a boundary (last time + 1) is busy while it is < end: the
                # first epoch that is not holds the first access >= end - 1
                first = int(np.searchsorted(times_all, active.end - 1))
                busy = (len(range(start, n, interval)) if first >= n
                        else max(first - start, 0) // interval)
            stop = min(start + max(busy, 1) * interval, n)
            self._epoch_index += max(busy, 1)

            tview = times_all[start:stop]
            pages = pages_all[start:stop]
            subblocks = subblocks_all[start:stop]
            writes = writes_all[start:stop]
            on = on_all[start:stop]
            machine = machine_all[start:stop]
            controller.resolve_into(
                pages, tview, subblocks, engine.table, active, on, machine
            )
            if self.shadow is not None:
                # checked at *original* access times: a stalled access
                # still reads whatever the location holds once the stall
                # window (during which data and routing flip together)
                # has drained; resolved once per chunk, below
                self.shadow.feed(tview, pages, subblocks, on, machine, writes)

            if active is not None:
                stalled = controller.migration_windows(
                    active, tview, on, extra[start:stop]
                )
                if stalled is not None:
                    if eff_times is times_all:
                        eff_times = times_all.copy()  # repro-lint: disable=hot-path-copy - copy-on-write, at most once per chunk
                    eff_times[start:stop][stalled] = active.end

            if per_epoch:
                latency[start:stop] = controller.service_resolved(
                    on, machine, offsets_all[start:stop],
                    eff_times[start:stop], ONE_EPOCH, extra[start:stop],
                )
            now = int(tview[-1]) + 1
            if pending_dram_errors:
                boundary_cycles += self._run_ecc(
                    pending_dram_errors, epoch_index, now, result
                )
            if self._ras is not None:
                # CE correction + patrol-scrub cycles count against this
                # epoch; a retirement's copy-out instead stalls subsequent
                # accesses via the engine
                boundary_cycles += self._ras.end_epoch(
                    epoch_index, now, machine=machine, on=on, writes=writes,
                    n_on=int(np.count_nonzero(on)), n_total=stop - start,
                )
            if self._disturb is not None:
                # activation folding + the mitigation ladder; victim
                # refreshes and throttling charge this epoch's cycles,
                # escalation rides the RAS/migration machinery instead
                boundary_cycles += self._disturb.end_epoch(
                    epoch_index, now, pages=pages, machine=machine, on=on,
                    offsets=offsets_all[start:stop],
                )

            if resilience.audit_interval and (
                (epoch_index + 1) % resilience.audit_interval == 0
            ):
                self._audit(epoch_index, now)

            if busy:
                engine.monitor.touch_slots(machine[on], tview[on])
                engine.record_busy(busy)
            elif self.migrate:
                if not engine.quarantined:
                    # on-package observations are per *slot*; slots ==
                    # machine page
                    on_idx = np.flatnonzero(on)
                    off_idx = np.flatnonzero(~on)
                    engine.observe_epoch(
                        slots=machine[on_idx],
                        slot_times=tview[on_idx],
                        offpkg_pages=pages[off_idx],
                        off_times=tview[off_idx],
                        off_subblocks=subblocks[off_idx],
                    )
                decision = engine.maybe_swap(now)
                if decision.triggered:
                    result.swaps_triggered += 1
            self._last_time = int(tview[-1])
            start = stop

        if not per_epoch:
            latency = controller.service_resolved(
                on_all, machine_all, offsets_all, eff_times, epoch_starts, extra,
            )
        n_on = int(np.count_nonzero(on_all))
        result.n_accesses += n
        result.total_latency += int(latency.sum()) + boundary_cycles
        result.onpkg_accesses += n_on
        result.offpkg_accesses += n - n_on
        # per-epoch means: int64 epoch sums stay far below 2**53, so the
        # float64 division matches np.mean on the per-epoch slice bitwise
        epoch_sums = np.add.reduceat(latency, epoch_starts)
        lens = np.diff(np.append(epoch_starts, n))
        result.epoch_latency.extend((epoch_sums / lens).tolist())

    # ------------------------------------------------------------------
    # resilience hooks
    # ------------------------------------------------------------------
    def _apply_faults(
        self, epoch_index: int, now: int, result: SimulationResult
    ) -> int:
        """Perturb the live system per the fault plan; returns the number
        of transient DRAM errors to charge to this epoch."""
        table = self.engine.table
        dram_errors = 0
        for ev in self._fault_plan.events_for_epoch(epoch_index):
            self._faults_injected += 1
            if ev.kind is FaultKind.ABORT_SWAP:
                self.engine.inject_abort(ev.param, subblocks=ev.subblocks)
            elif ev.kind is FaultKind.STUCK_P_BIT:
                table.set_pending(ev.param % table.n_slots, True)
            elif ev.kind is FaultKind.STUCK_F_BIT:
                # raw SEU behind the API: no fill is actually in progress
                table.f_bit[ev.param % table.n_slots] = True
            elif ev.kind is FaultKind.BITMAP_CORRUPTION:
                table.fill_bitmap[ev.param % table.fill_bitmap.shape[0]] = True
            elif ev.kind is FaultKind.DRAM_TRANSIENT:
                dram_errors += max(1, ev.param)
            elif ev.kind is FaultKind.CE_BURST:
                # without a RAS subsystem there is no CE telemetry to
                # perturb: the fault lands on absent hardware
                if self._ras is not None:
                    self._ras.inject_burst(ev.param)
            elif ev.kind is FaultKind.SCRUB_LATENT:
                if self._ras is not None:
                    self._ras.inject_latent(ev.param)
            elif ev.kind is FaultKind.ROW_DISTURB:
                # without a disturbance controller there is no activation
                # telemetry to perturb: the fault lands on absent hardware
                if self._disturb is not None:
                    self._disturb.inject_hammer(ev.param)
        return dram_errors

    def _run_ecc(
        self, n_errors: int, epoch_index: int, now: int,
        result: SimulationResult,
    ) -> int:
        """Push this epoch's transient DRAM errors through the ECC model;
        returns the extra cycles they cost."""
        rng = self._fault_plan.epoch_rng(epoch_index)
        outcome = self._ecc.run(n_errors, rng)
        result.dram_errors_corrected += outcome.corrected
        result.dram_errors_retried += outcome.retried
        result.dram_errors_uncorrectable += outcome.uncorrectable
        recovered = outcome.uncorrectable == 0
        self._events.append(
            DegradationEvent(
                time=now, epoch=epoch_index,
                kind=DRAM_CORRECTED if recovered else DRAM_UNCORRECTABLE,
                detail=(
                    f"{n_errors} transient DRAM errors: {outcome.corrected} "
                    f"corrected, {outcome.retried} recovered by retry, "
                    f"{outcome.uncorrectable} uncorrectable "
                    f"(+{outcome.extra_cycles} cycles)"
                ),
                recovered=recovered,
            )
        )
        return outcome.extra_cycles

    def _audit(self, epoch_index: int, now: int) -> None:
        """Periodic invariant sweep: detect corruption, repair in place,
        quarantine migration if the table cannot be made consistent."""
        table = self.engine.table
        try:
            table.audit()
            return
        except TranslationTableError as exc:
            failure = str(exc)
        self._events.append(
            DegradationEvent(
                time=now, epoch=epoch_index, kind=AUDIT_FAILED,
                detail=failure, recovered=True,
            )
        )
        try:
            fixes = table.repair()
            self._events.append(
                DegradationEvent(
                    time=now, epoch=epoch_index, kind=TABLE_REPAIRED,
                    detail="; ".join(fixes) if fixes else "no-op repair",
                    recovered=True,
                )
            )
        except TranslationTableError as exc:
            # structurally unrepairable: fall back to the static mapping
            self.engine.quarantine(now, f"unrepairable table: {exc}")
            return
        self.engine.note_audit_failure(now, failure)
