"""The runtime RAS orchestrator wired into the epoch simulator.

Once per epoch boundary, after that epoch's DRAM service has been
flushed (an enabled RAS subsystem makes the simulator flush per epoch),
the controller:

1. folds the epoch's off-package demand writes into the wear model;
2. draws background CE arrivals (seeded Bernoulli per usable frame) and
   charges their inline-correction cycles;
3. applies any ``CE_BURST`` faults the fault plan scheduled;
4. when a patrol pass is due, issues timing-visible scrub reads through
   the on-package FIFO device (sharing bank state with the demand
   stream, so scrub-vs-demand contention is real) and surfaces any
   latent CEs parked by ``SCRUB_LATENT`` faults;
5. retires any frame whose leaky bucket crossed its threshold — the
   engine copies the data out under stall and the translation table
   shrinks by one usable slot (graceful degradation) — or records a
   ``retirement-suppressed`` event when policy forbids it;
6. appends the epoch's usable-frame count, capacity and η to the
   capacity series reported in :func:`repro.stats.report.ras_table`.

Retirement policy (enforced here, not in the engine): never the empty
slot, never below ``min_usable_frames`` usable frames, never without a
free spare, never while quarantined; a swap in flight just defers the
retirement to the next epoch (the bucket is kept).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..migration.table import EMPTY
from ..resilience.degradation import RETIREMENT_SUPPRESSED, DegradationEvent
from .scrub import SCRUB_STRIDE_BYTES, PatrolScrubber
from .telemetry import CETelemetry
from .wear import WearModel


@dataclass(frozen=True)
class RetirementEvent:
    """One predictive frame retirement."""

    epoch: int
    time: int
    slot: int
    spare: int
    #: the leaky-bucket level that crossed the threshold
    level: float


@dataclass
class RasReport:
    """Picklable RAS summary attached to a ``SimulationResult``."""

    frames_total: int = 0
    frames_retired: int = 0
    frames_usable: int = 0
    spares_total: int = 0
    spares_remaining: int = 0
    retirements: list[RetirementEvent] = field(default_factory=list)
    retirements_suppressed: int = 0
    ce_demand: int = 0
    ce_scrub: int = 0
    ce_burst: int = 0
    ce_cycles: int = 0
    scrub_passes: int = 0
    scrub_reads: int = 0
    scrub_cycles: int = 0
    wear_total_writes: int = 0
    wear_max_page_writes: int = 0
    #: per-epoch ``(epoch, usable_frames, capacity_bytes, eta)``; η is
    #: the epoch's on-package service fraction, recomputed as capacity
    #: shrinks
    capacity_series: list[tuple[int, int, int, float]] = field(
        default_factory=list
    )


class RasController:
    """Per-run RAS state machine (one per ``EpochSimulator``)."""

    def __init__(self, config: SystemConfig, engine, controller):
        self.ras = config.ras
        self.engine = engine
        self.controller = controller
        self.amap = engine.amap
        self.n_frames = self.amap.n_onpkg_pages
        self.telemetry = CETelemetry(
            self.n_frames,
            threshold=self.ras.ce_threshold,
            leak=self.ras.ce_leak,
        )
        self.scrubber = PatrolScrubber(
            self.n_frames,
            interval_epochs=self.ras.scrub_interval_epochs,
            frames_per_pass=self.ras.scrub_frames_per_pass,
            page_bytes=self.amap.macro_page_bytes,
        )
        self.wear = WearModel(
            self.amap.n_total_pages,
            penalty_weight=self.ras.wear_penalty,
            page_bytes=self.amap.macro_page_bytes,
        )
        engine.wear = self.wear
        #: unused spares, allocated in ascending machine-page order
        self.spare_pool: list[int] = sorted(
            self.ras.reserved_pages(self.amap)
        )
        self.events: list[RetirementEvent] = []
        self.suppressed = 0
        self.ce_cycles = 0
        self.capacity_series: list[tuple[int, int, int, float]] = []
        #: frames hit by CE_BURST faults since the last epoch boundary
        self._pending_bursts: list[int] = []
        #: frames that crossed the threshold while a swap was in flight;
        #: retried every epoch even though the bucket keeps leaking
        self._pending_retire: list[int] = []

    # ------------------------------------------------------------------
    # fault-plan entry points (no-ops resolve in the simulator when RAS
    # is disabled — these are only reached with a live controller)
    # ------------------------------------------------------------------
    def _usable_frame(self, param: int) -> int | None:
        usable = np.flatnonzero(~self.engine.table.retired)
        if usable.size == 0:
            return None
        return int(usable[int(param) % usable.size])

    def inject_burst(self, param: int) -> None:
        """A ``CE_BURST`` fault: the target frame's bucket jumps straight
        past the retirement threshold at the next epoch boundary."""
        frame = self._usable_frame(param)
        if frame is not None:
            self._pending_bursts.append(frame)

    def inject_latent(self, param: int) -> None:
        """A ``SCRUB_LATENT`` fault: a CE parked in an idle frame; only
        the patrol scrubber's next pass over it feeds the telemetry."""
        frame = self._usable_frame(param)
        if frame is not None:
            self.scrubber.plant_latent(frame)

    # ------------------------------------------------------------------
    # the per-epoch hook
    # ------------------------------------------------------------------
    def end_epoch(
        self,
        epoch_index: int,
        now: int,
        *,
        machine: np.ndarray,
        on: np.ndarray,
        writes: np.ndarray,
        n_on: int,
        n_total: int,
    ) -> int:
        """Run the RAS pipeline at one epoch boundary; returns the extra
        cycles charged to the epoch (CE corrections + scrub traffic; a
        retirement's copy-out is charged through the engine's stall
        window like any migration)."""
        extra = 0
        table = self.engine.table
        self.wear.observe_demand(machine[writes & ~on])

        usable = np.flatnonzero(~table.retired)
        if self.ras.ce_base_rate > 0 and usable.size:
            rng = np.random.default_rng((self.ras.seed, epoch_index))
            hits = usable[rng.random(usable.size) < self.ras.ce_base_rate]
            for frame in hits.tolist():
                self.telemetry.record(frame, 1, source="demand")
            extra += int(hits.size) * self.ras.ce_cost_cycles

        for frame in self._pending_bursts:
            if not table.retired[frame]:
                self.telemetry.record(
                    frame, self.ras.ce_threshold, source="burst"
                )
                extra += self.ras.ce_cost_cycles
        self._pending_bursts.clear()

        if self.scrubber.due(epoch_index) and usable.size:
            extra += self._scrub_pass(now, usable)

        self._retire_pass(epoch_index, now)
        self.telemetry.decay()

        self.ce_cycles += extra
        n_usable = table.n_usable_slots
        eta = n_on / n_total if n_total else 0.0
        self.capacity_series.append(
            (epoch_index, n_usable, n_usable * self.amap.macro_page_bytes, eta)
        )
        return extra

    def _scrub_pass(self, now: int, usable: np.ndarray) -> int:
        """Issue one patrol pass's reads through the on-package FIFO device."""
        frames = self.scrubber.next_frames(usable)
        if not frames:
            return 0
        n_reads = self.scrubber.reads_per_frame
        machine = np.repeat(np.asarray(frames, dtype=np.int64), n_reads)
        offsets = np.tile(
            np.arange(n_reads, dtype=np.int64) * SCRUB_STRIDE_BYTES,
            len(frames),
        )
        local = self.amap.local_address(machine, offsets, True)
        times = np.full(machine.shape, now, dtype=np.int64)
        latency = self.controller.onpkg_model.access_latency(local, times)
        cycles = int(latency.sum())
        latents = self.scrubber.collect_latents(frames)
        for frame, count in zip(frames, latents):
            if count:
                self.telemetry.record(frame, count, source="scrub")
        latent = sum(latents)
        self.scrubber.passes += 1
        self.scrubber.reads += int(machine.size)
        self.scrubber.cycles += cycles
        return cycles + latent * self.ras.ce_cost_cycles

    def _retire_pass(self, epoch_index: int, now: int) -> None:
        table = self.engine.table
        candidates = list(
            dict.fromkeys(self._pending_retire + self.telemetry.over_threshold())
        )
        self._pending_retire = []
        for frame in candidates:
            if table.retired[frame]:
                self.telemetry.reset_frame(frame)
                continue
            if self.engine.active is not None and self.engine.active.in_flight(now):
                # a swap is mid-flight: defer to the next boundary (the
                # pending list survives the bucket's leak)
                self._pending_retire.append(frame)
                continue
            level = float(self.telemetry.level[frame])
            reason = None
            if self.engine.quarantined:
                reason = "engine quarantined (static mapping)"
            elif not self.spare_pool:
                reason = "no spare machine pages left"
            elif table.n_usable_slots - 1 < self.ras.min_usable_frames:
                reason = (
                    f"would drop below min_usable_frames="
                    f"{self.ras.min_usable_frames}"
                )
            elif table.page_in_slot(frame) == EMPTY:
                reason = "frame is the empty slot (the N-1 design needs it)"
            if reason is not None:
                self.suppressed += 1
                self.telemetry.reset_frame(frame)
                self.engine.degradation_events.append(
                    DegradationEvent(
                        time=now, epoch=self.engine.epochs_observed,
                        kind=RETIREMENT_SUPPRESSED,
                        detail=(
                            f"frame {frame} over CE threshold "
                            f"(bucket {level:.1f}): {reason}"
                        ),
                        recovered=True,
                    )
                )
                continue
            spare = self.spare_pool[0]
            self.engine.retire_frame(now, frame, spare)
            self.spare_pool.pop(0)
            self.telemetry.reset_frame(frame)
            self.events.append(
                RetirementEvent(
                    epoch=epoch_index, time=now, slot=frame, spare=spare,
                    level=level,
                )
            )

    # ------------------------------------------------------------------
    def report(self) -> RasReport:
        table = self.engine.table
        return RasReport(
            frames_total=self.n_frames,
            frames_retired=table.n_retired,
            frames_usable=table.n_usable_slots,
            spares_total=self.ras.spare_pages,
            spares_remaining=len(self.spare_pool),
            retirements=list(self.events),
            retirements_suppressed=self.suppressed,
            ce_demand=self.telemetry.ce_demand,
            ce_scrub=self.telemetry.ce_scrub,
            ce_burst=self.telemetry.ce_burst,
            ce_cycles=self.ce_cycles,
            scrub_passes=self.scrubber.passes,
            scrub_reads=self.scrubber.reads,
            scrub_cycles=self.scrubber.cycles,
            wear_total_writes=self.wear.total_writes,
            wear_max_page_writes=self.wear.max_page_writes,
            capacity_series=list(self.capacity_series),
        )
