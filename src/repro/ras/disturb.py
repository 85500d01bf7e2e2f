"""Row-disturbance (rowhammer) telemetry and the mitigation ladder.

DRAM rows activated at a high rate between refreshes disturb the charge
in their physically adjacent wordlines; with the paper's on-chip memory
controller the activation stream is visible *per row*, so the
controller can track it and act before victim rows decay. This module
is the runtime orchestrator for that loop:

1. **Telemetry** — every epoch, demand accesses are decomposed through
   each region's :class:`~repro.dram.timing.DramGeometry` into
   ``(queue, row)`` streams; a row-buffer change in a queue is one
   activation. A leaky bucket per ``(tier, queue, row)`` accumulates
   activations (:class:`ActivationTelemetry`, the per-row analogue of
   :class:`~repro.ras.telemetry.CETelemetry`).
2. **Alert** — rows whose bucket reaches ``alert_level *
   act_threshold`` enter the mitigation ladder.
3. **Mitigation ladder** (``mitigate=True``):

   * *victim refresh* — up to ``victim_refresh_max`` times per row the
     neighbour rows are refreshed with timing-visible reads through the
     region's FIFO device model (the patrol-scrub idiom: contention with
     demand traffic is real);
   * *escalation* — past the budget the controller throttles the
     channel (``throttle_cycles``) and takes the aggressor out of the
     hot bank: an on-package aggressor's frame is pumped into the RAS
     CE telemetry (predictive retirement takes it off-line), an
     off-package aggressor's physical page gets a migration-pressure
     boost so :meth:`~repro.migration.policies.EpochMonitor.hottest_page`
     pulls it on-package — migration as mitigation.

4. **Unmitigated flips** (``mitigate=False``) — a bucket that reaches
   ``act_threshold`` corrupts seeded victim-row sub-blocks in the
   data-content shadow memory; a later demand read or the final
   ``verify_table`` sweep surfaces them as data violations (never
   silent).

Everything is gated behind ``DisturbConfig(enabled=False)``: the
default configuration is bit-identical to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..resilience.degradation import (
    HAMMER_THROTTLED,
    ROW_DISTURB_FLIPS,
    VICTIM_REFRESHED,
    DegradationEvent,
)
from ..units import log2_exact

#: bucket keys are ``(tier, queue, row)``; tiers sort "off" < "on"
_TIERS = ("off", "on")
_ROW_BITS = 32


def activation_events(
    queues: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Which accesses of one epoch opened a row (vectorised).

    Returns ``(act, order)``: ``order`` stable-sorts the accesses by
    queue (preserving time order within a queue, since epochs are fed
    time-sorted) and ``act[i]`` flags whether sorted access ``i`` hit a
    different row than its predecessor in the same queue. The first
    access per queue counts as an activation even if the row was left
    open by the previous epoch — a deliberate, bounded over-count (one
    per queue per epoch) that errs toward detecting hammering.
    """
    order = np.argsort(queues, kind="stable")
    q = queues[order]
    r = rows[order]
    act = np.empty(q.shape[0], dtype=bool)
    if act.size:
        act[0] = True
        np.logical_or(q[1:] != q[:-1], r[1:] != r[:-1], out=act[1:])
    return act, order


class ActivationTelemetry:
    """Leaky-bucket activation counters, dict-sparse over active rows.

    Unlike the dense per-frame CE buckets, row space is huge and almost
    entirely idle, so levels live in a dict keyed by
    ``(tier, queue, row)`` and fully-leaked rows are dropped.
    """

    def __init__(self, *, threshold: int, leak: float):
        self.threshold = int(threshold)
        self.leak = float(leak)
        self.level: dict[tuple[str, int, int], float] = {}
        self.total_activations = 0

    def fold(
        self, tier: str, queues: np.ndarray, rows: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Add one epoch's per-row activation counts for ``tier``."""
        level = self.level
        for q, r, c in zip(queues.tolist(), rows.tolist(), counts.tolist()):
            key = (tier, q, r)
            level[key] = level.get(key, 0.0) + c
        self.total_activations += int(counts.sum())

    def bump(self, key: tuple[str, int, int], count: float) -> None:
        """One injected hammer burst lands on ``key``."""
        self.level[key] = self.level.get(key, 0.0) + count

    def over(self, at_level: float) -> list[tuple[str, int, int]]:
        """Keys at or above ``at_level``, sorted for determinism."""
        return sorted(k for k, v in self.level.items() if v >= at_level)

    def reset(self, key: tuple[str, int, int]) -> None:
        self.level.pop(key, None)

    def decay(self) -> None:
        """One epoch's leak (call once per epoch, after threshold checks)."""
        if self.leak <= 0:
            return
        level = self.level
        for key in list(level):
            v = level[key] - self.leak
            if v <= 0.0:
                del level[key]
            else:
                level[key] = v


@dataclass
class DisturbReport:
    """Picklable disturbance summary attached to a ``SimulationResult``."""

    activations_total: int = 0
    rows_tracked: int = 0
    hammer_bursts: int = 0
    alerts: int = 0
    victim_refreshes: int = 0
    victim_refresh_cycles: int = 0
    throttles: int = 0
    throttle_cycles: int = 0
    #: on-package aggressor frames pumped into RAS CE telemetry
    retirements_pumped: int = 0
    #: off-package aggressor pages given a migration-pressure boost
    pressure_boosts: int = 0
    #: unmitigated threshold crossings that landed bit flips
    flip_bursts: int = 0
    #: victim sub-blocks holding live data that were corrupted
    flip_cells: int = 0
    #: per-epoch ``(epoch, tracked_rows, max_bucket)`` telemetry trace
    bucket_series: list[tuple[int, int, float]] = field(default_factory=list)


class DisturbController:
    """Per-run row-disturbance state machine (one per ``EpochSimulator``)."""

    def __init__(self, config: SystemConfig, engine, controller):
        self.cfg = config.disturb
        self.engine = engine
        self.controller = controller
        self.amap = engine.amap
        self.telemetry = ActivationTelemetry(
            threshold=self.cfg.act_threshold, leak=self.cfg.act_leak
        )
        self._geo = {
            "on": controller.onpkg_model.device.geometry,
            "off": controller.offpkg_model.device.geometry,
        }
        self._region_bytes = {
            "on": self.amap.n_onpkg_pages * self.amap.macro_page_bytes,
            "off": (self.amap.n_total_pages - self.amap.n_onpkg_pages)
            * self.amap.macro_page_bytes,
        }
        self._sb_shift = log2_exact(self.amap.subblock_bytes)
        #: per-physical-page hammer pressure; halves every epoch and
        #: feeds :meth:`page_bonus` when ``migration_bias`` is set
        self.pressure = np.zeros(self.amap.n_total_pages, dtype=np.float64)
        #: victim refreshes already spent per aggressor row
        self._victim_budget: dict[tuple[str, int, int], int] = {}
        #: last physical page seen activating each off-package row
        self._aggressor_page: dict[tuple[str, int, int], int] = {}
        #: ROW_DISTURB fault params awaiting an epoch with activity
        self._pending: list[int] = []
        #: RAS controller (wired by the simulator when both are enabled)
        self.ras = None
        #: data-content shadow (wired by the simulator under track_data)
        self.shadow = None
        self.bursts_applied = 0
        self.alerts = 0
        self.victim_refreshes = 0
        self.victim_refresh_cycles = 0
        self.throttles = 0
        self.throttle_cycles = 0
        self.retirements_pumped = 0
        self.pressure_boosts = 0
        self.flip_bursts = 0
        self.flip_cells = 0
        self.bucket_series: list[tuple[int, int, float]] = []
        engine.disturb = self

    # ------------------------------------------------------------------
    # swap-policy bias hooks (consumed by MigrationEngine._evaluate_swap)
    # ------------------------------------------------------------------
    @property
    def bias_weight(self) -> float:
        return self.cfg.migration_bias

    def page_bonus(self, pages: np.ndarray) -> np.ndarray:
        """Score bonus pulling hammer-pressured pages on-package."""
        idx = np.asarray(pages, dtype=np.int64)
        return self.cfg.migration_bias * self.pressure[idx]

    # ------------------------------------------------------------------
    # fault-plan entry point
    # ------------------------------------------------------------------
    def inject_hammer(self, param: int) -> None:
        """A ``ROW_DISTURB`` fault: at the next epoch boundary the
        selected active row's bucket jumps straight past the threshold."""
        self._pending.append(int(param))

    # ------------------------------------------------------------------
    # the per-epoch hook
    # ------------------------------------------------------------------
    def end_epoch(
        self,
        epoch_index: int,
        now: int,
        *,
        pages: np.ndarray,
        machine: np.ndarray,
        on: np.ndarray,
        offsets: np.ndarray,
    ) -> int:
        """Fold one epoch's activations and run the mitigation ladder;
        returns the extra cycles charged to the epoch (victim-refresh
        traffic + throttling)."""
        cfg = self.cfg
        on_mask = np.asarray(on, dtype=bool)
        epoch_keys: list[tuple[str, int, int]] = []
        for tier in _TIERS:
            idx = np.flatnonzero(on_mask if tier == "on" else ~on_mask)
            if idx.size == 0:
                continue
            local = self.amap.local_address(machine[idx], offsets[idx], tier == "on")
            queues, rows = self._geo[tier].queues_and_rows(local)
            act, order = activation_events(queues, rows)
            act_sub = order[act]  # indices into the idx-subset arrays
            q_act = queues[act_sub]
            r_act = rows[act_sub]
            combo = (q_act.astype(np.int64) << _ROW_BITS) | r_act
            uq, counts = np.unique(combo, return_counts=True)
            qs = uq >> _ROW_BITS
            rs = uq & ((1 << _ROW_BITS) - 1)
            self.telemetry.fold(tier, qs, rs, counts)
            epoch_keys.extend(
                (tier, int(q), int(r))
                for q, r in zip(qs.tolist(), rs.tolist())
            )
            if tier == "off":
                agg = np.asarray(pages)[idx[act_sub]]
                np.add.at(self.pressure, agg, 1.0)
                for q, r, p in zip(
                    q_act.tolist(), r_act.tolist(), agg.tolist()
                ):
                    self._aggressor_page[("off", q, r)] = int(p)

        if self._pending and epoch_keys:
            keys = sorted(set(epoch_keys))
            for param in self._pending:
                self.telemetry.bump(
                    keys[param % len(keys)], float(cfg.act_threshold)
                )
                self.bursts_applied += 1
            self._pending.clear()

        extra = 0
        alert_at = cfg.alert_level * cfg.act_threshold
        for key in self.telemetry.over(alert_at):
            level = self.telemetry.level[key]
            self.alerts += 1
            if not cfg.mitigate:
                if level >= cfg.act_threshold:
                    self._land_flips(key, level, epoch_index, now)
                    self.telemetry.reset(key)
                continue
            spent = self._victim_budget.get(key, 0)
            if spent < cfg.victim_refresh_max:
                self._victim_budget[key] = spent + 1
                extra += self._victim_refresh(key, level, epoch_index, now)
            else:
                extra += self._escalate(key, level, epoch_index, now)
            self.telemetry.reset(key)

        self.telemetry.decay()
        self.pressure *= 0.5
        max_bucket = max(self.telemetry.level.values(), default=0.0)
        self.bucket_series.append(
            (epoch_index, len(self.telemetry.level), float(max_bucket))
        )
        return extra

    # ------------------------------------------------------------------
    # row geometry
    # ------------------------------------------------------------------
    def _row_chunks(
        self, tier: str, queue: int, row: int
    ) -> list[tuple[tuple[str, int], int, int]]:
        """The sub-block-granular pieces of one physical row.

        Returns ``(location, local_address, subblock)`` triples —
        ``location`` in shadow-memory form. Rows past the region's
        populated capacity yield nothing.
        """
        if row < 0:
            return []
        geo = self._geo[tier]
        timing = geo.timing
        bank = queue % timing.n_banks
        channel = queue // timing.n_banks
        base = (
            (row * timing.n_banks + bank) * timing.n_channels + channel
        ) * geo.row_bytes
        end = min(base + geo.row_bytes, self._region_bytes[tier])
        if base >= end:
            return []
        macro = self.amap.macro_page_bytes
        step = min(self.amap.subblock_bytes, geo.row_bytes)
        out = []
        for addr in range(base, end, step):
            local_page = addr >> self.amap.offset_bits
            sb = (addr & (macro - 1)) >> self._sb_shift
            if tier == "on":
                loc = ("slot", local_page)
            else:
                loc = ("mach", local_page + self.amap.n_onpkg_pages)
            out.append((loc, addr, sb))
        return out

    def _victim_chunks(
        self, key: tuple[str, int, int]
    ) -> list[tuple[int, list[tuple[tuple[str, int], int, int]]]]:
        """Per victim row (the aggressor's wordline neighbours), its chunks."""
        tier, queue, row = key
        out = []
        for victim in (row - 1, row + 1):
            chunks = self._row_chunks(tier, queue, victim)
            if chunks:
                out.append((victim, chunks))
        return out

    # ------------------------------------------------------------------
    # the ladder rungs
    # ------------------------------------------------------------------
    def _victim_refresh(
        self, key: tuple[str, int, int], level: float, epoch_index: int,
        now: int,
    ) -> int:
        """Refresh the aggressor's neighbours with timing-visible reads."""
        tier, queue, row = key
        victims = self._victim_chunks(key)
        chunks = [c for _, cs in victims for c in cs]
        if not chunks:
            return 0
        local = np.array([addr for _, addr, _ in chunks], dtype=np.int64)
        times = np.full(local.shape, now, dtype=np.int64)
        model = (
            self.controller.onpkg_model
            if tier == "on"
            else self.controller.offpkg_model
        )
        latency = model.access_latency(local, times)
        cycles = int(latency.sum())
        self.victim_refreshes += 1
        self.victim_refresh_cycles += cycles
        self.engine.degradation_events.append(
            DegradationEvent(
                time=now, epoch=epoch_index, kind=VICTIM_REFRESHED,
                detail=(
                    f"{tier}-package queue {queue} row {row} over alert "
                    f"level (bucket {level:.1f}): refreshed {len(chunks)} "
                    f"neighbour sub-blocks in {len(victims)} rows "
                    f"(+{cycles} cycles)"
                ),
                recovered=True,
            )
        )
        return cycles

    def _escalate(
        self, key: tuple[str, int, int], level: float, epoch_index: int,
        now: int,
    ) -> int:
        """Victim-refresh budget exhausted: throttle and take the
        aggressor out of the hot bank."""
        cfg = self.cfg
        tier, queue, row = key
        self.throttles += 1
        self.throttle_cycles += cfg.throttle_cycles
        route = "throttled"
        if tier == "on":
            frames = sorted(
                {loc[1] for loc, _, _ in self._row_chunks(tier, queue, row)}
            )
            if self.ras is not None and frames:
                table = self.engine.table
                for frame in frames:
                    if not table.retired[frame]:
                        self.ras.telemetry.record(
                            frame, self.ras.ras.ce_threshold, source="burst"
                        )
                        self.retirements_pumped += 1
                route = (
                    f"throttled; frames {frames} pumped into CE telemetry "
                    f"for predictive retirement"
                )
        else:
            page = self._aggressor_page.get(key)
            if page is not None and cfg.migration_bias > 0:
                self.pressure[page] += float(cfg.act_threshold)
                self.pressure_boosts += 1
                route = (
                    f"throttled; aggressor page {page} biased into the "
                    f"next hottest-coldest swap"
                )
        self.engine.degradation_events.append(
            DegradationEvent(
                time=now, epoch=epoch_index, kind=HAMMER_THROTTLED,
                detail=(
                    f"{tier}-package queue {queue} row {row} still hammering "
                    f"after {cfg.victim_refresh_max} victim refreshes "
                    f"(bucket {level:.1f}): {route} "
                    f"(+{cfg.throttle_cycles} cycles)"
                ),
                recovered=True,
            )
        )
        return cfg.throttle_cycles

    def _land_flips(
        self, key: tuple[str, int, int], level: float, epoch_index: int,
        now: int,
    ) -> None:
        """Unmitigated threshold crossing: seeded victim-row bit flips."""
        cfg = self.cfg
        tier, queue, row = key
        tier_code = 1 if tier == "on" else 0
        rng = np.random.default_rng(
            (cfg.seed, epoch_index, tier_code, queue, row)
        )
        cells = 0
        rows_hit = 0
        for _victim, chunks in self._victim_chunks(key):
            rows_hit += 1
            k = min(cfg.flips_per_victim, len(chunks))
            pick = rng.choice(len(chunks), size=k, replace=False)
            for i in sorted(pick.tolist()):
                loc, _addr, sb = chunks[i]
                if self.shadow is not None:
                    cells += self.shadow.corrupt(loc, (sb,), now)
                else:
                    cells += 1
        self.flip_bursts += 1
        self.flip_cells += cells
        self.engine.degradation_events.append(
            DegradationEvent(
                time=now, epoch=epoch_index, kind=ROW_DISTURB_FLIPS,
                detail=(
                    f"{tier}-package queue {queue} row {row} crossed the "
                    f"disturbance threshold unmitigated (bucket {level:.1f}): "
                    f"{cells} victim sub-blocks corrupted across "
                    f"{rows_hit} neighbour rows"
                ),
                recovered=cells == 0,
            )
        )

    # ------------------------------------------------------------------
    def report(self) -> DisturbReport:
        return DisturbReport(
            activations_total=self.telemetry.total_activations,
            rows_tracked=len(self.telemetry.level),
            hammer_bursts=self.bursts_applied,
            alerts=self.alerts,
            victim_refreshes=self.victim_refreshes,
            victim_refresh_cycles=self.victim_refresh_cycles,
            throttles=self.throttles,
            throttle_cycles=self.throttle_cycles,
            retirements_pumped=self.retirements_pumped,
            pressure_boosts=self.pressure_boosts,
            flip_bursts=self.flip_bursts,
            flip_cells=self.flip_cells,
            bucket_series=list(self.bucket_series),
        )
