"""The migration controller (Fig 3's "Migration Controller" box).

At each epoch boundary (every ``swap_interval`` memory accesses) the
engine compares the hottest off-package macro page against the coldest
on-package one and, if the hottest was accessed more often, schedules a
hottest-coldest swap (Section III-A):

* **N** — the whole exchange stalls execution (no empty slot to overlap
  with);
* **N-1** — the Fig 8 step sequence runs in the background; the incoming
  page keeps being served off-package until its copy-in completes;
* **Live** — the incoming page is available sub-block by sub-block,
  critical (most-recently-used) sub-block first with wraparound (Fig 9).

While a swap is in flight the P/F bits block re-triggering, exactly as
in the paper ("the existence of P bit and F bit prevents triggering
another swap if the previous swap is not complete yet").

A swap runs from its plan shape's :class:`~.template.SwapTemplate`: the
step sequence the builders in :mod:`.algorithms` produce for that shape,
derived once per process and bound to the swap's roles (MRU, LRU, the
empty slot, the MS MRU's partner, the MF LRU's slot, Ω). The engine
checks the table's pre-state against the template, writes the plan's
table updates in one step, and walks the template's steps only to time
them. The result is one *routing timeline* for the pages the swap
touches: a row of their mirror entries (``onpkg``, ``machine_of``) for
every table update that changes one, stamped with the update's time.
The epoch simulator overrides those few pages' resolution per access
time; every other page resolves through the table's dense mirrors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..address import AddressMap
from ..config import BusConfig, MigrationConfig, MigrationAlgorithm, ResilienceConfig
from ..errors import (
    FaultInjectionError,
    MigrationError,
    SwapAbortError,
    TranslationTableError,
)
from ..resilience.degradation import (
    ABORT_RECOVERED,
    FRAME_RETIRED,
    MIGRATION_QUARANTINED,
    SWAP_FAILED,
    DegradationEvent,
)
from .algorithms import CopyStep, crosses_boundary, touches_onpkg
from .policies import EpochMonitor
from .recovery import recovery_plan
from .table import EMPTY, TranslationTable
from .template import (
    BEFORE,
    SwapTemplate,
    TemplateCopy,
    TemplateUpdate,
    swap_template,
)


@dataclass(frozen=True)
class FillInfo:
    """Timing of a Live swap's incoming copy-in (Fig 9).

    Only landed sub-blocks need it: until the copy-in completes, the
    routing timeline already serves the incoming page from its old copy.
    """

    page: int
    slot: int
    start: int                  # cycle the copy-in begins
    end: int                    # cycle the last byte lands
    n_subblocks: int
    first_subblock: int         # critical-first start point (MRU sub-block)

    @property
    def subblock_cycles(self) -> int:
        """Transfer time of one sub-block."""
        return max(1, (self.end - self.start) // self.n_subblocks)

    def landings(self) -> tuple[np.ndarray, np.ndarray]:
        """Live fill landing schedule (Fig 9): sub-blocks in landing
        order (critical first, wrapping) and their land cycles, one per
        :attr:`subblock_cycles`, capped at :attr:`end`."""
        k = np.arange(self.n_subblocks, dtype=np.int64)
        order = (self.first_subblock + k) % self.n_subblocks
        land = np.minimum(self.start + (k + 1) * self.subblock_cycles, self.end)
        return order, land

    def available_at(self, subblock: np.ndarray) -> np.ndarray:
        """Cycle each sub-block becomes servable on-package (vectorised)."""
        order, land = self.landings()
        at = np.empty_like(land)
        at[order] = land
        return at[np.asarray(subblock, dtype=np.int64)]


@dataclass
class ActiveMigration:
    """One in-flight (or just-completed) swap with its routing timeline.

    ``plan`` is the swap's :class:`~.template.SwapTemplate`. The
    timeline covers the swap's affected ``pages``: from ``times[i]``
    on, column ``j`` of row ``i`` of ``onpkg``/``machine`` is page
    ``pages[j]``'s resolution. ``times`` ascend; row 0 is the pre-swap
    state, stamped before any access. ``fill`` is set for a Live swap
    only. A plan-less stall window (``plan`` None: an abort's copy-back,
    a RAS frame retirement's copy-out, a tenant release's reclamation
    copies) carries no pages:
    the table already holds its final state, but execution stalls while
    the copies drain.
    """

    plan: SwapTemplate | None
    start: int
    end: int
    fill: FillInfo | None
    pages: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    times: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    onpkg: np.ndarray = field(default_factory=lambda: np.empty((0, 0), bool))
    machine: np.ndarray = field(default_factory=lambda: np.empty((0, 0), np.int64))

    @property
    def stall(self) -> bool:
        return self.plan is None or self.plan.stall

    def in_flight(self, now: int) -> bool:
        return now < self.end


@dataclass(frozen=True)
class SwapDecision:
    """Outcome of one epoch-boundary evaluation (for logging/tests)."""

    triggered: bool
    reason: str
    mru: int | None = None
    lru: int | None = None


class MigrationEngine:
    """Epoch monitor + trigger + plan scheduler."""

    def __init__(
        self,
        amap: AddressMap,
        config: MigrationConfig,
        bus: BusConfig | None = None,
        *,
        resilience: ResilienceConfig | None = None,
        reserved_pages: frozenset[int] | set[int] = frozenset(),
        onpkg_refresh=None,
        offpkg_refresh=None,
    ):
        self.amap = amap
        self.config = config
        self.bus = bus or BusConfig()
        self.resilience = resilience or ResilienceConfig()
        #: optional per-region :class:`~repro.dram.refresh.RefreshSchedule`
        #: (set by EpochSimulator when the region's timing enables
        #: refresh): a copy touching a refreshing region stalls for every
        #: tRFC window its transfer overlaps. None = classic durations.
        self.onpkg_refresh = onpkg_refresh
        self.offpkg_refresh = offpkg_refresh
        basic = config.algorithm == MigrationAlgorithm.N
        self.table = TranslationTable(
            amap, reserve_empty_slot=not basic, reserved_pages=reserved_pages
        )
        self.monitor = EpochMonitor(amap.n_onpkg_pages)
        self.active: ActiveMigration | None = None
        self.swaps_triggered = 0
        self.swaps_suppressed_busy = 0
        self.swaps_suppressed_cold = 0
        self.swaps_suppressed_qos = 0
        self.swaps_failed = 0
        self.migrated_bytes = 0
        self.cross_boundary_bytes = 0
        # graceful-degradation state
        self.quarantined = False
        self.consecutive_failures = 0
        self.degradation_events: list[DegradationEvent] = []
        self.epochs_observed = 0
        self._abort_at_step: int | None = None
        self._abort_subblocks = 0
        # data-safe abort recovery accounting
        self.abort_recoveries = 0
        self.recovery_bytes = 0
        #: optional data-content mirror (set by EpochSimulator track_data=True);
        #: fed every copy the plans perform, at the cycle it lands
        self.shadow = None
        #: optional RAS wear model (set by RasController): counts every
        #: copy's destination writes (swaps, aborted prefixes, abort
        #: copy-backs, retirements, reclamations) and, when its penalty
        #: weight is positive, biases the hottest-page swap-candidate
        #: ranking
        self.wear = None
        #: optional row-disturbance controller (set by DisturbController):
        #: when its migration bias is positive, aggressively-activated
        #: pages rank higher as swap candidates — migration doubles as
        #: hammer mitigation by pulling them on-package, where tRFC is
        #: short and victim refresh is cheap
        self.disturb = None
        #: optional multi-tenant capacity/QoS policy (set by
        #: MultiTenantSimulator): consulted at every trigger evaluation;
        #: it restricts which slots may be demoted to make room for a
        #: promotion
        self.qos = None
        # RAS predictive-retirement accounting
        self.frames_retired = 0
        self.retired_bytes = 0
        # multi-tenant reclamation accounting
        self.tenants_released = 0
        self.reclaimed_bytes = 0

    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        slots: np.ndarray,
        slot_times: np.ndarray,
        offpkg_pages: np.ndarray,
        off_times: np.ndarray,
        off_subblocks: np.ndarray | None = None,
    ) -> None:
        """Feed one epoch's accesses to the monitor's recency/frequency
        fold (:meth:`EpochMonitor.observe_epoch`)."""
        self.monitor.observe_epoch(
            slots, slot_times, offpkg_pages, off_times, off_subblocks
        )

    def maybe_swap(self, now: int) -> SwapDecision:
        """Epoch-boundary evaluation: trigger a hottest-coldest swap?

        Every outcome closes the monitor's epoch. Failures (a torn plan
        application, an injected abort) are contained here: the table
        rolls back to its pre-swap state, the failure is recorded as a
        :class:`DegradationEvent`, and after
        ``resilience.max_consecutive_failures`` of them in a row the
        engine quarantines itself (static-mapping degraded mode).
        """
        if (not self.quarantined and self.active is not None
                and self.active.in_flight(now)):
            self.record_busy(1)
            return SwapDecision(False, "previous swap still in flight (P/F busy)")
        self.epochs_observed += 1
        try:
            if self.quarantined:
                return SwapDecision(False, "migration quarantined (degraded mode)")
            decision = self._evaluate_swap(now)
        except MigrationError as exc:
            self.swaps_failed += 1
            # a data-safe recovered abort left the system fully
            # consistent (routing AND data), so it never counts toward
            # the quarantine threshold
            recovered = getattr(exc, "recovered", False)
            self._note_failure(now, f"swap failed: {exc}", count=not recovered)
            return SwapDecision(False, f"swap failed: {exc}")
        finally:
            self.monitor.new_epoch()
        if decision.triggered:
            self.consecutive_failures = 0
        return decision

    def record_busy(self, boundaries: int) -> None:
        """Close ``boundaries`` epochs whose boundary found the previous
        swap still in flight: the P/F bits answer "busy" before anything
        is ranked, so each only counts and resets the monitor's epoch."""
        self.epochs_observed += boundaries
        self.swaps_suppressed_busy += boundaries
        self.monitor.new_epoch()

    def note_audit_failure(self, now: int, detail: str) -> None:
        """An external invariant audit failed; counts toward quarantine.

        The auditor records its own event, so this only advances the
        consecutive-failure counter.
        """
        self._note_failure(now, detail, record=False)

    def _note_failure(
        self, now: int, detail: str, *, record: bool = True, count: bool = True
    ) -> None:
        if count:
            self.consecutive_failures += 1
        if record:
            self.degradation_events.append(
                DegradationEvent(
                    time=now, epoch=self.epochs_observed, kind=SWAP_FAILED,
                    detail=detail, recovered=True,
                )
            )
        if self.consecutive_failures >= self.resilience.max_consecutive_failures:
            self.quarantine(now, f"{self.consecutive_failures} consecutive failures")

    def quarantine(self, now: int, reason: str) -> None:
        """Stop migrating: roll back to the static mapping, keep serving.

        The table returns to the boot-time identity mapping (every page
        resolvable at its home location) and the engine answers every
        future epoch with "no swap". Demand accesses keep flowing — the
        system degrades to Section II's static mapping instead of dying.
        """
        if self.quarantined:
            return
        if self.shadow is not None:
            self._shadow_quarantine(now)
        displaced = self.table.reset_identity()
        restore_bytes = displaced * self.amap.macro_page_bytes
        self.active = None
        self._abort_at_step = None
        self._abort_subblocks = 0
        self.quarantined = True
        self.degradation_events.append(
            DegradationEvent(
                time=now, epoch=self.epochs_observed, kind=MIGRATION_QUARANTINED,
                detail=(
                    f"{reason}; restored {displaced} displaced pages "
                    f"({restore_bytes} bytes) to the static mapping"
                ),
                recovered=False,
            )
        )

    def _shadow_quarantine(self, now: int) -> None:
        """Mirror the quarantine's physical copy-home in the shadow.

        The table already reflects an in-flight plan's final mapping
        (plans apply their table ops atomically when scheduled), and the
        quarantine's copy-home is modelled as instantaneous — so the
        in-flight plan's remaining copies drain first rather than being
        torn, keeping the shadow aligned with the table the recovery
        plan is computed from. An audit-path quarantine on an
        unrepairable table is best-effort: if the corrupt state no
        longer resolves a surviving copy for some page, that page's data
        is lost and later reads will record violations.
        """
        horizon = now
        if self.active is not None:
            horizon = max(horizon, self.active.end)
        self.shadow.flush(horizon)
        self.shadow.drop_pending()
        try:
            # the state reset_identity produces, retirement (which
            # quarantine cannot undo: the frames are physically dead)
            # carried over
            target = self.table.clone()
            target.reset_identity()
            steps = recovery_plan(self.table, [], target_table=target)
        except (MigrationError, TranslationTableError):
            return
        for step in steps:
            self.shadow.apply_copy(step.src, step.dst)

    def inject_abort(self, at_copy_step: int, *, subblocks: int = 0) -> None:
        """Arm a one-shot fault: the next scheduled swap aborts at the
        given copy step (modulo the plan's copy count). ``subblocks``
        lands that many sub-blocks first when the step is a Live fill
        (a micro-boundary abort)."""
        self._abort_at_step = int(at_copy_step)
        self._abort_subblocks = int(subblocks)

    def _evaluate_swap(self, now: int) -> SwapDecision:
        # the hottest-page ranking's score penalty, one term per active
        # bias, summed. Endurance-aware: penalise pages whose off-package
        # machine frame has absorbed many writes (the demoted LRU page
        # would be written right back onto it). Hammer-aware: an
        # aggressor page's *negative* penalty (a bonus) pulls it
        # on-package, where disturbance is cheap to mitigate.
        terms = []
        if self.wear is not None and self.wear.penalty_weight > 0:
            terms.append(lambda pages: self.wear.penalty(self.table.machine_of[pages]))
        if self.disturb is not None and self.disturb.bias_weight > 0:
            terms.append(lambda pages: -self.disturb.page_bonus(pages))
        penalty = None
        if terms:
            penalty = lambda pages: sum(term(pages) for term in terms)  # noqa: E731
        hottest = self.monitor.hottest_page(penalty=penalty)
        if hottest is None:
            return SwapDecision(False, "no off-package accesses this epoch")
        mru_page, mru_count = hottest

        # never migrate the reserved ghost page
        if mru_page == self.amap.ghost_page:
            return SwapDecision(False, "hottest page is the reserved Ω page")

        # nor a RAS spare, nor a page whose home frame is retired (it
        # lives at its spare for good; promoting it would need a frame
        # its pairing invariant no longer has)
        if mru_page in self.table.reserved_pages:
            return SwapDecision(False, "hottest page is a reserved spare page")
        if self.table.is_retired_home(mru_page):
            return SwapDecision(
                False, f"hottest page {mru_page}'s home frame is retired"
            )

        # the page may have finished migrating on-package during the very
        # epoch whose counts flagged it (it was served off-package while
        # its fill was in flight) — hardware drops it from the multi-queue
        # at migration time; here we skip the stale candidate
        if bool(self.table.onpkg[mru_page]):
            return SwapDecision(False, f"hottest page {mru_page} already on-package")

        empty = self.table.empty_slot()
        exclude = set(self.table.retired_slots())
        if empty is not None:
            exclude.add(empty)
        if len(exclude) >= self.table.n_slots:
            # degenerate geometry: every slot is retired or the empty
            # one — there is nothing to demote, so nothing to swap
            return SwapDecision(False, "no occupied on-package slot to demote")
        if self.qos is not None:
            exclude |= self.qos.constrain(mru_page)
            if len(exclude) >= self.table.n_slots:
                # at quota with no own slot to recycle: suppress
                self.swaps_suppressed_qos += 1
                return SwapDecision(
                    False,
                    "QoS: every demotion candidate is excluded",
                    mru=mru_page,
                )
        lru_slot = self.monitor.coldest_slot(exclude=exclude)
        lru_page = self.table.page_in_slot(lru_slot)
        if lru_page == EMPTY:
            return SwapDecision(False, "coldest slot is empty")

        if self.config.hottest_coldest_trigger:
            lru_count = self.monitor.slot_epoch_count(lru_slot)
            if mru_count <= lru_count:
                self.swaps_suppressed_cold += 1
                return SwapDecision(
                    False,
                    f"MRU count {mru_count} <= LRU count {lru_count}",
                    mru=mru_page,
                    lru=lru_page,
                )

        self._schedule(now, mru_page, lru_page, self.monitor.last_subblock(mru_page))
        return SwapDecision(True, "hottest-coldest swap", mru=mru_page, lru=lru_page)

    # ------------------------------------------------------------------
    def _copy_duration(self, start: int, step: CopyStep) -> int:
        """Wall duration of one macro-page copy starting at ``start``:
        its bus cycles (:meth:`BusConfig.copy_cycles`) stretched by
        :meth:`_stretch`."""
        crosses = crosses_boundary(step.src, step.dst)
        return self._stretch(
            start, self.bus.copy_cycles(self.amap.macro_page_bytes, crosses),
            touches_onpkg(step.src, step.dst), crosses,
        )

    def _stretch(self, start: int, base: int, touches_on: bool, crosses: bool) -> int:
        """Wall duration of a ``base``-cycle copy starting at ``start``.

        The bus-limited transfer time, stretched by any tRFC window of
        the DRAM regions the copy touches: a swap copy landing on a
        refreshing bank stalls until the window closes. A crossing copy
        touches the off-package region; one that also touches a slot
        takes the worse of the two stretches (the transfer cannot
        proceed while either end is refreshing).
        """
        if self.onpkg_refresh is None and self.offpkg_refresh is None:
            return base
        duration = base
        if touches_on and self.onpkg_refresh is not None:
            duration = max(duration, self.onpkg_refresh.stretch(start, base))
        if crosses and self.offpkg_refresh is not None:
            duration = max(duration, self.offpkg_refresh.stretch(start, base))
        return duration

    def _schedule(self, now: int, mru: int, lru: int, first_subblock: int) -> None:
        cfg = self.config
        table = self.table
        template, binding = swap_template(
            table, mru, lru, basic=cfg.algorithm == MigrationAlgorithm.N
        )
        roles = binding.roles
        live = cfg.algorithm == MigrationAlgorithm.LIVE
        # the undo record over the template's rows and pages makes the
        # swap transactional, so a torn one rolls back instead of
        # leaving a half-written table; it raises, before any write, if
        # the table is not in the template's pre-state
        undo = template.undo_point(table, binding)

        # an armed abort fires at a chosen copy step (one-shot): the
        # table then holds the updates made before that step
        abort_at: int | None = None
        abort_subblocks = 0
        updates = template.n_updates
        if self._abort_at_step is not None:
            abort_at = self._abort_at_step % template.n_copies
            abort_subblocks = self._abort_subblocks
            self._abort_at_step = None
            self._abort_subblocks = 0
            updates = template.updates_before[abort_at]

        # the table takes the plan's updates at once; the walk below
        # times them, stamping each update that changes the affected
        # pages' routing as a timeline row (row 0: the pre-swap state)
        page_bytes = self.amap.macro_page_bytes
        #: a page copy's bus cycles, within / across the package boundary
        cycles = (
            self.bus.copy_cycles(page_bytes, False), self.bus.copy_cycles(page_bytes, True)
        )
        t = now
        times = [BEFORE]
        fill: FillInfo | None = None
        copy_index = 0
        crit_first = first_subblock if cfg.critical_block_first else 0

        def incoming_fill(step: TemplateCopy, start: int, duration: int) -> FillInfo:
            return FillInfo(
                page=mru,
                slot=roles[step.dst[1]],
                start=start,
                end=start + duration,
                n_subblocks=self.amap.subblocks_per_page,
                first_subblock=crit_first,
            )

        #: a copy torn part-way, as (src, dst, complete=False)
        torn: list[tuple] = []
        #: time-stamped shadow ops mirroring every executed copy
        shadow_ops: list[tuple[int, str, tuple]] = []
        try:
            table.write_swap(template.state(binding, updates))
            for step in template.steps:
                if isinstance(step, TemplateUpdate):
                    if step.os_round_trip and cfg.os_assisted:
                        # the OS periodic routine performs the table
                        # update: a user/kernel round trip before the new
                        # mapping is live
                        t += cfg.os_update_cycles
                    if step.stamps:
                        times.append(t)
                    continue
                duration = self._stretch(
                    t, cycles[step.crosses], step.touches_on, step.crosses
                )
                if copy_index == abort_at:
                    detail = ""
                    if live and step.incoming and abort_subblocks > 0:
                        # micro-boundary abort: part of the Live fill
                        # already landed (destination is garbage as a
                        # whole page, hence complete=False)
                        order, land = incoming_fill(step, t, duration).landings()
                        landed = min(int(abort_subblocks), land.size - 1)
                        if landed:
                            t = int(land[landed - 1])
                        src, dst = step.locations(roles)
                        torn.append((src, dst, False))
                        order = tuple(order[:landed].tolist())
                        shadow_ops.append((t, "copy", (src, dst, order)))
                        detail = f" after {landed} landed sub-block(s)"
                    raise FaultInjectionError(
                        f"swap {template.case.value} aborted at copy step "
                        f"{copy_index} ({step.label.format(*roles)}){detail}"
                    )
                copy_index += 1
                if step.incoming and live:
                    fill = incoming_fill(step, t, duration)
                if self.shadow is not None:
                    self._collect_shadow_copy(
                        shadow_ops, *step.locations(roles), t + duration,
                        fill if step.incoming else None,
                    )
                t += duration
        except (FaultInjectionError, TranslationTableError) as exc:
            # the executed copy prefix physically happened: it wore its
            # destinations, and its data lands in the shadow at once (no
            # access runs before the recovery)
            executed = [
                (*c.locations(roles), True) for c in template.copies[:copy_index]
            ] + torn
            self._observe_copy_wear(dst for _, dst, _ in executed)
            if self.shadow is not None:
                self.shadow.flush(now)
                for _, kind, payload in shadow_ops:
                    if kind == "copy":
                        self.shadow.apply_copy(*payload)
            self._recover_abort(now, t, undo, executed, exc)
            # an injected abort leaves routing and data consistent; a
            # torn table update counts toward quarantine
            raise SwapAbortError(
                str(exc), recovered=isinstance(exc, FaultInjectionError)
            ) from exc

        if template.stall:
            # N design: the table is updated only once data finished moving,
            # and execution halts — every affected page flips at `now` from
            # the observer's perspective (nothing runs during the window)
            times = [BEFORE, now]

        if self.shadow is not None:
            # the plan's table updates are all live at its end: the copy
            # engine quiesces and its forwarding links die. Nothing
            # executes during a stall window, so there data and routing
            # flip together at `now` and no link is ever observable
            for op_t, kind, payload in shadow_ops:
                self.shadow.schedule(now if template.stall else op_t, kind, payload)
            self.shadow.schedule(now if template.stall else t, "close", ())

        self._observe_copy_wear(c.locations(roles)[1] for c in template.copies)
        onpkg, machine = template.timeline(binding)
        self.active = ActiveMigration(
            plan=template, start=now, end=t, fill=fill,
            pages=binding.pages, times=np.array(times, dtype=np.int64),
            onpkg=onpkg, machine=machine,
        )
        self.swaps_triggered += 1
        self.migrated_bytes += template.n_copies * page_bytes
        self.cross_boundary_bytes += template.n_cross * page_bytes

    def _observe_copy_wear(self, destinations) -> None:
        """Count copy destinations' writes in the wear model.

        Every copy moves one whole macro page; destinations in the
        off-package array (``("mach", p)``) wear that machine frame.
        """
        if self.wear is None:
            return
        for dst in destinations:
            if dst is not None and dst[0] == "mach":
                self.wear.observe_copy(dst[1])

    def _stall_copies(self, now: int, start: int, steps: list[CopyStep]) -> int:
        """Run ``steps`` back to back from ``start`` under a plan-less
        stall window opened at ``now``; returns the cycle it closes.

        Nothing executes inside the window, so the copies land in the
        shadow at once and the table may already hold the final state.
        Each copy wears its destination and is priced by
        :meth:`_copy_duration`.
        """
        if self.shadow is not None:
            self.shadow.flush(now)
            for step in steps:
                self.shadow.apply_copy(step.src, step.dst)
        self._observe_copy_wear(step.dst for step in steps)
        end = start
        for step in steps:
            end += self._copy_duration(end, step)
        self.active = ActiveMigration(plan=None, start=now, end=end, fill=None)
        return end

    # ------------------------------------------------------------------
    # RAS predictive frame retirement
    # ------------------------------------------------------------------
    def retire_frame(self, now: int, slot: int, spare: int) -> int:
        """Permanently retire on-package frame ``slot``, copying its data
        out first: the occupant page goes home, the slot's own page is
        re-homed at the reserved ``spare`` machine page.

        :meth:`TranslationTable.retire_slot` on a clone validates the
        request; the copies, planned from the table to that clone, run
        under stall (a plan-less window, like a data-safe abort's
        copy-back), and the update is committed. Returns the cycle the
        copy-out window closes. The caller (the RAS
        controller) enforces the retirement *policy* — spare budget,
        minimum usable frames, not the empty slot; this method enforces
        only mechanical soundness (quiescence, no quarantine).
        """
        if self.quarantined:
            raise MigrationError("engine is quarantined; cannot retire frames")
        if self.active is not None and self.active.in_flight(now):
            raise MigrationError(
                "a swap is in flight (P/F busy); retirement must wait"
            )
        retired = self.table.clone()
        occupant = retired.retire_slot(slot, spare)
        steps = recovery_plan(self.table, [], target_table=retired)
        self.table.retire_slot(slot, spare)
        end = self._stall_copies(now, now, steps)
        nbytes = len(steps) * self.amap.macro_page_bytes
        self.frames_retired += 1
        self.retired_bytes += nbytes
        self.degradation_events.append(
            DegradationEvent(
                time=now, epoch=self.epochs_observed, kind=FRAME_RETIRED,
                detail=(
                    f"frame {slot} retired (occupant page {occupant} sent "
                    f"home, page {slot} re-homed at spare {spare}); "
                    f"{nbytes} bytes copied, stalled until cycle {end}; "
                    f"{self.table.n_usable_slots} usable frames remain"
                ),
                recovered=True,
            )
        )
        return end

    # ------------------------------------------------------------------
    # multi-tenant domain reclamation
    # ------------------------------------------------------------------
    def forget_pages(self, pages, slots=()) -> None:
        """Drop released pages from the trigger's candidate state.

        The epoch fold (:meth:`observe_epoch`) runs before the
        boundary's :meth:`maybe_swap`, and a tenant release is legal in
        between: without this purge the monitor could nominate a page
        whose tenant is gone, promoting a dead page into a live slot.
        """
        parr = np.array(sorted({int(p) for p in pages}), dtype=np.int64)
        self.monitor.forget_pages(parr, slots=slots)

    def release_tenant(self, now: int, pages) -> int:
        """Reclaim a departed tenant's translation state (hypervisor path).

        Every transposition involving one of ``pages`` is undone to the
        identity mapping via :meth:`TranslationTable.release_pages`; the
        surviving pages' copies, planned from a pre-release clone with
        the dead pages skipped, run under a plan-less stall window like
        a frame retirement's copy-out. The data shadow sees the freed
        pages zero-filled (the hypervisor's scrub-on-free). Returns the
        cycle the reclamation window closes.
        """
        if self.active is not None and self.active.in_flight(now):
            raise MigrationError(
                "a swap is in flight (P/F busy); reclamation must wait"
            )
        before = self.table.clone()
        undone_slots = self.table.release_pages(pages)
        steps = recovery_plan(before, [], target_table=self.table, skip=pages)
        end = now
        if steps:
            end = self._stall_copies(now, now, steps)
        if self.shadow is not None:
            self.shadow.flush(now)
            for p in sorted({int(q) for q in pages}):
                self.shadow.scrub_page(p, self.table.location(p))
        self.forget_pages(pages, slots=undone_slots)
        self.tenants_released += 1
        self.reclaimed_bytes += len(steps) * self.amap.macro_page_bytes
        return end

    def _collect_shadow_copy(
        self,
        ops: list[tuple[int, str, tuple]],
        src: tuple[str, int],
        dst: tuple[str, int],
        end: int,
        live_fill: FillInfo | None,
    ) -> None:
        """Translate one executed copy into time-stamped shadow ops.

        A Live fill lands sub-block by sub-block on its
        :meth:`FillInfo.landings` schedule; any other copy lands whole
        at its ``end``. A fully-landed copy opens a write-forwarding
        link.
        """
        if live_fill is not None:
            order, land = live_fill.landings()
            for sb, t in zip(order.tolist(), land.tolist()):
                ops.append((t, "copy", (src, dst, (sb,))))
        else:
            ops.append((end, "copy", (src, dst, None)))
        ops.append((end, "link", (src, dst)))

    def _recover_abort(
        self,
        now: int,
        t_abort: int,
        undo: dict,
        executed: list[tuple],
        exc: Exception,
    ) -> None:
        """Late abort: copy surviving duplicates home, then restore the
        pre-swap table.

        A bare table rollback restores *routing* but not *data*: past
        the Ω-resolution copy the victim page's home bytes are already
        overwritten, so the rolled-back table would route reads at dead
        data (the protocol checker's ``valid-copy`` counterexample) —
        and an N-design exchange torn between copies strands a page's
        only live copy in the bounce buffer under a bit-identical table.
        The recovery planner replays the executed copy prefix over the
        pre-swap content map and emits copy-back moves, preferring the
        surviving on-package duplicate; they run from the abort under a
        stall window opened at the swap's start, like an N-design
        exchange. An unrepairable mid-state still restores the table; the
        planner's error then propagates and counts as a failure.
        """
        pre_swap = self.table.clone()
        pre_swap.rollback(undo)
        try:
            steps = recovery_plan(pre_swap, executed, prefer_table=self.table)
        finally:
            self.table.rollback(undo)
        end = self._stall_copies(now, t_abort, steps)
        nbytes = len(steps) * self.amap.macro_page_bytes
        self.abort_recoveries += 1
        self.recovery_bytes += nbytes
        self.degradation_events.append(
            DegradationEvent(
                time=now, epoch=self.epochs_observed, kind=ABORT_RECOVERED,
                detail=(
                    f"{exc}; {len(steps)} copy-back step(s), {nbytes} bytes, "
                    f"stalled until cycle {end}"
                ),
                recovered=True,
            )
        )

    # ------------------------------------------------------------------
    @property
    def busy_until(self) -> int:
        return self.active.end if self.active is not None else 0
