"""Per-access reference simulator.

Processes the trace one access at a time with the *exact* hardware
structures: scalar table resolution (P/F bits + fill bitmap consulted
per sub-block), clock pseudo-LRU + multi-queue policies updated per
access, lazy application of swap-plan table updates at their scheduled
cycle, and open-page banks serviced in arrival (FIFO) order — the same
queueing semantics as the vectorised fast model, so the two simulators
can be cross-validated access-for-access on migration-free runs (see
``tests/test_simulator.py``).

Orders of magnitude slower than :class:`~repro.core.simulator.
EpochSimulator`; use it for small traces and for trusting the fast path.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from ..config import MigrationAlgorithm, SystemConfig
from ..dram.bank import Bank
from ..dram.timing import DramGeometry
from ..errors import SimulationError
from ..migration.algorithms import (
    TableUpdate,
    build_basic_swap_steps,
    build_swap_steps,
    crosses_boundary,
)
from ..migration.policies import ExactPolicies
from ..migration.table import EMPTY, TranslationTable
from ..trace.record import TraceChunk
from ..units import log2_exact
from .simulator import SimulationResult


class _Region:
    """One memory region's banks, serviced FIFO per bank."""

    def __init__(self, geometry: DramGeometry, path_overhead: int):
        self.geometry = geometry
        self.path_overhead = path_overhead
        self._banks: dict[int, Bank] = {}

    def access(self, local_addr: int, arrival: int) -> int:
        q = int(self.geometry.queue_of(local_addr))
        bank = self._banks.get(q)
        if bank is None:
            bank = self._banks[q] = Bank(self.geometry.timing)
        row = int(self.geometry.rows_of(local_addr))
        _, finish, _ = bank.access(row, arrival)
        return finish - arrival + self.path_overhead


class DetailedSimulator:
    """The slow, exact reference implementation.

    Oracle for :class:`~repro.core.simulator.EpochSimulator` on small
    traces: without migration the two must agree on every total, and
    with migration on the on-package fraction. No experiment runs it.
    """

    def __init__(self, config: SystemConfig, *, migrate: bool = True):
        self.config = config
        self.migrate = migrate
        self.amap = config.address_map()
        basic = config.migration.algorithm == MigrationAlgorithm.N
        self.table = TranslationTable(self.amap, reserve_empty_slot=not basic)
        self.policies = ExactPolicies(self.amap.n_onpkg_pages)
        self.onpkg = _Region(
            DramGeometry(config.onpkg_dram), config.latency.onpkg_overhead
        )
        self.offpkg = _Region(
            DramGeometry(config.offpkg_dram), config.latency.offpkg_overhead
        )
        self._sb_shift = log2_exact(self.amap.subblock_bytes)
        self._events: list[tuple[int, int, Callable[[], None]]] = []
        self._event_seq = 0
        self._busy_until = 0
        self._stall_until = 0
        self._epoch_off_counts: dict[int, int] = {}
        self._epoch_slot_counts: dict[int, int] = {}
        self._last_subblock: dict[int, int] = {}
        self.swaps_triggered = 0
        self.migrated_bytes = 0
        self.cross_boundary_bytes = 0

    # ------------------------------------------------------------------
    def _push_event(self, t: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (t, self._event_seq, fn))
        self._event_seq += 1

    def _drain_events(self, now: int) -> None:
        while self._events and self._events[0][0] <= now:
            _, _, fn = heapq.heappop(self._events)
            fn()

    # ------------------------------------------------------------------
    def _schedule_swap(self, now: int, mru: int, lru: int) -> None:
        cfg = self.config.migration
        if cfg.algorithm == MigrationAlgorithm.N:
            plan = build_basic_swap_steps(self.table, mru, lru)
        else:
            plan = build_swap_steps(self.table, mru, lru)
        live = cfg.algorithm == MigrationAlgorithm.LIVE
        t = now
        for step in plan.steps:
            if isinstance(step, TableUpdate):
                if cfg.os_assisted:
                    # user/kernel round trip per OS-managed table update
                    t += cfg.os_update_cycles
                if plan.stall:
                    step.apply(self.table)  # atomic under the halt
                else:
                    self._push_event(t, (lambda s=step: s.apply(self.table)))
                continue
            duration = self.config.bus.copy_cycles(
                plan.page_bytes, crosses_boundary(step.src, step.dst)
            )
            if step.incoming and not plan.stall:
                if live:
                    n_sb = self.amap.subblocks_per_page
                    sb_cycles = max(1, duration // n_sb)
                    first = self._last_subblock.get(mru, 0) if cfg.critical_block_first else 0
                    for k in range(n_sb):
                        sb = (first + k) % n_sb
                        self._push_event(
                            t + (k + 1) * sb_cycles,
                            (lambda b=sb: self.table.fill_subblock(b)),
                        )
                else:
                    self._push_event(t + duration, self.table.end_fill)
            t += duration
        if plan.stall:
            self._stall_until = t
        self._busy_until = t
        self.swaps_triggered += 1
        self.migrated_bytes += plan.total_copy_bytes
        self.cross_boundary_bytes += plan.cross_boundary_bytes
        self.policies.mq.forget(mru)

    def _epoch_boundary(self, now: int) -> None:
        try:
            if now < self._busy_until:
                return  # P/F bits block re-triggering
            mru = self.policies.hottest_page()
            if mru is None or mru == self.amap.ghost_page:
                return
            empty = self.table.empty_slot()
            # coldest on-package slot via the clock hand
            lru_slot = self.policies.coldest_slot()
            if empty is not None and lru_slot == empty:
                self.policies.clock.touch(lru_slot)
                lru_slot = self.policies.coldest_slot()
            lru_page = self.table.page_in_slot(lru_slot)
            if lru_page == EMPTY:
                return
            if self.config.migration.hottest_coldest_trigger:
                if self._epoch_off_counts.get(mru, 0) <= self._epoch_slot_counts.get(
                    lru_slot, 0
                ):
                    return
            self._schedule_swap(now, mru, lru_page)
        finally:
            self._epoch_off_counts.clear()
            self._epoch_slot_counts.clear()

    # ------------------------------------------------------------------
    def run(self, trace: TraceChunk) -> SimulationResult:
        result = SimulationResult()
        interval = self.config.migration.swap_interval
        cfg = self.config
        trans_cycles = cfg.migration.hw_translation_cycles
        page_shift = self.amap.offset_bits
        page_mask = self.amap.macro_page_bytes - 1
        n_on = self.amap.n_onpkg_pages

        addr_l = trace.addr.tolist()
        time_l = trace.time.tolist()
        for i, (addr, t) in enumerate(zip(addr_l, time_l)):
            self._drain_events(t)
            page = addr >> page_shift
            offset = addr & page_mask
            sb = offset >> self._sb_shift

            stall_extra = 0
            if t < self._stall_until:
                stall_extra = self._stall_until - t
                t = self._stall_until
                self._drain_events(t)

            on, machine = self.table.resolve(page, sb)
            if on:
                local = (machine << page_shift) | offset
                lat = self.onpkg.access(local, t)
                result.onpkg_accesses += 1
            else:
                local = ((machine - n_on) << page_shift) | offset
                lat = self.offpkg.access(local, t)
                if t < self._busy_until and not stall_extra:
                    lat += cfg.migration.interference_cycles
                result.offpkg_accesses += 1
            lat += trans_cycles + stall_extra
            result.n_accesses += 1
            result.total_latency += lat

            if self.migrate:
                if on:
                    self.policies.observe(slot=machine, offpkg_page=None)
                    self._epoch_slot_counts[machine] = (
                        self._epoch_slot_counts.get(machine, 0) + 1
                    )
                else:
                    self.policies.observe(slot=None, offpkg_page=page)
                    self._epoch_off_counts[page] = self._epoch_off_counts.get(page, 0) + 1
                    self._last_subblock[page] = sb
                if (i + 1) % interval == 0:
                    self._epoch_boundary(t + 1)

        result.swaps_triggered = self.swaps_triggered
        result.migrated_bytes = self.migrated_bytes
        result.cross_boundary_migrated_bytes = self.cross_boundary_bytes
        return result
