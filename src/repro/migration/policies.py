"""Hot/cold page tracking policies.

The hardware (Section III-B) tracks the on-package LRU macro page with a
clock-based pseudo-LRU bitmap (one bit per slot) and the off-package MRU
macro page with a 3-level x 10-entry multi-queue:

* :class:`ExactPolicies` — those exact structures, updated per access;
  used by the detailed simulator and the policy unit tests.
* :class:`EpochMonitor` — the vectorised rule the epoch simulator runs
  instead, not an equivalent of the hardware: coldest = the on-package
  slot with the oldest last touch, hottest = the off-package page with
  the most accesses this epoch, recency-tie-broken. Its counts reset at
  each epoch boundary; the multi-queue's state spans epochs.
  ``tests/test_policies.py`` cross-checks the two only where the
  monitor's coldest slot is one the trace never touched; nothing
  compares hottest pages (ROADMAP item 12).
"""

from __future__ import annotations

import numpy as np

from ..cache.replacement import ClockPseudoLRU, MultiQueue
from ..errors import MigrationError


class ExactPolicies:
    """Per-access clock pseudo-LRU (slots) + multi-queue (off-pkg pages)."""

    def __init__(self, n_slots: int, *, mq_levels: int = 3, mq_capacity: int = 10):
        self.clock = ClockPseudoLRU(n_slots)
        self.mq = MultiQueue(mq_levels, mq_capacity)

    def observe(self, *, slot: int | None, offpkg_page: int | None) -> None:
        """Record one access: it hit a slot (on-package) XOR an off-package page."""
        if (slot is None) == (offpkg_page is None):
            raise MigrationError("exactly one of slot / offpkg_page must be given")
        if slot is not None:
            self.clock.touch(slot)
        else:
            self.mq.touch(offpkg_page)

    def coldest_slot(self) -> int:
        return self.clock.victim()

    def hottest_page(self) -> int | None:
        return self.mq.hottest()

    def forget_page(self, page: int) -> None:
        self.mq.forget(page)

    @property
    def state_bits(self) -> int:
        return self.clock.state_bits + self.mq.state_bits


#: largest page-id span for which the epoch fold aggregates densely
#: (bincount); wider spans keep the sort-based np.unique pass
_DENSE_FOLD_PAGES = 1 << 16

#: last-touch value that ranks an excluded slot after every real one
_NEVER_COLDEST = np.iinfo(np.int64).max


class EpochMonitor:
    """Vectorised epoch statistics feeding the swap trigger.

    Keeps, across epochs, each slot's last-touch time. Per epoch it
    keeps each off-package page touched, with its access count,
    last-touch time and last-touched sub-block (the critical-first fill
    start), as parallel arrays sorted by page.
    """

    def __init__(self, n_slots: int):
        if n_slots <= 0:
            raise MigrationError("n_slots must be positive")
        self.n_slots = n_slots
        self.slot_last_touch = np.full(n_slots, -1, dtype=np.int64)
        self.slot_epoch_counts = np.zeros(n_slots, dtype=np.int64)
        # dense per-page scratch for the epoch fold (values are always
        # written before they are read)
        self._fold_scratch: np.ndarray | None = None
        self.new_epoch()

    def observe_epoch(
        self,
        slots: np.ndarray,
        slot_times: np.ndarray,
        offpkg_pages: np.ndarray,
        off_times: np.ndarray,
        off_subblocks: np.ndarray | None = None,
    ) -> None:
        """Fold one epoch's accesses into the monitor (all arrays 1-D).

        ``off_subblocks`` runs parallel to ``offpkg_pages``; without it
        every page's last-touched sub-block reads 0.
        """
        slots = self.touch_slots(slots, slot_times)
        if slots.size:
            self.slot_epoch_counts += np.bincount(slots, minlength=self.n_slots)

        off = np.asarray(offpkg_pages, dtype=np.int64)
        if not off.size:
            empty = np.zeros(0, dtype=np.int64)
            self._off_pages = self._off_counts = empty
            self._off_last = self._off_subblocks = empty
            return
        off_times = np.asarray(off_times, dtype=np.int64)
        n = off.shape[0]
        # dense fold for small page spans: np.flatnonzero of the count
        # vector is exactly np.unique's sorted page list, and with
        # non-decreasing epoch times the *last* write per page is the
        # per-page maximum that np.maximum.at computes — both checked,
        # so the sorting fallback stays bit-identical
        dense = int(off.max()) < _DENSE_FOLD_PAGES and bool(
            (off_times[1:] >= off_times[:-1]).all()
        )
        if dense:
            counts_dense = np.bincount(off)
            pages = np.flatnonzero(counts_dense)
            counts = counts_dense[pages]
            scratch = self._fold_scratch
            if scratch is None:
                scratch = self._fold_scratch = np.zeros(
                    _DENSE_FOLD_PAGES, dtype=np.int64
                )
            scratch[off] = off_times
            last = scratch[pages]
            scratch[off] = np.arange(n, dtype=np.int64)
            last_idx = scratch[pages]
        else:
            pages, inverse, counts = np.unique(
                off, return_inverse=True, return_counts=True
            )
            last = np.zeros(pages.shape[0], dtype=np.int64)
            np.maximum.at(last, inverse, off_times)
            last_idx = np.zeros(pages.shape[0], dtype=np.int64)
            last_idx[inverse] = np.arange(n)
        self._off_pages = pages
        self._off_counts = counts
        self._off_last = last
        self._off_subblocks = (
            np.zeros(pages.shape[0], dtype=np.int64)
            if off_subblocks is None
            else np.asarray(off_subblocks)[last_idx]
        )

    def touch_slots(self, slots, slot_times) -> np.ndarray:
        """Fold on-package accesses into each slot's last-touch time, the
        only monitor state that outlives an epoch; returns ``slots`` as
        int64."""
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size:
            st = np.asarray(slot_times, dtype=np.int64)
            if bool((st[1:] >= st[:-1]).all()):
                # non-decreasing times: a gather-max scatter's last
                # write per slot IS the per-slot maximum
                self.slot_last_touch[slots] = np.maximum(
                    self.slot_last_touch[slots], st
                )
            else:
                # last touch per slot: maximum time per slot id
                np.maximum.at(self.slot_last_touch, slots, st)
        return slots

    def coldest_slot(self, exclude: set[int] | None = None) -> int:
        """Slot with the oldest last touch (never-touched slots first).

        Ties go to the lowest slot id: ``argmin`` returns the first
        index of the minimum, which is the ``(last_touch, slot)`` order.
        """
        last = self.slot_last_touch
        if exclude:
            last = last.copy()
            last[list(exclude)] = _NEVER_COLDEST
        slot = int(np.argmin(last))
        if exclude and slot in exclude:
            raise MigrationError("all slots excluded")
        return slot

    def hottest_page(self, penalty=None) -> tuple[int, int] | None:
        """``(page, epoch_count)`` of the hottest off-package page.

        ``penalty`` maps a page array to a per-page score penalty (RAS
        wear plus any negative row-disturbance bonus): candidates are
        ranked by ``count - penalty``, so a worn-out machine page loses
        the swap even when slightly hotter. The *returned* count is
        always the raw epoch count, so the hottest-coldest trigger
        comparison is unchanged. ``None`` keeps the selection
        bit-identical to the plain count ranking.
        """
        if self._off_pages.size == 0:
            return None
        if penalty is None:
            # highest count, most recent touch breaking ties
            idx = np.lexsort((self._off_last, self._off_counts))[-1]
        else:
            score = self._off_counts.astype(np.float64)
            score -= np.asarray(penalty(self._off_pages), dtype=np.float64)
            idx = np.lexsort((self._off_last, score))[-1]
        return int(self._off_pages[idx]), int(self._off_counts[idx])

    def last_subblock(self, page: int) -> int:
        """Sub-block ``page`` was last touched at this epoch (where a
        critical-block-first fill starts); 0 when unseen."""
        i = int(np.searchsorted(self._off_pages, page))
        if i < self._off_pages.shape[0] and int(self._off_pages[i]) == page:
            return int(self._off_subblocks[i])
        return 0

    def slot_epoch_count(self, slot: int) -> int:
        return int(self.slot_epoch_counts[slot])

    def new_epoch(self) -> None:
        self.slot_epoch_counts[:] = 0
        self._off_pages = np.zeros(0, dtype=np.int64)
        self._off_counts = np.zeros(0, dtype=np.int64)
        self._off_last = np.zeros(0, dtype=np.int64)
        self._off_subblocks = np.zeros(0, dtype=np.int64)

    def forget_pages(self, pages: np.ndarray, slots=()) -> None:
        """Purge released pages/slots from the monitor (tenant churn).

        The off-package fold survives until the boundary's swap
        evaluation consumes it, and a tenant release is legal in
        between — without this filter a freed page could win the
        hottest ranking and be promoted after its owner is gone.
        Reclaimed ``slots`` get their recency cleared: a never-touched
        slot sorts coldest, so freed capacity is immediately demotable.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and self._off_pages.size:
            keep = ~np.isin(self._off_pages, pages)
            if not bool(keep.all()):
                self._off_pages = self._off_pages[keep]
                self._off_counts = self._off_counts[keep]
                self._off_last = self._off_last[keep]
                self._off_subblocks = self._off_subblocks[keep]
        for slot in slots:
            self.slot_last_touch[slot] = -1
            self.slot_epoch_counts[slot] = 0

    def __getstate__(self) -> dict:
        # the fold scratch is written before every read: keep its 512 KB
        # out of checkpoints (observe_epoch reallocates it on demand)
        return {**self.__dict__, "_fold_scratch": None}
