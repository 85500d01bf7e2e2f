"""The bidirectional physical->machine translation table (Figs 6, 7, 9).

Row ``r`` of the table describes on-package slot ``r``. Its right column
holds the macro page currently stored in that slot; by the paper's
invariant ("if macro page n (n < N) is located in the on-package region,
it can only be in the position of the n-th row"), a row pairing
``r <-> q`` simultaneously means *slot r holds page q's data* and *page
r's data lives at off-package machine page q* — the table encodes a set
of transpositions. The reserved off-package page Ω backs the N-1
design's "empty" slot: a row whose right column is EMPTY means the slot
is free and its page is the *Ghost* (data at Ω).

Two per-row bits refine resolution during a swap:

* **P (pending)** — the RAM direction ``r -> right-column`` is bypassed
  and page ``r`` resolves to Ω; the CAM direction (page->slot) still
  works. This is what lets a swap proceed without ever losing a valid
  physical copy.
* **F (filling)** — the slot is receiving data sub-block by sub-block
  (Live Migration, Fig 9); a bitmap says which 4 KB sub-blocks have
  landed, and only those resolve on-package.

The table keeps two dense mirror arrays (``machine_of`` page->machine
and ``onpkg`` flags) incrementally updated on every mutation, so the
epoch simulator can translate a whole access chunk with one fancy-index
— the RAM/CAM structures themselves stay hardware-sized.

The RAS subsystem (``repro.ras``) adds *predictive frame retirement*:
a slot whose DRAM row is decaying is taken out of service for good.
A retired row's right column is EMPTY but the slot never counts as the
free slot again, and the slot's home page ``r`` is permanently re-homed
at a reserved spare machine page (``remap[r]``) — one of the
``reserved_pages`` handed to the constructor, which are invisible to
the trace address space. All other machinery (swaps, audits, recovery)
simply sees a table with fewer usable slots.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ..address import AddressMap
from ..errors import TranslationTableError

#: right-column sentinel for the empty slot (represented by Ω in hardware)
EMPTY: int = -1

#: a machine location: ``("slot", i)`` on-package, ``("mach", p)``
#: off-package, or ``("buf", 0)``, the controller's bounce buffer
Location = tuple[str, int]


class PageCategory(Enum):
    """The five macro-page categories of Section III-A."""

    ORIGINAL_FAST = "OF"     # id < N, resident in its own slot
    ORIGINAL_SLOW = "OS"     # id >= N, resident at its own machine page
    MIGRATED_FAST = "MF"     # id >= N, resident in an on-package slot
    MIGRATED_SLOW = "MS"     # id < N, resident at its partner's machine page
    GHOST = "GHOST"          # id < N, resident at the reserved page Ω


class TranslationTable:
    """Pairing-invariant translation table with P/F bits and fill bitmap."""

    def __init__(
        self,
        amap: AddressMap,
        *,
        reserve_empty_slot: bool = True,
        reserved_pages: frozenset[int] | set[int] = frozenset(),
    ):
        self.amap = amap
        n = amap.n_onpkg_pages
        self.n_slots = n
        self._reserve_empty_slot = reserve_empty_slot
        #: off-package machine pages reserved as retirement spares; they
        #: are outside the data address space (like the ghost page Ω)
        self.reserved_pages = frozenset(int(p) for p in reserved_pages)
        for p in self.reserved_pages:
            if not n <= p < amap.ghost_page:
                raise TranslationTableError(
                    f"reserved spare page {p} must be off-package and below Ω"
                )
        #: permanently out-of-service slots (predictive retirement)
        self.retired = np.zeros(n, dtype=bool)
        #: retired slot r -> spare machine page now homing page r's data
        self.remap: dict[int, int] = {}
        #: right column: page stored in each slot (EMPTY for the free slot)
        self.pair = np.arange(n, dtype=np.int64)
        self.p_bit = np.zeros(n, dtype=bool)
        self.f_bit = np.zeros(n, dtype=bool)
        #: one bitmap (a single migration is in flight at a time, Fig 9)
        self.fill_bitmap = np.zeros(amap.subblocks_per_page, dtype=bool)
        self._filling_slot: int | None = None
        self._fill_page: int | None = None      # incoming page
        self._fill_source: int | None = None    # its old machine page
        #: CAM direction: page -> slot, for pages currently in a slot
        self._slot_of: dict[int, int] = {p: p for p in range(n)}

        # epoch-boundary lookup caches: the free slot and the
        # retired-slot set are asked for every epoch but change only when
        # a swap commits or a frame retires. A swap's write_swap sets the
        # free slot it leaves; every other pair/retired mutation
        # invalidates them
        self._empty_cache: int | None = None
        self._empty_cache_valid = False
        self._retired_cache: frozenset[int] | None = None

        # dense mirrors for vectorised resolution
        total = amap.n_total_pages
        self.machine_of = np.arange(total, dtype=np.int64)
        self.onpkg = np.zeros(total, dtype=bool)
        self.onpkg[:n] = True

        if reserve_empty_slot:
            # N-1 design: sacrifice the last slot; its page becomes the Ghost
            self._set_empty(n - 1)

    # ------------------------------------------------------------------
    # primitive mutations (each maintains the dense mirrors)
    # ------------------------------------------------------------------
    def _derive(self, page: int) -> tuple[bool, int]:
        """One page's ``(on_package, machine_page)`` from the table proper
        (the right column, CAM, P bits, fill and retirement state)."""
        amap = self.amap
        if page == self._fill_page:
            # the incoming page keeps resolving to its old copy until the
            # fill completes; the engine refines per sub-block / per time
            return False, self._fill_source
        if page < self.n_slots:
            spare = self.remap.get(page)
            if spare is not None:
                # the page's home frame is retired: permanent spare home
                return False, spare
            if self.p_bit[page]:
                # the ghost page id doubles as a machine frame id
                return False, amap.ghost_page  # repro-domain: machine_frame
            v = int(self.pair[page])
            if v == EMPTY:
                return False, amap.ghost_page  # repro-domain: machine_frame
            if v == page:
                # identity home: low pages home in the same-numbered slot
                return True, page  # repro-domain: machine_frame
            return False, v
        slot = self._slot_of.get(page)
        if slot is None:
            # un-migrated slow page: machine address == page id
            return False, page  # repro-domain: machine_frame
        return True, slot

    def _sync_page(self, page: int) -> None:
        """Recompute one page's dense-mirror entry from table state."""
        self.onpkg[page], self.machine_of[page] = self._derive(page)

    def _set_cam(self, slot: int, page: int) -> None:
        # validate before any mutation so a rejected update cannot leave
        # the table half-written
        if page != EMPTY and page in self._slot_of and self._slot_of[page] != slot:
            raise TranslationTableError(
                f"page {page} already mapped to slot {self._slot_of[page]}"
            )
        old = int(self.pair[slot])
        if old != EMPTY and self._slot_of.get(old) == slot:
            del self._slot_of[old]
        self.pair[slot] = page
        if page != EMPTY:
            self._slot_of[page] = slot
        self._empty_cache_valid = False

    def set_pair(self, slot: int, page: int) -> None:
        """Write the right column of ``slot`` to ``page`` (table update)."""
        self._check_slot(slot)
        if not 0 <= page < self.amap.n_total_pages:
            raise TranslationTableError(f"page {page} out of range")
        if self.retired[slot]:
            raise TranslationTableError(f"slot {slot} is retired")
        if page in self.reserved_pages:
            raise TranslationTableError(
                f"page {page} is a reserved spare and cannot be mapped"
            )
        if page in self.remap:
            raise TranslationTableError(
                f"page {page}'s home frame is retired; it lives at spare "
                f"{self.remap[page]} for good"
            )
        old = int(self.pair[slot])
        self._set_cam(slot, page)
        for p in {page, slot, old} - {EMPTY}:
            if 0 <= p < self.amap.n_total_pages:
                self._sync_page(p)

    def set_empty(self, slot: int) -> None:
        """Mark ``slot`` as the empty slot (right column := Ω/EMPTY)."""
        self._check_slot(slot)
        if self.retired[slot]:
            raise TranslationTableError(f"slot {slot} is retired")
        self._set_empty(slot)

    def _set_empty(self, slot: int) -> None:
        # the paper's final swap step marks the row empty AND clears its
        # P bit in one update (Fig 8(d) step 10)
        old = int(self.pair[slot])
        self._set_cam(slot, EMPTY)
        self.f_bit[slot] = False
        self.p_bit[slot] = False
        for p in {slot, old} - {EMPTY}:
            if 0 <= p < self.amap.n_total_pages:
                self._sync_page(p)

    def set_pending(self, slot: int, value: bool) -> None:
        self._check_slot(slot)
        if self.retired[slot]:
            raise TranslationTableError(f"slot {slot} is retired")
        self.p_bit[slot] = value
        self._sync_page(slot)

    def begin_fill(self, slot: int, source_machine_page: int) -> None:
        """Set the F bit: ``slot`` starts receiving its (already CAM-mapped)
        page from ``source_machine_page``, sub-block by sub-block (Fig 9)."""
        self._check_slot(slot)
        if self.retired[slot]:
            raise TranslationTableError(f"slot {slot} is retired")
        if self._filling_slot is not None:
            raise TranslationTableError("another slot is already filling")
        page = int(self.pair[slot])
        if page == EMPTY:
            raise TranslationTableError("fill target slot has no mapped page")
        self.f_bit[slot] = True
        self.fill_bitmap[:] = False
        self._filling_slot = slot
        self._fill_page = page
        self._fill_source = source_machine_page
        self._sync_page(page)

    def fill_subblock(self, subblock: int) -> None:
        if self._filling_slot is None:
            raise TranslationTableError("no fill in progress")
        self.fill_bitmap[subblock] = True
        if bool(self.fill_bitmap.all()):
            self.end_fill()

    def end_fill(self) -> None:
        """Clear the F bit (all sub-blocks landed, or fill aborted)."""
        if self._filling_slot is None:
            return
        slot = self._filling_slot
        page = self._fill_page
        self.f_bit[slot] = False
        self.fill_bitmap[:] = False
        self._filling_slot = None
        self._fill_page = None
        self._fill_source = None
        if page is not None:
            self._sync_page(page)

    @property
    def filling(self) -> bool:
        return self._filling_slot is not None

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(self, page: int, subblock: int | None = None) -> tuple[bool, int]:
        """``(on_package, machine_page)`` of one physical page.

        ``subblock`` refines resolution for a page whose slot is filling:
        already-landed sub-blocks are served on-package, the rest from
        the old off-package copy.
        """
        if not 0 <= page < self.amap.n_total_pages:
            raise TranslationTableError(f"page {page} out of range")
        if page == self._fill_page:
            if subblock is not None and bool(self.fill_bitmap[subblock]):
                return True, self._filling_slot
            return False, self._fill_source
        return bool(self.onpkg[page]), int(self.machine_of[page])

    def location(self, page: int, subblock: int | None = None) -> Location:
        """The machine location :meth:`resolve` names, as a
        :data:`Location`."""
        on, machine = self.resolve(page, subblock)
        return ("slot", machine) if on else ("mach", machine)

    @property
    def dataless_pages(self) -> frozenset[int]:
        """Pages that carry no program data: the reserved Ω and the RAS
        spares. A spare's machine frame holds a retired page's data,
        which that page's own resolution reaches."""
        return self.reserved_pages | {self.amap.ghost_page}

    def resolve_many(self, pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised ``(on_package, machine_page)`` via the dense mirrors.

        A filling page resolves off-package here; the engine applies the
        per-sub-block, per-time refinement for the (single) in-flight
        page.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size and (pages.min() < 0 or pages.max() >= self.amap.n_total_pages):
            raise TranslationTableError(
                f"page index outside [0, {self.amap.n_total_pages}): the trace "
                "addresses exceed the configured memory size"
            )
        return self.onpkg[pages], self.machine_of[pages]

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def category(self, page: int) -> PageCategory:
        """Classify a page into the five categories of Section III-A."""
        if not 0 <= page < self.amap.n_total_pages:
            raise TranslationTableError(f"page {page} out of range")
        n = self.n_slots
        if page < n:
            if page in self.remap:
                # home frame retired: permanently resident at its spare
                return PageCategory.MIGRATED_SLOW
            v = int(self.pair[page])
            if self.p_bit[page] or v == EMPTY:
                return PageCategory.GHOST
            if v == page:
                return PageCategory.ORIGINAL_FAST
            return PageCategory.MIGRATED_SLOW
        if page in self._slot_of:
            return PageCategory.MIGRATED_FAST
        return PageCategory.ORIGINAL_SLOW

    def slot_of(self, page: int) -> int | None:
        """The slot currently holding this page's data, if any."""
        if page < self.n_slots:
            # identity home: slot id == page id for un-migrated fast pages
            return page if int(self.pair[page]) == page else None  # repro-domain: machine_frame
        return self._slot_of.get(page)

    def empty_slot(self) -> int | None:
        """The current empty slot (N-1 design), if any.

        Retired slots also carry an EMPTY right column but are out of
        service for good, so they never count as the free slot.
        """
        if not self._empty_cache_valid:
            empties = np.flatnonzero((self.pair == EMPTY) & ~self.retired)
            self._empty_cache = int(empties[0]) if empties.size else None
            self._empty_cache_valid = True
        return self._empty_cache

    def retired_slots(self) -> frozenset[int]:
        """The set of permanently retired slot ids (cached: retirement is
        rare, but the swap trigger excludes these every epoch)."""
        if self._retired_cache is None:
            self._retired_cache = frozenset(np.flatnonzero(self.retired).tolist())
        return self._retired_cache

    def page_in_slot(self, slot: int) -> int:
        self._check_slot(slot)
        return int(self.pair[slot])

    def resident_pages(self) -> np.ndarray:
        """Pages currently resident on-package (one per occupied slot)."""
        return self.pair[self.pair != EMPTY].copy()

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.n_slots:
            raise TranslationTableError(f"slot {slot} out of range [0, {self.n_slots})")

    # ------------------------------------------------------------------
    # predictive frame retirement (RAS subsystem)
    # ------------------------------------------------------------------
    @property
    def n_retired(self) -> int:
        return int(self.retired.sum())

    @property
    def n_usable_slots(self) -> int:
        """On-package frames still in service (graceful degradation)."""
        return self.n_slots - self.n_retired

    def is_retired_home(self, page: int) -> bool:
        """True when ``page``'s home frame is retired (page lives at a
        spare and must never be promoted on-package again)."""
        return page in self.remap

    def retire_slot(self, slot: int, spare: int) -> int:
        """Permanently take ``slot`` out of service, re-homing its home
        page at the reserved ``spare`` machine page.

        This is only the atomic table update. The data movement (page
        ``slot``'s data to the spare, a transposed occupant home) is
        planned by :func:`repro.migration.recovery.recovery_plan` from
        this table to a :meth:`clone` that has taken the update, so a
        rejected retirement leaves both the table and the data as they
        were. Returns the occupant page that left the slot.
        """
        self._check_slot(slot)
        if self.retired[slot]:
            raise TranslationTableError(f"slot {slot} is already retired")
        if spare not in self.reserved_pages:
            raise TranslationTableError(
                f"page {spare} is not a reserved spare page"
            )
        if spare in self.remap.values():
            raise TranslationTableError(f"spare page {spare} already in use")
        if bool(self.p_bit[slot]) or bool(self.f_bit[slot]) or self._filling_slot == slot:
            raise TranslationTableError(
                f"slot {slot} is mid-swap; retirement requires quiescence"
            )
        occupant = int(self.pair[slot])
        if occupant == EMPTY:
            raise TranslationTableError(
                "cannot retire the empty slot (the N-1 design needs it)"
            )
        self._set_cam(slot, EMPTY)
        self.retired[slot] = True
        self.remap[slot] = int(spare)
        self._empty_cache_valid = False
        self._retired_cache = None
        for p in sorted({slot, occupant}):
            self._sync_page(p)
        return occupant

    # ------------------------------------------------------------------
    # multi-tenant slot reclamation (tenancy subsystem)
    # ------------------------------------------------------------------
    def release_pages(self, pages) -> tuple[int, ...]:
        """Undo every transposition involving a released page set.

        A departing tenant's pages must stop occupying on-package slots
        and stop displacing surviving pages: each row ``r <-> q`` where
        either side belongs to ``pages`` returns to the identity
        mapping. When the release leaves a freed identity row while the
        current ghost page survives, the EMPTY row relocates onto the
        freed row, so freed capacity absorbs the ghost role instead of
        a live page paying Ω latency for it.

        This is only the routing update. The copies that carry the
        surviving pages to their new resolution (at most one per undone
        row, since a transposition has one live side or none, plus the
        ghost page's Ω -> slot copy) are planned by
        :func:`repro.migration.recovery.recovery_plan` from a
        pre-release :meth:`clone`, skipping the released pages: their
        data is dead, their old locations keep stale bytes, and
        scrub-on-free is the caller's job. Returns the rows whose
        pairing changed (for recency bookkeeping).

        Like retirement, this requires swap quiescence. The mutation is
        applied with direct right-column writes (one bulk update, the
        way a hypervisor would patch the table), which bypass
        ``_set_cam`` — so the epoch-boundary ``empty_slot`` cache is
        invalidated explicitly below.
        """
        page_set = {int(p) for p in pages}
        for p in sorted(page_set):
            if not 0 <= p < self.amap.ghost_page:
                raise TranslationTableError(
                    f"released page {p} outside the data space [0, "
                    f"{self.amap.ghost_page})"
                )
            if p in self.reserved_pages:
                raise TranslationTableError(
                    f"released page {p} is a reserved RAS spare"
                )
        if (
            self._filling_slot is not None
            or bool(self.f_bit.any())
            or bool(self.p_bit.any())
        ):
            raise TranslationTableError(
                "release requires a quiescent table (a swap is in flight)"
            )

        # direct bulk writes (bypassing _set_cam); the EMPTY row is
        # read first, as no undone row is the EMPTY one
        e = self.empty_slot()
        undone: list[int] = []
        for slot in range(self.n_slots):
            q = int(self.pair[slot])
            # q == slot is the identity-home test (nothing to undo);
            # retired rows are EMPTY
            if q == EMPTY or q == slot:  # repro-lint: disable=domain-confusion
                continue
            # slot doubles as the row's home-page id in the pairing
            if q not in page_set and slot not in page_set:  # repro-lint: disable=domain-confusion
                continue
            del self._slot_of[q]
            self.pair[slot] = slot
            self._slot_of[slot] = slot
            self._sync_page(slot)
            self._sync_page(q)
            undone.append(slot)

        if e is not None and e not in page_set:
            # the ghost page survives the release; a released identity
            # row can take over the EMPTY role
            candidates = [
                s
                for s in sorted(page_set)
                # a released page id below n_slots doubles as a row index
                if s < self.n_slots  # repro-lint: disable=domain-confusion
                and int(self.pair[s]) == s
            ]
            if candidates:
                # mirror boot's usable[-1] convention: highest row
                r = max(candidates)
                self.pair[e] = e
                self._slot_of[e] = e
                self.pair[r] = EMPTY
                self._slot_of.pop(r, None)
                self._sync_page(e)
                self._sync_page(r)
                undone.extend((e, r))
        # THE direct writes above never went through _set_cam, so the
        # epoch-boundary empty-slot cache would go stale without this
        self._empty_cache_valid = False
        return tuple(undone)

    # ------------------------------------------------------------------
    # snapshot / restore / recovery (resilience subsystem)
    # ------------------------------------------------------------------
    def undo_point(self, rows: np.ndarray, pages: np.ndarray) -> dict:
        """Row-scoped undo record for a swap plan about to be applied.

        Captures exactly what the plan's table updates can write: the
        ``pair``/P/F entries of ``rows``, the fill bitmap and fill
        scalars, and the CAM and dense-mirror entries of ``pages`` (both
        arrays of distinct ids). :meth:`rollback` restores the table to
        this point provided nothing outside the record changed. That
        holds for a swap plan: its ops name only ``rows`` and touch only
        the pages of its swap template, and the only fill it can end is
        its own (a swap starts between epochs, with no fill in flight).
        """
        return {
            "rows": rows,
            "pair": self.pair[rows],
            "p_bit": self.p_bit[rows],
            "f_bit": self.f_bit[rows],
            "fill_bitmap": self.fill_bitmap.copy(),
            "filling_slot": self._filling_slot,
            "fill_page": self._fill_page,
            "fill_source": self._fill_source,
            "pages": pages,
            "cam": {p: self._slot_of.get(p) for p in pages.tolist()},
            "machine_of": self.machine_of[pages],
            "onpkg": self.onpkg[pages],
        }

    def rollback(self, undo: dict) -> None:
        """Restore the state captured by :meth:`undo_point`."""
        self._write_record(undo)
        self._empty_cache_valid = False

    def write_swap(self, state: dict) -> None:
        """Write a swap's table state in one update: an
        :meth:`undo_point`-shaped record of the named rows and pages
        (``fill_bitmap`` None leaves the bitmap alone) plus the
        ``empty_slot`` it leaves, which becomes the cached free slot.

        The caller (the engine, from a swap template) has checked that
        the record is the plan's effect on this table's pre-state.
        """
        self._write_record(state)
        self._empty_cache = state["empty_slot"]
        self._empty_cache_valid = True

    def _write_record(self, record: dict) -> None:
        rows, pages = record["rows"], record["pages"]
        self.pair[rows] = record["pair"]
        self.p_bit[rows] = record["p_bit"]
        self.f_bit[rows] = record["f_bit"]
        if record["fill_bitmap"] is not None:
            self.fill_bitmap[:] = record["fill_bitmap"]
        self._filling_slot = record["filling_slot"]
        self._fill_page = record["fill_page"]
        self._fill_source = record["fill_source"]
        for page, slot in record["cam"].items():
            if slot is None:
                self._slot_of.pop(page, None)
            else:
                self._slot_of[page] = slot
        self.machine_of[pages] = record["machine_of"]
        self.onpkg[pages] = record["onpkg"]

    def state_dict(self) -> dict:
        """Complete mutable state as plain arrays/values (copyable).

        The source of :meth:`clone` and of the protocol checker's
        snapshots, and the ``migration.table_snapshot`` entry point the
        benchmark suite's tracer hooks. Checkpoints pickle the table with
        the rest of the simulator instead. A swap does not take one: it
        rolls back a torn plan through the row-scoped :meth:`undo_point`
        record.
        """
        return {
            "pair": self.pair.copy(),
            "p_bit": self.p_bit.copy(),
            "f_bit": self.f_bit.copy(),
            "fill_bitmap": self.fill_bitmap.copy(),
            "filling_slot": self._filling_slot,
            "fill_page": self._fill_page,
            "fill_source": self._fill_source,
            "slot_of": dict(self._slot_of),
            "machine_of": self.machine_of.copy(),
            "onpkg": self.onpkg.copy(),
            "retired": self.retired.copy(),
            "remap": dict(self.remap),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (same geometry assumed)."""
        if state["pair"].shape[0] != self.n_slots:
            raise TranslationTableError(
                f"snapshot has {state['pair'].shape[0]} slots, table has "
                f"{self.n_slots}"
            )
        self.pair = state["pair"].copy()
        self.p_bit = state["p_bit"].copy()
        self.f_bit = state["f_bit"].copy()
        self.fill_bitmap = state["fill_bitmap"].copy()
        self._filling_slot = state["filling_slot"]
        self._fill_page = state["fill_page"]
        self._fill_source = state["fill_source"]
        self._slot_of = dict(state["slot_of"])
        self.machine_of = state["machine_of"].copy()
        self.onpkg = state["onpkg"].copy()
        self.retired = state["retired"].copy()
        self.remap = dict(state["remap"])
        self._empty_cache_valid = False
        self._retired_cache = None

    def clone(self, state: dict | None = None) -> "TranslationTable":
        """A same-geometry table loaded with ``state`` (a
        :meth:`state_dict` snapshot), or with this table's current state
        when ``state`` is None."""
        twin = TranslationTable(
            self.amap, reserve_empty_slot=self._reserve_empty_slot,
            reserved_pages=self.reserved_pages,
        )
        twin.load_state_dict(self.state_dict() if state is None else state)
        return twin

    def reset_identity(self) -> int:
        """Roll back to the boot-time identity mapping (quarantine path).

        Conceptually the migration controller quiesces, copies every
        displaced page home, and clears all swap state, leaving the
        static mapping of Section II. Returns how many macro pages were
        away from their home location (for recovery-cost accounting).
        """
        n = self.n_slots
        home = np.arange(n, dtype=np.int64)
        home[self.retired] = EMPTY  # retired frames stay out of service
        displaced = int((self.pair != home).sum())
        self.pair = home.copy()
        self._empty_cache_valid = False
        self._retired_cache = None
        self.p_bit[:] = False
        self.f_bit[:] = False
        self.fill_bitmap[:] = False
        self._filling_slot = None
        self._fill_page = None
        self._fill_source = None
        self._slot_of = {p: p for p in range(n) if not self.retired[p]}
        self._rebuild_mirrors()
        if self._reserve_empty_slot:
            usable = np.flatnonzero(~self.retired)
            if usable.size == 0:
                raise TranslationTableError(
                    "every on-package frame is retired; no empty slot possible"
                )
            self._set_empty(int(usable[-1]))
        return displaced

    def audit(self) -> None:
        """Strict between-epoch consistency sweep (resilience audits).

        On top of :meth:`check_invariants`, require that no swap residue
        is left between epochs: the engine applies a plan's table updates
        atomically at schedule time, so at every epoch boundary P bits,
        F bits and the fill bitmap must be quiescent. A violation means
        the state was corrupted behind the API (or a swap was torn by a
        fault) and the caller should :meth:`repair`.
        """
        self.check_invariants()
        if self._filling_slot is None:
            if bool(self.f_bit.any()):
                raise TranslationTableError(
                    f"stray F bit on slots {np.flatnonzero(self.f_bit).tolist()} "
                    "with no fill in progress"
                )
            if bool(self.fill_bitmap.any()):
                raise TranslationTableError("stray fill bitmap with no fill in progress")
        else:
            expected = np.zeros(self.n_slots, dtype=bool)
            expected[self._filling_slot] = True
            if not np.array_equal(self.f_bit, expected):
                raise TranslationTableError(
                    f"F bits {np.flatnonzero(self.f_bit).tolist()} do not match "
                    f"the filling slot {self._filling_slot}"
                )
        if bool(self.p_bit.any()):
            raise TranslationTableError(
                f"stray P bit on slots {np.flatnonzero(self.p_bit).tolist()} "
                "between epochs"
            )

    def repair(self) -> list[str]:
        """Clear recoverable corruption; returns a description of each fix.

        Handles flipped P/F bits, bitmap residue and stale dense mirrors
        — the single-event-upset class of faults. Structural damage the
        pairing invariant cannot absorb (duplicate right-column entries)
        is not repairable in place; callers fall back to
        :meth:`reset_identity`.
        """
        fixes: list[str] = []
        # rebuild the CAM from the right column (the authoritative state)
        rebuilt: dict[int, int] = {}
        for slot in range(self.n_slots):
            page = int(self.pair[slot])
            if page == EMPTY:
                continue
            if page in rebuilt:
                raise TranslationTableError(
                    f"unrepairable: page {page} in rows {rebuilt[page]} and {slot}"
                )
            rebuilt[page] = slot
        if rebuilt != self._slot_of:
            self._slot_of = rebuilt
            fixes.append("rebuilt CAM from right column")
        if self._filling_slot is None:
            if bool(self.f_bit.any()):
                fixes.append(
                    f"cleared stray F bits {np.flatnonzero(self.f_bit).tolist()}"
                )
                self.f_bit[:] = False
            if bool(self.fill_bitmap.any()):
                fixes.append("cleared stray fill bitmap")
                self.fill_bitmap[:] = False
        if bool(self.p_bit.any()):
            fixes.append(f"cleared stray P bits {np.flatnonzero(self.p_bit).tolist()}")
            self.p_bit[:] = False
        self._rebuild_mirrors()
        self.check_invariants()
        return fixes

    def _derived_mirrors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(onpkg, machine_of)`` recomputed from the table proper."""
        n = self.n_slots
        total = self.amap.n_total_pages
        machine_of = np.arange(total, dtype=np.int64)
        onpkg = np.zeros(total, dtype=bool)
        onpkg[:n] = True
        # only low pages, paired pages and the filling page can differ
        # from the boot mapping
        pages = set(range(n)) | set(self.pair.tolist()) | {self._fill_page}
        pages -= {EMPTY, None}
        for page in pages:
            onpkg[page], machine_of[page] = self._derive(page)
        return onpkg, machine_of

    def _rebuild_mirrors(self) -> None:
        """Recompute the dense mirrors from the table proper."""
        self.onpkg, self.machine_of = self._derived_mirrors()

    def check_invariants(self) -> None:
        """Assert the structural invariants; used by tests and the engine.

        * every non-EMPTY right column appears in exactly one row;
        * CAM dict mirrors the right column exactly;
        * the dense mirrors equal a rebuild from the table proper;
        * at most one slot is filling.
        """
        seen: dict[int, int] = {}
        for slot in range(self.n_slots):
            v = int(self.pair[slot])
            if v == EMPTY:
                continue
            if v in seen:
                raise TranslationTableError(
                    f"page {v} mapped to slots {seen[v]} and {slot}"
                )
            seen[v] = slot
        if seen != self._slot_of:
            raise TranslationTableError("CAM dict out of sync with right column")
        if int(self.f_bit.sum()) > 1:
            raise TranslationTableError("more than one slot filling")
        # retirement structure: flags, remap and mirrors must agree
        if bool((self.retired & (self.pair != EMPTY)).any()):
            raise TranslationTableError(
                f"retired slots {np.flatnonzero(self.retired & (self.pair != EMPTY)).tolist()} "
                "still have a mapped page"
            )
        if set(self.remap) != set(np.flatnonzero(self.retired).tolist()):
            raise TranslationTableError("remap keys disagree with retired flags")
        spares = list(self.remap.values())
        if len(set(spares)) != len(spares):
            raise TranslationTableError("two retired frames share a spare page")
        for page, spare in self.remap.items():
            if spare not in self.reserved_pages:
                raise TranslationTableError(
                    f"retired page {page} remapped to non-reserved page {spare}"
                )
        onpkg, machine_of = self._derived_mirrors()
        stale = np.flatnonzero(
            (onpkg != self.onpkg) | (machine_of != self.machine_of)
        )
        if stale.size:
            raise TranslationTableError(
                f"dense mirror out of sync for pages {stale[:8].tolist()}"
            )
