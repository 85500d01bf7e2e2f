"""Hottest-coldest swap step sequences — the four cases of Fig 8.

A swap brings the MRU (hottest) off-package macro page on-package and
demotes the LRU (coldest) on-package page. The case depends on whether
each is an original or a migrated page:

====== ==================== ====================
case   MRU (off-package)    LRU (on-package)
====== ==================== ====================
A      OS (id >= N)          OF (id < N)
B      OS                    MF (id >= N)
C      MS (id < N)           OF
D      MS                    MF
====== ==================== ====================

Each sequence is a list of :class:`CopyStep` / :class:`TableUpdate`
items executed in order by the engine. A copy moves one macro page
between two machine locations; it takes the page's bus time
(:meth:`~repro.config.BusConfig.copy_cycles`), over the off-package bus
exactly when an endpoint is off-package (:func:`crosses_boundary`) and
over the on-package interconnect otherwise. Updates are instantaneous
compound table mutations applied between copies. The sequences are
constructed so that **at every instant every page resolves to a valid
physical copy** — the property the paper's P bit exists for ("the
program execution will not be halted"). ``tests/test_swap_sequences.py``
replays all four cases asserting exactly that.

The N (basic) design has no empty slot: swaps are direct exchanges and
the whole sequence *stalls execution* (Section III-A, Basic Design).
The same builder emits N-mode sequences with ``stall=True`` markers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from ..errors import MigrationError
from .table import EMPTY, Location, PageCategory, TranslationTable


class SwapCase(Enum):
    """Fig 8's four MRU/LRU category combinations, plus the ghost case.

    G: the hottest off-package page is the current *Ghost* (its data
    sits at Ω backing the empty slot). Fig 8 does not enumerate it, but
    it arises as soon as a demoted page becomes hot again before any
    other swap re-homes it; the promotion is a straightforward fill of
    its own (empty) slot followed by the usual LRU demotion.
    """

    A = "OS-OF"
    B = "OS-MF"
    C = "MS-OF"
    D = "MS-MF"
    G = "GHOST"


@dataclass(frozen=True)
class CopyStep:
    """Move one macro page's data from ``src`` to ``dst``."""

    label: str
    src: Location
    dst: Location
    incoming: bool = False        # the hot page's copy-in (live-fill eligible)


def crosses_boundary(src: Location, dst: Location) -> bool:
    """Whether a copy crosses the package boundary: exactly when an
    endpoint is off-package. Copies among slots and the bounce buffer
    stay on the SiP interconnect."""
    return src[0] == "mach" or dst[0] == "mach"


def touches_onpkg(src: Location, dst: Location) -> bool:
    """Whether a copy reads or writes the on-package DRAM (a slot)."""
    return src[0] == "slot" or dst[0] == "slot"


@dataclass(frozen=True)
class TableUpdate:
    """A compound, atomic set of table mutations.

    ``ops`` is a tuple of ``(method_name, args)`` applied to the
    :class:`TranslationTable` in order, with no time passing in between.
    """

    label: str
    ops: tuple[tuple[str, tuple], ...]

    def apply(self, table: TranslationTable) -> None:
        for method, args in self.ops:
            getattr(table, method)(*args)


@dataclass(frozen=True)
class SwapPlan:
    """A complete swap: ordered steps plus bookkeeping for the engine."""

    case: SwapCase
    mru: int
    lru: int
    steps: tuple[CopyStep | TableUpdate, ...]
    page_bytes: int               # every copy moves one macro page
    stall: bool = False           # N design: execution halts for the whole plan

    @property
    def copies(self) -> tuple[CopyStep, ...]:
        return tuple(s for s in self.steps if isinstance(s, CopyStep))

    @property
    def total_copy_bytes(self) -> int:
        return len(self.copies) * self.page_bytes

    @property
    def cross_boundary_bytes(self) -> int:
        crossing = sum(crosses_boundary(c.src, c.dst) for c in self.copies)
        return crossing * self.page_bytes


def classify_case(table: TranslationTable, mru: int, lru: int) -> SwapCase:
    """Determine the Fig 8 case from the two pages' categories."""
    mru_cat = table.category(mru)
    lru_cat = table.category(lru)
    if mru_cat is PageCategory.GHOST:
        return SwapCase.G
    if mru_cat not in (PageCategory.ORIGINAL_SLOW, PageCategory.MIGRATED_SLOW):
        raise MigrationError(f"MRU page {mru} is not off-package ({mru_cat})")
    if lru_cat not in (PageCategory.ORIGINAL_FAST, PageCategory.MIGRATED_FAST):
        raise MigrationError(f"LRU page {lru} is not on-package ({lru_cat})")
    if mru_cat is PageCategory.ORIGINAL_SLOW:
        return SwapCase.A if lru_cat is PageCategory.ORIGINAL_FAST else SwapCase.B
    return SwapCase.C if lru_cat is PageCategory.ORIGINAL_FAST else SwapCase.D


def _demote_lru_steps(
    table: TranslationTable, lru: int
) -> tuple[CopyStep | TableUpdate, ...]:
    """Trailing steps that demote the LRU page and free its slot.

    OF LRU (cases A, C): copy it to Ω, mark its slot empty.
    MF LRU (cases B, D): first park its slot's own page at Ω (pending),
    then copy the LRU page home and mark the slot empty.
    """
    cat = table.category(lru)
    ghost = table.amap.ghost_page
    if cat is PageCategory.ORIGINAL_FAST:
        return (
            CopyStep(f"copy LRU {lru}: slot {lru} -> Ω", ("slot", lru), ("mach", ghost)),
            TableUpdate(f"slot {lru} becomes empty", (("set_empty", (lru,)),)),
        )
    # MF: lru >= N stored in slot r; page r's data is at machine `lru`
    r = table.slot_of(lru)
    if r is None:
        raise MigrationError(f"MF LRU page {lru} has no slot")
    return (
        CopyStep(f"copy page {r}: machine {lru} -> Ω", ("mach", lru), ("mach", ghost)),
        TableUpdate(f"row {r} pending", (("set_pending", (r, True)),)),
        CopyStep(f"copy LRU {lru}: slot {r} -> machine {lru}", ("slot", r), ("mach", lru)),
        TableUpdate(f"slot {r} becomes empty", (("set_empty", (r,)),)),
    )


def build_swap_steps(table: TranslationTable, mru: int, lru: int) -> SwapPlan:
    """Build the N-1 / Live Migration step sequence for one swap.

    The same sequence serves both algorithms; only the *availability
    granularity* of the incoming copy differs (whole page for N-1,
    per sub-block for Live), which the engine decides. The table is
    **not** mutated here; the engine applies the :class:`TableUpdate`
    items as the plan executes.
    """
    case = classify_case(table, mru, lru)
    ghost = table.amap.ghost_page
    e = table.empty_slot()
    if e is None:
        raise MigrationError("N-1/Live swap requires an empty slot")
    steps: list[CopyStep | TableUpdate] = []

    def plan() -> SwapPlan:
        return SwapPlan(
            case=case, mru=mru, lru=lru, steps=tuple(steps),
            page_bytes=table.amap.macro_page_bytes,
        )

    if case is SwapCase.G:
        # the hot page IS the ghost: fill its own slot (the empty one)
        # from Ω, then demote the LRU page into the freed Ω
        if mru != e:
            raise MigrationError(f"ghost page {mru} does not own the empty slot {e}")
        steps.append(
            TableUpdate(
                f"map ghost {mru} back to slot {e}",
                (("set_pair", (e, mru)), ("begin_fill", (e, ghost))),
            )
        )
        steps.append(
            CopyStep(f"copy ghost {mru}: Ω -> slot {e}", ("mach", ghost), ("slot", e),
                     incoming=True)
        )
        steps.extend(_demote_lru_steps(table, lru))
        return plan()

    lru_overlaps = False
    if case in (SwapCase.A, SwapCase.B):
        # MRU is OS at its own machine page: stream it into the empty slot.
        # begin_fill keeps the MRU resolving to its (still valid) old copy
        # while the data streams in; the engine grants per-sub-block
        # availability under Live Migration and whole-page-at-completion
        # under plain N-1.
        fill_ops: tuple[tuple[str, tuple], ...] = (
            ("set_pair", (e, mru)),
            ("set_pending", (e, True)),
            ("begin_fill", (e, mru)),
        )
        steps.append(TableUpdate(f"map MRU {mru} -> slot {e} (pending)", fill_ops))
        steps.append(
            CopyStep(f"copy MRU {mru}: machine {mru} -> slot {e}", ("mach", mru),
                     ("slot", e), incoming=True)
        )
        steps.append(
            CopyStep(f"copy ghost {e}: Ω -> machine {mru}", ("mach", ghost), ("mach", mru))
        )
        steps.append(TableUpdate(f"row {e} pending clear", (("set_pending", (e, False)),)))
    else:
        # MRU is MS: its data is at machine q (its pair partner's page)
        q = table.page_in_slot(mru)
        if q == EMPTY or q == mru:
            raise MigrationError(f"page {mru} is not MS")
        if q == lru:
            # the LRU *is* the MRU's pair partner (a case Fig 8 does not
            # enumerate): the promote sequence below already relocates the
            # partner into the empty slot, so there is nothing left to
            # demote this epoch — a later swap evicts it if it stays cold
            lru_overlaps = True
        # 1. relocate q's data from slot `mru` into the empty slot
        steps.append(
            CopyStep(f"copy occupant {q}: slot {mru} -> slot {e}", ("slot", mru), ("slot", e))
        )
        fill_ops = (
            ("set_pair", (mru, mru)),
            ("set_pair", (e, q)),
            ("set_pending", (e, True)),
            ("begin_fill", (mru, q)),
        )
        steps.append(
            TableUpdate(f"rehome {q} -> slot {e}; map MRU {mru} -> slot {mru}", fill_ops)
        )
        # 2. stream the MRU page home
        steps.append(
            CopyStep(f"copy MRU {mru}: machine {q} -> slot {mru}", ("mach", q),
                     ("slot", mru), incoming=True)
        )
        # 3. resolve the ghost: its data goes to q's old machine page
        steps.append(
            CopyStep(f"copy ghost {e}: Ω -> machine {q}", ("mach", ghost), ("mach", q))
        )
        steps.append(TableUpdate(f"row {e} pending clear", (("set_pending", (e, False)),)))

    if lru_overlaps:
        # demote the relocated partner out of the slot the promote just
        # filled, restoring the one-empty-slot invariant: its data (the
        # ghost page e's data arrived at machine q) is parked at Ω while
        # the partner streams home
        q = table.page_in_slot(mru)
        steps.extend(
            (
                CopyStep(f"copy page {e}: machine {q} -> Ω", ("mach", q), ("mach", ghost)),
                TableUpdate(f"row {e} pending", (("set_pending", (e, True)),)),
                CopyStep(f"copy partner {q}: slot {e} -> machine {q}", ("slot", e),
                         ("mach", q)),
                TableUpdate(f"slot {e} becomes empty", (("set_empty", (e,)),)),
            )
        )
    else:
        steps.extend(_demote_lru_steps(table, lru))
    return plan()


def build_basic_swap_steps(table: TranslationTable, mru: int, lru: int) -> SwapPlan:
    """The N (basic) design: direct stalling exchanges, no empty slot.

    Every byte moved halts execution (the paper: data must be swapped
    before the table is updated). Exchanges restore migrated pages to
    their home locations first so the pairing invariant holds.
    """
    case = classify_case(table, mru, lru)
    steps: list[CopyStep | TableUpdate] = []

    def exchange(slot: int, machine: int, new_page: int, label: str) -> None:
        # the exchange goes through a controller-side bounce buffer: the
        # slot's page is staged on-chip (cheap), the off-package page
        # streams in, the staged page streams out — 2 boundary crossings
        steps.append(CopyStep(f"stage: slot {slot} -> buffer", ("slot", slot), ("buf", 0)))
        steps.append(
            CopyStep(f"exchange in: machine {machine} -> slot {slot}", ("mach", machine),
                     ("slot", slot), incoming=new_page == mru)
        )
        steps.append(
            CopyStep(f"exchange out: buffer -> machine {machine}", ("buf", 0),
                     ("mach", machine))
        )
        steps.append(TableUpdate(label, (("set_pair", (slot, new_page)),)))

    if case is SwapCase.A:
        exchange(lru, mru, mru, f"slot {lru} := MRU {mru}")
    elif case is SwapCase.B:
        r = table.slot_of(lru)
        exchange(r, lru, r, f"restore page {r} home")
        exchange(r, mru, mru, f"slot {r} := MRU {mru}")
    elif case is SwapCase.C:
        q = table.page_in_slot(mru)
        exchange(mru, q, mru, f"restore MRU {mru} home")
    else:  # D
        q = table.page_in_slot(mru)
        exchange(mru, q, mru, f"restore MRU {mru} home")
        if q != lru:
            # (if the LRU is the MRU's partner, the restore above already
            # demoted it)
            r = table.slot_of(lru)
            exchange(r, lru, r, f"restore page {r} home; demote LRU {lru}")
    return SwapPlan(
        case=case, mru=mru, lru=lru, steps=tuple(steps),
        page_bytes=table.amap.macro_page_bytes, stall=True,
    )
