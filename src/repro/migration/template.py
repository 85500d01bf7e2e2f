"""Swap templates: each Fig 8 step sequence, derived once per plan shape.

:func:`~.algorithms.build_swap_steps` and
:func:`~.algorithms.build_basic_swap_steps` stay the single source of
every swap plan. A plan depends on the table only through a few *roles*:

* the MRU and LRU pages;
* the empty slot E (N-1/Live only);
* the MS MRU's partner Q (``page_in_slot(mru)``);
* the MF LRU's slot R;
* the reserved page Ω.

So for each (design, shape) the builders run once, on a small canonical
table, and :class:`SwapTemplate` records the plan in role space: its
copy steps, the table state after every update (the named rows'
``pair``/P/F entries, the fill state, the CAM and dense-mirror entries
of the affected pages, the empty slot), the fill's end after the
incoming copy, and the deduplicated routing-timeline rows. The shapes
are Fig 8's A–D, "overlap" (C/D with Q == LRU) and, for N-1/Live, the
ghost promotion G, split by the LRU's category because its demotion
tail follows it ("G" for an OF LRU, "G-MF" for an MF one). N-1 and
Live run the same plans, and OS assistance changes only the times, so
neither is part of the key.

A swap classifies itself (:func:`swap_template`) and binds the template
to its concrete roles. :meth:`SwapTemplate.undo_point` checks that the
table's pre-state equals the template's under that substitution before
anything is written: the recorded writes are exactly the builders' ops
on that pre-state, so the check stands in for the ops' own validation.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..address import AddressMap
from ..errors import MigrationError, TranslationTableError
from .algorithms import (
    CopyStep,
    SwapCase,
    build_basic_swap_steps,
    build_swap_steps,
    crosses_boundary,
    touches_onpkg,
)
from .table import EMPTY, TranslationTable

#: the role vector a template is bound to; it ends with the EMPTY
#: sentinel, so a recorded right column can name it like any role
ROLES = ("MRU", "LRU", "E", "Q", "R", "Ω", "EMPTY")
_EMPTY_ROLE = ROLES.index("EMPTY")
#: the value of a role the swap's shape does not have
ABSENT = -2

#: canonical geometry: 8 slots and 32 pages, so Ω is 31 and the
#: N-1/Live boot table's empty slot is 7
_CANONICAL_MAP = AddressMap(
    total_bytes=32 * 4096, onpkg_bytes=8 * 4096, macro_page_bytes=4096
)

#: shape -> (pairings written on the boot table, MRU, LRU): a pre-swap
#: table of that shape whose roles are distinct except where the shape
#: itself makes them coincide (G: MRU is E; overlap: LRU is Q, R is MRU)
_CANONICAL = {
    "A": ((), 20, 1),
    "B": (((2, 21),), 20, 21),
    "C": (((3, 22),), 3, 1),
    "D": (((3, 22), (2, 21)), 3, 21),
    "overlap": (((3, 22),), 3, 22),
    "G": ((), 7, 1),
    "G-MF": (((2, 21),), 7, 21),
}

#: stamp of a timeline's first row: the pre-swap state, before any access
BEFORE = -(1 << 62)


@dataclass(frozen=True, slots=True)
class TemplateCopy:
    """One copy step in role space: each endpoint is ``(kind, role)``,
    with role None for the N design's bounce buffer."""

    src: tuple[str, int | None]
    dst: tuple[str, int | None]
    incoming: bool
    crosses: bool                # :func:`~.algorithms.crosses_boundary`
    touches_on: bool             # :func:`~.algorithms.touches_onpkg`
    label: str                   # builder label, roles as {i} fields

    def locations(self, roles) -> tuple[tuple[str, int], tuple[str, int]]:
        """Concrete ``(src, dst)`` machine locations."""
        (src, i), (dst, j) = self.src, self.dst
        return (
            (src, 0 if i is None else roles[i]), (dst, 0 if j is None else roles[j])
        )


@dataclass(frozen=True, slots=True)
class TemplateUpdate:
    """One table update: a builder's :class:`TableUpdate`, or the end of
    the fill after the incoming copy."""

    os_round_trip: bool          # an OS-assisted table update (not the fill's end)
    stamps: bool                 # it changes the routing timeline


class Binding(NamedTuple):
    """A template bound to one swap's concrete roles."""

    roles: tuple                 # role values in ROLES order, ABSENT where absent
    vec: np.ndarray              # the same, as an index target
    rows: np.ndarray             # the plan's rows
    pages: np.ndarray            # the affected pages: the timeline's columns


def _template_copy(step: CopyStep, role) -> TemplateCopy:
    """A builder's copy step (one macro page) in role space (``role``
    maps a canonical value to its role index)."""
    return TemplateCopy(
        src=(step.src[0], None if step.src[0] == "buf" else role(step.src[1])),
        dst=(step.dst[0], None if step.dst[0] == "buf" else role(step.dst[1])),
        incoming=step.incoming,
        crosses=crosses_boundary(step.src, step.dst),
        touches_on=touches_onpkg(step.src, step.dst),
        label=re.sub(r"\d+", lambda m: "{%d}" % role(int(m.group())), step.label),
    )


def _classify(table: TranslationTable, mru: int, lru: int, basic: bool):
    """``(shape, roles)`` of one swap; roles follow :data:`ROLES`,
    ABSENT where the shape has no such role.

    Only picks the template: :meth:`SwapTemplate.bind` and
    :meth:`SwapTemplate.undo_point` then check that the table really is
    in that template's pre-state, which is what the builders'
    :func:`~.algorithms.classify_case` would have checked.
    """
    if not (0 <= mru < table.amap.n_total_pages and 0 <= lru < table.amap.n_total_pages):
        raise TranslationTableError(f"swap pages {mru}, {lru} out of range")
    n = table.n_slots
    e = ABSENT
    if not basic:
        e = table.empty_slot()
        if e is None:
            raise MigrationError("N-1/Live swap requires an empty slot")
    # a page id below n doubles as its home row: MS/ghost MRU, OF LRU
    lru_mf = lru >= n
    r = table.slot_of(lru) if lru_mf else ABSENT
    q = ABSENT
    if mru == e:
        shape = "G-MF" if lru_mf else "G"
    elif mru < n:
        q = int(table.pair[mru])
        shape = "overlap" if q == lru else ("D" if lru_mf else "C")
    else:
        shape = "B" if lru_mf else "A"
    return shape, (mru, lru, e, q, r, table.amap.ghost_page, EMPTY)


def swap_template(
    table: TranslationTable, mru: int, lru: int, *, basic: bool
) -> tuple["SwapTemplate", "Binding"]:
    """The template of the swap promoting ``mru`` and demoting ``lru``
    (``basic``: the N design), bound to the swap's roles."""
    shape, roles = _classify(table, mru, lru, basic)
    template = _template(basic, shape)
    return template, template.bind(roles)


@functools.cache
def _template(basic: bool, shape: str) -> "SwapTemplate":
    """Derive one template from the builders (once per process)."""
    pairings, mru, lru = _CANONICAL[shape]
    table = TranslationTable(_CANONICAL_MAP, reserve_empty_slot=not basic)
    for slot, page in pairings:
        table.set_pair(slot, page)
    got, roles = _classify(table, mru, lru, basic)
    if got != shape:
        raise MigrationError(f"canonical table of shape {shape} classifies as {got}")
    build = build_basic_swap_steps if basic else build_swap_steps
    return SwapTemplate(basic, shape, table, build(table, mru, lru), roles)


class SwapTemplate:
    """One plan shape's step sequence and table writes, in role space.

    Built by replaying the builder's plan op by op on a canonical
    table; immutable afterwards and shared by every engine in the
    process. It pickles as its cache key.
    """

    def __init__(self, basic: bool, shape: str, table, plan, roles):
        self.basic = basic
        self.shape = shape
        self.case: SwapCase = plan.case
        #: N design: execution halts for the whole plan
        self.stall: bool = plan.stall
        index: dict[int, int] = {}
        for i, v in enumerate(roles):
            if v != ABSENT:
                index.setdefault(v, i)

        def role(value) -> int | None:
            if value is None:
                return None
            if value not in index:
                raise MigrationError(
                    f"{shape} plan names {value}, which is no role of its swap"
                )
            return index[value]

        # which roles coincide (and which are absent): a binding must
        # repeat this pattern exactly
        self._n_distinct = len(set(roles))
        self._same = tuple(
            (i, roles.index(v)) for i, v in enumerate(roles) if roles.index(v) != i
        )
        page_roles = sorted({index[v] for v in roles[:_EMPTY_ROLE - 1] if v != ABSENT})
        pages = [roles[i] for i in page_roles]
        every_row = np.arange(table.n_slots, dtype=np.int64)
        every_page = np.arange(table.amap.n_total_pages, dtype=np.int64)

        def snapshot(began: bool) -> tuple[dict, int | None, bool]:
            # the whole table's undo record, its free slot, and whether
            # a fill has begun (which clears the bitmap)
            undo = table.undo_point(every_row, every_page)
            return undo, table.empty_slot(), began or table.filling

        # replay the plan op by op: one event per step (a CopyStep, or
        # True for a builder update and False for the fill's end) and
        # the state after each update
        states = [snapshot(False)]
        events: list[CopyStep | bool] = []
        named_rows: set[int] = set()
        for step in plan.steps:
            if isinstance(step, CopyStep):
                events.append(step)
                if step.incoming and table.filling:
                    # the completed copy-in clears the F bit
                    table.end_fill()
                    events.append(False)
                    states.append(snapshot(states[-1][2]))
            else:
                step.apply(table)
                named_rows.update(args[0] for _, args in step.ops)
                events.append(True)
                states.append(snapshot(states[-1][2]))

        # the template writes (and its undo record restores) the rows
        # the plan's ops name and the role pages
        row_roles = sorted({role(r) for r in named_rows})
        rows = [roles[i] for i in row_roles]

        def routing(undo: dict) -> tuple[list, list]:
            return (
                undo["onpkg"][pages].tolist(),
                [role(m) for m in undo["machine_of"][pages].tolist()],
            )

        # the steps in role space. The routing timeline keeps the
        # pre-swap row, then each update's row that differs from the
        # last kept; a stalling plan flips from the first to the last
        timeline = [routing(states[0][0])]
        steps: list[TemplateCopy | TemplateUpdate] = []
        k = 0
        for event in events:
            if isinstance(event, CopyStep):
                steps.append(_template_copy(event, role))
                continue
            k += 1
            row = routing(states[k][0])
            stamps = not plan.stall and row != timeline[-1]
            if stamps:
                timeline.append(row)
            steps.append(TemplateUpdate(event, stamps))
        if plan.stall:
            timeline.append(routing(states[-1][0]))
        incoming = sum(isinstance(s, TemplateCopy) and s.incoming for s in steps)
        if incoming != 1:
            raise MigrationError(
                f"{shape} swap plan has {incoming} incoming copies, not one"
            )

        self.steps = tuple(steps)
        #: the copy steps alone, in order
        self.copies = tuple(s for s in steps if isinstance(s, TemplateCopy))
        self.n_copies = len(self.copies)
        self.n_cross = sum(c.crosses for c in self.copies)
        #: updates applied before each copy step starts
        self.updates_before = tuple(
            sum(isinstance(s, TemplateUpdate) for s in steps[:i])
            for i, s in enumerate(steps) if isinstance(s, TemplateCopy)
        )
        self.n_updates = len(states) - 1
        self._row_roles = np.array(row_roles, dtype=np.int64)
        self._page_roles = np.array(page_roles, dtype=np.int64)

        def frozen(values, dtype):
            a = np.array(values, dtype=dtype)
            a.setflags(write=False)
            return a

        # per prefix k (the state after k updates), in role space
        undos = [u for u, _, _ in states]
        self._pair = frozen([[role(int(u["pair"][r])) for r in rows] for u in undos], np.int64)
        self._p_bit = frozen([u["p_bit"][rows] for u in undos], bool)
        self._f_bit = frozen([u["f_bit"][rows] for u in undos], bool)
        self._onpkg = frozen([routing(u)[0] for u in undos], bool)
        self._machine = frozen([routing(u)[1] for u in undos], np.int64)
        self._cam = tuple(
            tuple((i, role(u["cam"][p])) for i, p in zip(page_roles, pages)) for u in undos
        )
        self._fill = tuple(
            tuple(role(u[key]) for key in ("filling_slot", "fill_page", "fill_source"))
            for u in undos
        )
        self._empty = tuple(role(e) for _, e, _ in states)
        self._clears_bitmap = tuple(began for _, _, began in states)
        self._pre = (
            self._pair[0].tolist(), self._p_bit[0].tolist(), self._f_bit[0].tolist(),
            [s for _, s in self._cam[0]], self._onpkg[0].tolist(),
            self._machine[0].tolist(),
        )
        self._timeline_onpkg = frozen([on for on, _ in timeline], bool)
        self._timeline_machine = frozen([mach for _, mach in timeline], np.int64)

    def __reduce__(self):
        return _template, (self.basic, self.shape)

    # ------------------------------------------------------------------
    def bind(self, roles) -> Binding:
        """Bind the template to one swap's roles (as :func:`swap_template`
        returns them); rejects roles that do not coincide as this
        shape's do."""
        same = len(set(roles)) == self._n_distinct
        for i, j in self._same:
            same = same and roles[i] == roles[j]
        if not same:
            raise TranslationTableError(
                f"swap roles {dict(zip(ROLES, roles))} do not fit shape {self.shape}"
            )
        vec = np.fromiter(roles, np.int64, len(roles))
        return Binding(roles, vec, vec[self._row_roles], vec[self._page_roles])

    def undo_point(self, table: TranslationTable, b: Binding) -> dict:
        """The table's undo record over the plan's rows and pages, after
        checking that the table holds the template's pre-state under the
        binding: the rows' ``pair``/P/F entries (none retired), the
        pages' CAM and mirror entries, no fill in flight and no reserved
        spare among the pages. Raises :class:`TranslationTableError`,
        having written nothing, when it does not."""
        undo = table.undo_point(b.rows, b.pages)
        roles = b.roles
        pair, p_bit, f_bit, cam, onpkg, machine = self._pre
        if (
            undo["pair"].tolist() != [roles[i] for i in pair]
            or undo["p_bit"].tolist() != p_bit
            or undo["f_bit"].tolist() != f_bit
            or list(undo["cam"].values()) != [None if i is None else roles[i] for i in cam]
            or undo["onpkg"].tolist() != onpkg
            or undo["machine_of"].tolist() != [roles[i] for i in machine]
            or undo["filling_slot"] is not None
            or not table.retired_slots().isdisjoint(undo["rows"].tolist())
            or not table.reserved_pages.isdisjoint(undo["cam"])
        ):
            raise TranslationTableError(
                f"table is not in the {self.shape} swap's pre-state for roles "
                f"{dict(zip(ROLES, roles))}"
            )
        return undo

    def state(self, b: Binding, k: int) -> dict:
        """The table record after ``k`` updates, for
        :meth:`TranslationTable.write_swap`."""
        roles = b.roles
        slot, page, source = self._fill[k]
        empty = self._empty[k]
        return {
            "rows": b.rows,
            "pair": b.vec[self._pair[k]],
            "p_bit": self._p_bit[k],
            "f_bit": self._f_bit[k],
            "fill_bitmap": False if self._clears_bitmap[k] else None,
            "filling_slot": None if slot is None else roles[slot],
            "fill_page": None if page is None else roles[page],
            "fill_source": None if source is None else roles[source],
            "pages": b.pages,
            "cam": {roles[p]: None if s is None else roles[s] for p, s in self._cam[k]},
            "machine_of": b.vec[self._machine[k]],
            "onpkg": self._onpkg[k],
            "empty_slot": None if empty is None else roles[empty],
        }

    def timeline(self, b: Binding) -> tuple[np.ndarray, np.ndarray]:
        """The routing timeline's ``(onpkg, machine)`` rows over the
        binding's pages (row 0: the pre-swap state)."""
        return self._timeline_onpkg, b.vec[self._timeline_machine]
