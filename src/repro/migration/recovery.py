"""The one copy planner for every table change outside a swap plan.

Abort recovery (back to the pre-swap table), quarantine (back to the
boot identity), RAS frame retirement (a slot leaves service, its page
moves to a spare) and tenant reclamation (a departed tenant's
transpositions undone) each change the table outright. Each hands
:func:`recovery_plan` the table before and after the change; the
planner moves every page whose resolution differs, so every page keeps
one live copy (Section III).

After a late swap abort the table alone does not say where the data
is: past the Ω-resolution copy the incoming page's old home has been
overwritten (the protocol checker's ``valid-copy`` counterexample), and
an N-design exchange torn between copies leaves a bit-identical table
while a page's only live copy sits in the bounce buffer. So with an
executed copy prefix the planner

1. seeds a *content map* (machine location -> page) from the pre-swap
   table, where every page has one live copy at its resolution;
2. replays the executed prefix over the map (a partial Live fill leaves
   its destination garbage);
3. copies every page whose target no longer holds its data from a
   surviving duplicate.

With no executed copy (retirement, reclamation, quarantine) every
page's only copy is at its pre-change resolution, and the maps are read
off the two tables' dense mirrors for the changed pages alone.

The moves form a partial permutation over locations, ordered
destination-before-source-overwrite (retiring a transposed frame sends
the home page to the spare before the occupant's homeward copy
overwrites it). Cycles (a swapped pair both going home) are broken by
staging one page through the bounce buffer ``("buf", 0)``, which is
never a target and so drains before any cycle must be broken.

The engine (:class:`~repro.migration.engine.MigrationEngine`) and the
protocol model checker (:mod:`repro.analysis.protocol`) plan from this
one module, so the model checks exactly the moves the engine performs.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..errors import MigrationError
from .algorithms import CopyStep, Location
from .table import TranslationTable

#: the controller-side bounce buffer (also used by the N design's
#: stalling exchanges)
BUFFER: Location = ("buf", 0)


def _loc(resolution: tuple[bool, int]) -> Location:
    on, machine = resolution
    return ("slot", machine) if on else ("mach", machine)


def _data_pages(table: TranslationTable) -> list[int]:
    """Every macro page that carries data.

    The reserved Ω page does not, and neither do the RAS spare pages:
    a spare's *machine* frame holds a retired page's data, which the
    content map reaches through that retired page's resolution — the
    spare's own physical-page id is outside the trace address space.
    """
    dead = table.reserved_pages | {table.amap.ghost_page}
    return [p for p in range(table.amap.n_total_pages) if p not in dead]


def content_of_table(table: TranslationTable) -> dict[Location, int]:
    """Location -> page map of a quiescent (or mid-fill) table.

    Whole-page resolution is used on purpose: a filling page still
    resolves to its fully-valid old copy, so the map never claims a
    half-landed fill as a live copy.
    """
    return {_loc(table.resolve(p)): p for p in _data_pages(table)}


def apply_executed_copies(
    content: dict[Location, int | None],
    executed: list[tuple[Location, Location, bool]],
) -> None:
    """Replay a plan's executed copy prefix over a content map, in order.

    ``executed`` entries are ``(src, dst, complete)``; an incomplete
    copy (a Live fill torn mid-stream) leaves the destination garbage.
    """
    for src, dst, complete in executed:
        content[dst] = content.get(src) if complete else None


def recovery_moves(
    content: dict[Location, int | None],
    target_of: dict[int, Location],
    page_bytes: int,
    *,
    prefer: dict[int, Location] | None = None,
) -> list[CopyStep]:
    """Copy steps carrying every page to its target location.

    ``content`` maps each machine location to the page whose *current*
    data it holds (``None``/absent = garbage); ``target_of`` maps each
    page to where it must end up (its resolution in the target table).
    ``prefer`` optionally names, per page, the
    source location to copy from when several duplicates survive (the
    engine passes the aborted mid-state's resolution — the paper's
    "surviving on-package duplicate").

    The returned steps are safe to execute in order: no step overwrites
    a location another pending step still needs to read.
    """
    holders: dict[int, list[Location]] = {}
    for loc, page in content.items():
        if page is not None:
            holders.setdefault(page, []).append(loc)

    #: src -> (dst, page); sources and destinations are each distinct
    pending: dict[Location, tuple[Location, int]] = {}
    for page, target in target_of.items():
        if content.get(target) == page:
            continue
        candidates = holders.get(page)
        if not candidates:
            raise MigrationError(
                f"no surviving copy of page {page} to recover from"
            )
        src = None
        if prefer is not None and prefer.get(page) in candidates:
            src = prefer[page]
        if src is None or src == BUFFER:
            # deterministic choice; the bounce buffer only as last resort
            table_locs = sorted(c for c in candidates if c != BUFFER)
            src = table_locs[0] if table_locs else BUFFER
        if src in pending:  # pragma: no cover - sources are distinct
            raise MigrationError(f"two pages claim recovery source {src}")
        pending[src] = (target, page)

    def step(page: int, src: Location, dst: Location) -> CopyStep:
        return CopyStep(
            f"move page {page}: {src[0]} {src[1]} -> {dst[0]} {dst[1]}",
            page_bytes,
            cross_boundary="mach" in (src[0], dst[0]),
            src=src,
            dst=dst,
        )

    steps: list[CopyStep] = []
    while pending:
        progress = False
        for src in list(pending):
            dst, page = pending[src]
            if dst not in pending:  # destination is no one's unread source
                steps.append(step(page, src, dst))
                del pending[src]
                progress = True
        if progress:
            continue
        # only cycles remain; break one by staging through the bounce
        # buffer (never a target, so its chain drained above)
        if BUFFER in pending:  # pragma: no cover - see module docstring
            raise MigrationError("bounce buffer busy while breaking a cycle")
        src = sorted(pending)[0]
        dst, page = pending[src]
        steps.append(step(page, src, BUFFER))
        del pending[src]
        pending[BUFFER] = (dst, page)
    return steps


def _changed_maps(
    pre_table: TranslationTable,
    target: TranslationTable,
    skip: frozenset[int],
) -> tuple[dict[Location, int], dict[int, Location]]:
    """Content and target maps of the pages whose resolution changes,
    off the dense mirrors. Unchanged pages need no move, so the moves
    equal the whole-table maps', in the same page order; a location two
    live pages claim fails as the whole-table maps do."""
    n = pre_table.n_slots
    # one integer per resolution: slot s -> s, machine page m -> n + m
    before, after = (
        np.where(t.onpkg, t.machine_of, t.machine_of + n) for t in (pre_table, target)
    )
    live = np.ones(before.size, dtype=bool)
    live[sorted(skip | pre_table.reserved_pages | {pre_table.amap.ghost_page})] = False
    if np.bincount(before[live], minlength=1).max() > 1:
        raise MigrationError("two pages resolve to one location; no copy to plan from")
    changed = np.flatnonzero(live & (before != after))

    def loc(key: int) -> Location:
        return ("slot", key) if key < n else ("mach", key - n)

    pages = changed.tolist()
    content = {loc(k): p for p, k in zip(pages, before[changed].tolist())}
    target_of = {p: loc(k) for p, k in zip(pages, after[changed].tolist())}
    return content, target_of


def recovery_plan(
    pre_table: TranslationTable,
    executed: list[tuple[Location, Location, bool]],
    *,
    target_table: TranslationTable | None = None,
    prefer_table: TranslationTable | None = None,
    skip: Iterable[int] = (),
) -> list[CopyStep]:
    """The copies that carry every page from ``pre_table``'s resolution
    to ``target_table``'s (default: ``pre_table``, the abort case).

    ``executed`` is an aborted swap's copy prefix (empty on every other
    path) and ``prefer_table`` its mid-state, which picks the duplicate
    to copy from. ``skip`` names pages whose data is dead (a departed
    tenant's): they get no move, and their old locations keep stale
    bytes.
    """
    target = target_table if target_table is not None else pre_table
    skip = frozenset(int(p) for p in skip)
    page_bytes = pre_table.amap.macro_page_bytes
    if not executed:
        content, target_of = _changed_maps(pre_table, target, skip)
        return recovery_moves(content, target_of, page_bytes)
    content = dict(content_of_table(pre_table))
    apply_executed_copies(content, executed)
    target_of = {
        p: _loc(target.resolve(p)) for p in _data_pages(target) if p not in skip
    }
    prefer = None
    if prefer_table is not None:
        prefer = {
            p: _loc(prefer_table.resolve(p)) for p in _data_pages(prefer_table)
        }
    return recovery_moves(content, target_of, page_bytes, prefer=prefer)
