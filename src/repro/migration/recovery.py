"""Data-safe late-abort recovery: copy-back plan computation.

ROADMAP's open hazard: the engine's transactional table rollback alone
is only data-safe when a swap aborts *before* the Ω-resolution copy.
After it, the incoming page's old home has been overwritten, and the
restored routing points at dead data (the protocol checker's
``valid-copy`` counterexample). Worse, the basic N design moves data
*before* its table update, so an exchange torn between copies leaves
the table bit-identical to its pre-swap state while a page's only live
copy sits in the controller's bounce buffer.

Recovery therefore cannot diff table states; it has to reason about
where each page's current data physically is:

1. seed a *content map* (machine location -> page) from the pre-swap
   table — at schedule time every page has exactly one live copy, at
   its resolved location;
2. replay the executed copy prefix over the map (a completed copy
   duplicates its source page at the destination; a partial Live fill
   leaves the destination garbage);
3. for every page whose pre-swap home no longer holds its data, emit a
   copy from a surviving duplicate back home.

The emitted moves form a partial permutation over locations (targets
are distinct pre-swap resolutions, sources are distinct current
holders), so they are ordered destination-before-source-overwrite;
cycles (a swapped pair both needing their homes back, the quarantine
``reset_identity`` case) are broken by staging one page through the
controller's bounce buffer ``("buf", 0)`` — which is provably free by
then, because the buffer is never a copy-back *target* and therefore
always sits on an acyclic chain that drains before any cycle must be
broken.

Both the runtime engine (:meth:`~repro.migration.engine.MigrationEngine`)
and the protocol model checker
(:func:`repro.analysis.protocol.fault_invariant_analysis`) compute
their recovery from this one module, so the model checks exactly the
moves the engine performs.
"""

from __future__ import annotations

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
    """Copy steps returning every page to its target location.

    ``content`` maps each machine location to the page whose *current*
    data it holds (``None``/absent = garbage); ``target_of`` maps each
    page to where it must end up (its pre-swap resolution, or its home
    for the quarantine path). ``prefer`` optionally names, per page, the
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
            f"recover page {page}: {src[0]} {src[1]} -> {dst[0]} {dst[1]}",
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


def recovery_plan(
    pre_table: TranslationTable,
    executed: list[tuple[Location, Location, bool]],
    *,
    target_table: TranslationTable | None = None,
    prefer_table: TranslationTable | None = None,
) -> list[CopyStep]:
    """Convenience wrapper: recovery moves for an aborted swap.

    ``pre_table`` is the pre-swap state (the engine rebuilds it as a
    clone of the torn table rolled back to the swap's undo record);
    ``executed`` the copy
    prefix the aborted plan performed. ``target_table`` defaults to the
    pre-swap table itself (abort recovery); the quarantine path passes a
    boot-identity table instead. ``prefer_table`` (the aborted
    mid-state) picks which duplicate to copy from.
    """
    content: dict[Location, int | None] = dict(content_of_table(pre_table))
    apply_executed_copies(content, executed)
    target = target_table if target_table is not None else pre_table
    target_of = {p: _loc(target.resolve(p)) for p in _data_pages(target)}
    prefer = None
    if prefer_table is not None:
        prefer = {
            p: _loc(prefer_table.resolve(p)) for p in _data_pages(prefer_table)
        }
    page_bytes = pre_table.amap.macro_page_bytes
    return recovery_moves(content, target_of, page_bytes, prefer=prefer)
