"""Op-by-op reference for one swap: the builders' plan interpreted step
by step, the way the engine ran every swap before swap templates.

``replay`` applies a plan's :class:`TableUpdate` items one at a time
(ending the fill after the incoming copy, as the engine does) and
returns the table state after each update. ``reference_schedule``
times the same walk with the engine's cost model, and
``expected_timeline`` builds the routing timeline from its states. The
tests pin the engine's template instantiation to both.
"""

from __future__ import annotations

import numpy as np

from repro.config import MigrationAlgorithm
from repro.migration.algorithms import (
    CopyStep,
    TableUpdate,
    build_basic_swap_steps,
    build_swap_steps,
)
from repro.migration.engine import FillInfo
from repro.migration.template import BEFORE


def build_plan(table, mru: int, lru: int, *, basic: bool):
    return (build_basic_swap_steps if basic else build_swap_steps)(table, mru, lru)


def replay(table, plan) -> list[dict]:
    """Apply ``plan`` to ``table`` op by op; the ``state_dict()`` before
    the first update and after every update (a fill's end included)."""
    states = [table.state_dict()]
    for step in plan.steps:
        if isinstance(step, TableUpdate):
            step.apply(table)
            states.append(table.state_dict())
        elif step.incoming and table.filling:
            table.end_fill()
            states.append(table.state_dict())
    return states


def expected_timeline(
    states: list[dict], update_times: list[int], pages, *, stall: bool, now: int
) -> tuple[list, list]:
    """``(times, rows)`` of the routing timeline over ``pages`` that
    ``states`` (the pre-swap state, then one per update, made at
    ``update_times``) imply: each row ``{page: (on_package, machine)}``
    is kept only where it differs from the last, stamped with its
    update's time. A stalling (N) plan flips from the first row to the
    last at ``now``."""
    times: list[int] = []
    rows: list[dict] = []
    for t, st in zip([BEFORE, *update_times], states):
        row = {int(p): (bool(st["onpkg"][p]), int(st["machine_of"][p])) for p in pages}
        if not rows or row != rows[-1]:
            times.append(t)
            rows.append(row)
    if stall:
        return [BEFORE, now], [rows[0], rows[-1]]
    return times, rows


def recorded_rows(active) -> list[dict]:
    """An :class:`ActiveMigration`'s timeline rows, keyed as
    ``expected_timeline``'s are."""
    pages = active.pages.tolist()
    return [
        {p: (bool(on[j]), int(mach[j])) for j, p in enumerate(pages)}
        for on, mach in zip(active.onpkg, active.machine)
    ]


def moved_pages(states: list[dict]) -> set[int]:
    """Pages whose mirror or CAM entry differs between any two states."""
    first = states[0]
    moved: set[int] = set()
    for st in states[1:]:
        moved |= set(np.flatnonzero(
            (st["onpkg"] != first["onpkg"]) | (st["machine_of"] != first["machine_of"])
        ).tolist())
        cams = (first["slot_of"], st["slot_of"])
        moved |= {p for p in cams[0].keys() | cams[1].keys()
                  if cams[0].get(p) != cams[1].get(p)}
    return moved


def reference_schedule(engine, table, mru: int, lru: int, now: int,
                       first_subblock: int) -> dict:
    """The swap's timing as the op-by-op engine computed it, replayed on
    ``table`` (a pre-swap clone, which it mutates): the update times,
    the routing rows over the affected pages, the end and the Live
    fill."""
    cfg = engine.config
    basic = cfg.algorithm == MigrationAlgorithm.N
    plan = build_plan(table, mru, lru, basic=basic)
    t = now
    update_times = []
    fill = None
    states = [table.state_dict()]
    for step in plan.steps:
        if isinstance(step, CopyStep):
            duration = engine._copy_duration(t, step)
            if step.incoming and cfg.algorithm == MigrationAlgorithm.LIVE:
                fill = FillInfo(
                    page=mru, slot=step.dst[1], start=t, end=t + duration,
                    n_subblocks=engine.amap.subblocks_per_page,
                    first_subblock=first_subblock if cfg.critical_block_first else 0,
                )
            t += duration
            if step.incoming and table.filling:
                table.end_fill()
                update_times.append(t)
                states.append(table.state_dict())
        else:
            if cfg.os_assisted:
                t += cfg.os_update_cycles
            step.apply(table)
            update_times.append(t)
            states.append(table.state_dict())
    return {
        "plan": plan, "states": states, "update_times": update_times,
        "end": t, "fill": fill,
    }
