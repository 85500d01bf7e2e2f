"""Swap templates against the builders they are derived from.

The engine runs every swap from its plan shape's template (one table
write, a timing walk); the builders stay the single source of each
plan. These tests pin the two together on random reachable tables, for
every design x shape x OS assistance: the copy steps, the table after
every update, the routing timeline, the undo record, and the engine's
times against the op-by-op walk in ``swap_reference``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.address import AddressMap
from repro.config import MigrationConfig
from repro.errors import MigrationError
from repro.migration import template as template_module
from repro.migration.algorithms import CopyStep, SwapCase, crosses_boundary, touches_onpkg
from repro.migration.engine import MigrationEngine
from repro.migration.table import EMPTY, PageCategory, TranslationTable
from repro.migration.template import swap_template
from repro.units import KB, MB

from .conftest import assert_same_state
from .swap_reference import (
    build_plan,
    expected_timeline,
    moved_pages,
    recorded_rows,
    reference_schedule,
    replay,
)

AMAP = AddressMap(
    total_bytes=32 * MB, onpkg_bytes=8 * MB,
    macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
)
#: a RAS spare, so a drawn table can carry a retired frame
SPARE = 20

#: every plan shape each design can produce; G splits by the LRU's
#: category, since the ghost promotion's demotion tail follows it
SHAPES = {
    "N": ("A", "B", "C", "D", "overlap"),
    "N-1": ("A", "B", "C", "D", "overlap", "G", "G-MF"),
    "live": ("A", "B", "C", "D", "overlap", "G", "G-MF"),
}


def shape_of(table, plan) -> str:
    if plan.case.name in ("C", "D") and table.page_in_slot(plan.mru) == plan.lru:
        return "overlap"
    if plan.case is SwapCase.G and table.category(plan.lru) is PageCategory.MIGRATED_FAST:
        return "G-MF"
    return plan.case.name


def candidate_pairs(table):
    """Every (MRU, LRU) pair the engine's trigger could hand a swap."""
    return [
        (mru, lru)
        for mru in range(AMAP.ghost_page)
        if not table.onpkg[mru] and mru != SPARE and not table.is_retired_home(mru)
        for lru in table.resident_pages().tolist()
    ]


def fresh_empty(state: dict):
    """The free slot a rebuild of the table's cache finds."""
    empties = np.flatnonzero((state["pair"] == EMPTY) & ~state["retired"])
    return int(empties[0]) if empties.size else None


@st.composite
def reachable_tables(draw, basic: bool):
    """A table reached from boot by whole swaps replayed op by op,
    possibly with a retired frame."""
    table = TranslationTable(
        AMAP, reserve_empty_slot=not basic, reserved_pages={SPARE}
    )
    if draw(st.booleans()):
        table.retire_slot(draw(st.integers(0, 5)), SPARE)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 8))):
        pairs = candidate_pairs(table)
        mru, lru = pairs[rng.integers(len(pairs))]
        replay(table, build_plan(table, mru, lru, basic=basic))
    return table


class TestTemplateMatchesBuilders:
    """For every design x shape x OS assistance, on random reachable
    tables: the instantiated copy steps equal the builders' plan; after
    every update the table (``state_dict()``) and its cached free slot
    equal the op-by-op replay, and so does every timeline row; the undo
    record rolls the plan back from every update index; and the
    engine's swap times equal the op-by-op walk's."""

    @pytest.mark.parametrize("os_assisted", [False, True], ids=["hw", "os"])
    @pytest.mark.parametrize(
        "design,shape",
        [(design, shape) for design, shapes in SHAPES.items() for shape in shapes],
    )
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_template_equals_op_by_op_plan(self, design, shape, os_assisted, data):
        basic = design == "N"
        table = data.draw(reachable_tables(basic))
        pairs = [
            (mru, lru) for mru, lru in candidate_pairs(table)
            if shape_of(table, build_plan(table, mru, lru, basic=basic)) == shape
        ]
        assume(pairs)
        mru, lru = data.draw(st.sampled_from(pairs))
        plan = build_plan(table, mru, lru, basic=basic)
        template, bound = swap_template(table, mru, lru, basic=basic)
        assert template.shape == shape
        roles = bound.roles

        # the copy steps, endpoints and labels included
        copies = [s for s in plan.steps if isinstance(s, CopyStep)]
        assert len(template.copies) == len(copies) == template.n_copies
        for mine, theirs in zip(template.copies, copies):
            assert mine.locations(roles) == (theirs.src, theirs.dst)
            assert mine.crosses == crosses_boundary(theirs.src, theirs.dst)
            assert mine.touches_on == touches_onpkg(theirs.src, theirs.dst)
            assert mine.incoming == theirs.incoming
            assert mine.label.format(*roles) == theirs.label
        assert plan.page_bytes == AMAP.macro_page_bytes
        assert template.n_copies * AMAP.macro_page_bytes == plan.total_copy_bytes
        assert template.n_cross * AMAP.macro_page_bytes == plan.cross_boundary_bytes

        # the table after every update, and the undo record from each
        states = replay(table.clone(), plan)
        assert len(states) == template.n_updates + 1
        for k, expected in enumerate(states):
            twin = table.clone()
            undo = template.undo_point(twin, bound)
            twin.write_swap(template.state(bound, k))
            assert_same_state(expected, twin.state_dict(), f"after update {k}")
            assert twin.empty_slot() == fresh_empty(expected)
            twin.rollback(undo)
            assert_same_state(table.state_dict(), twin.state_dict(), f"undo {k}")
            assert twin.empty_slot() == table.empty_slot()

        # every intermediate timeline row, over pages covering every move
        pages = undo["pages"].tolist()
        assert moved_pages(states) <= set(pages)
        _, rows = expected_timeline(
            states, list(range(1, len(states))), pages, stall=plan.stall, now=0
        )
        onpkg, machine = template.timeline(bound)
        assert [
            {p: (bool(on[j]), int(m[j])) for j, p in enumerate(pages)}
            for on, m in zip(onpkg, machine)
        ] == rows

        # the engine's instantiation against the op-by-op walk
        extra = {"hw_min_page_bytes": 2 * MB} if os_assisted else {}
        engine = MigrationEngine(
            AMAP,
            MigrationConfig(
                algorithm=design, macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
                swap_interval=100, **extra,
            ),
            reserved_pages={SPARE},
        )
        assert engine.config.os_assisted is os_assisted
        engine.table.load_state_dict(table.state_dict())
        first = data.draw(st.integers(0, AMAP.subblocks_per_page - 1))
        engine._schedule(1000, mru, lru, first)
        ref = reference_schedule(engine, table.clone(), mru, lru, 1000, first)
        active = engine.active
        times, rows = expected_timeline(
            ref["states"], ref["update_times"], pages, stall=plan.stall, now=1000
        )
        assert active.times.tolist() == times
        assert recorded_rows(active) == rows
        assert (active.end, active.fill) == (ref["end"], ref["fill"])
        assert_same_state(ref["states"][-1], engine.table.state_dict())
        assert engine.migrated_bytes == plan.total_copy_bytes


def test_pre_state_mismatch_raises_before_any_write():
    """A table that is not in the template's pre-state for the roles is
    rejected whole: no row, page or cache entry is written."""
    table = TranslationTable(AMAP)
    template, binding = swap_template(table, 12, 1, basic=False)
    table.p_bit[1] = True           # a stray P bit on the LRU's row
    before = table.state_dict()
    with pytest.raises(MigrationError, match="pre-state"):
        template.undo_point(table, binding)
    assert_same_state(before, table.state_dict())


def test_plan_without_incoming_copy_is_rejected_before_any_write():
    """"Exactly one incoming copy" is a template build-time check: a
    builder plan without one fails the swap before the table, the
    in-flight migration or the swap counters are touched."""
    real = template_module.build_swap_steps

    def no_incoming(table, mru, lru):
        plan = real(table, mru, lru)
        steps = tuple(
            dataclasses.replace(s, incoming=False) if isinstance(s, CopyStep) else s
            for s in plan.steps
        )
        return dataclasses.replace(plan, steps=steps)

    engine = MigrationEngine(
        AMAP, MigrationConfig(algorithm="live", macro_page_bytes=1 * MB, swap_interval=100)
    )
    hot = AMAP.n_onpkg_pages + 3
    engine.observe_epoch(
        slots=np.array([], dtype=np.int64),
        slot_times=np.array([], dtype=np.int64),
        offpkg_pages=np.full(5, hot, dtype=np.int64),
        off_times=np.arange(5, dtype=np.int64),
        off_subblocks=np.zeros(5, dtype=np.int64),
    )
    before = engine.table.state_dict()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(template_module, "build_swap_steps", no_incoming)
        template_module._template.cache_clear()
        try:
            decision = engine.maybe_swap(now=100)
        finally:
            template_module._template.cache_clear()
    assert not decision.triggered
    assert "0 incoming copies" in decision.reason
    assert_same_state(before, engine.table.state_dict())
    assert engine.active is None
    assert (engine.swaps_triggered, engine.migrated_bytes) == (0, 0)


@pytest.mark.parametrize("design", ["N", "N-1", "live"])
def test_empty_slot_cache_survives_every_swap(design):
    """A swap sets the cached free slot it leaves instead of dropping
    the cache; after every swap of a seeded walk it equals a rebuild."""
    engine = MigrationEngine(
        AMAP, MigrationConfig(algorithm=design, macro_page_bytes=1 * MB, swap_interval=100)
    )
    table = engine.table
    rng = np.random.default_rng(7)
    now = 100
    swaps = 0
    for _ in range(60):
        hot = int(rng.integers(0, AMAP.ghost_page))
        if table.onpkg[hot]:
            continue
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot, dtype=np.int64),
            off_times=np.arange(now - 5, now, dtype=np.int64),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        if engine.maybe_swap(now).triggered:
            swaps += 1
            assert table._empty_cache_valid
            assert table.empty_slot() == fresh_empty(table.state_dict())
        now = engine.busy_until + 100
    assert swaps > 20
