"""Which copies stay on-chip, over every plan the protocol checker
enumerates.

A copy crosses the package boundary exactly when an endpoint is an
off-package machine page; it then runs on the off-package bus, and
otherwise on the SiP interconnect. In the swap plans only two kinds of
copy stay on-chip: the N design's staging of a slot into the bounce
buffer, and the N-1/Live relocation of an MS page's partner from one
slot into the empty one (Fig 8 cases C and D). These tests pin that for
every plan ``reachable_states`` x ``candidate_pairs`` yields for N, N-1
and Live, with the engine's byte counters and timing, and for every
copy-back the abort recovery plans from those swaps.
"""

from __future__ import annotations

import pytest

from repro.analysis.protocol import candidate_pairs, model_address_map, reachable_states
from repro.config import BusConfig, MigrationAlgorithm, MigrationConfig
from repro.migration.algorithms import SwapCase, TableUpdate, crosses_boundary
from repro.migration.engine import MigrationEngine
from repro.migration.recovery import recovery_plan
from repro.migration.table import TranslationTable

from .swap_reference import build_plan

AMAP = model_address_map()
PAGE = AMAP.macro_page_bytes
BUS = BusConfig()
#: one page copy's bus cycles: on-chip, across the boundary
ONCHIP, CROSSING = BUS.copy_cycles(PAGE, False), BUS.copy_cycles(PAGE, True)


def every_plan(variant: str):
    """``(pre-swap table, plan)`` for every reachable state and pair."""
    basic = variant == MigrationAlgorithm.N
    for state in reachable_states(AMAP, variant=variant):
        table = TranslationTable(AMAP, reserve_empty_slot=not basic)
        table.load_state_dict(state)
        for mru, lru in candidate_pairs(table):
            yield table, build_plan(table, mru, lru, basic=basic)


def expected_onchip(table, plan) -> list:
    """The plan's on-chip copies, by the plan's structure alone."""
    copies = plan.copies
    if plan.stall:
        # each N exchange stages its slot into the buffer first
        return [c for c in copies if c.src[0] == "slot" and c.dst == ("buf", 0)]
    if plan.case in (SwapCase.C, SwapCase.D):
        # the MS MRU's partner moves from the MRU's slot to the empty one
        first = copies[0]
        assert (first.src, first.dst) == (("slot", plan.mru), ("slot", table.empty_slot()))
        return [first]
    return []


def engine_for(variant: str) -> MigrationEngine:
    cfg = MigrationConfig(
        algorithm=variant, macro_page_bytes=PAGE, subblock_bytes=AMAP.subblock_bytes,
        hw_min_page_bytes=PAGE,
    )
    return MigrationEngine(AMAP, cfg, BUS)


@pytest.mark.parametrize("variant", MigrationAlgorithm.ALL)
def test_only_staging_and_relocation_stay_onchip(variant):
    engine = engine_for(variant)
    n_plans = 0
    for table, plan in every_plan(variant):
        n_plans += 1
        onchip = expected_onchip(table, plan)
        assert [c for c in plan.copies if not crosses_boundary(c.src, c.dst)] == onchip
        n_cross = len(plan.copies) - len(onchip)
        assert plan.cross_boundary_bytes == n_cross * PAGE
        assert plan.total_copy_bytes == len(plan.copies) * PAGE

        # the engine runs the swap from its template: its counters and
        # the swap's length price the same copies on the same buses
        engine.table.load_state_dict(table.state_dict())
        before = engine.migrated_bytes, engine.cross_boundary_bytes
        engine._schedule(0, plan.mru, plan.lru, 0)
        assert engine.migrated_bytes - before[0] == len(plan.copies) * PAGE
        assert engine.cross_boundary_bytes - before[1] == n_cross * PAGE
        assert engine.active.end == len(onchip) * ONCHIP + n_cross * CROSSING
    assert n_plans == {"N": 180, "N-1": 384, "live": 384}[variant]


def abort_prefixes(table, plan):
    """``(executed copies, mid-state table)`` for an abort before each
    copy step, the mid-state holding the updates made before it."""
    mid = table.clone()
    executed = []
    for step in plan.steps:
        if isinstance(step, TableUpdate):
            step.apply(mid)
            continue
        yield list(executed), mid.clone()
        executed.append((step.src, step.dst, True))
        if step.incoming and mid.filling:
            mid.end_fill()


@pytest.mark.parametrize("variant", MigrationAlgorithm.ALL)
def test_recovery_copies_cross_exactly_at_offpackage_endpoints(variant):
    """Every copy-back an aborted swap plans, bounce-buffer staging
    included, is priced on the off-package bus exactly when an endpoint
    is off-package."""
    engine = engine_for(variant)
    kinds = set()
    for table, plan in every_plan(variant):
        for executed, mid in abort_prefixes(table, plan):
            for step in recovery_plan(table, executed, prefer_table=mid):
                pair = (step.src[0], step.dst[0])
                kinds.add(pair)
                offpkg = "mach" in pair
                assert crosses_boundary(step.src, step.dst) == offpkg
                assert engine._copy_duration(0, step) == (CROSSING if offpkg else ONCHIP)
    # the sweep reaches on-chip copy-backs and, under N, both the
    # buffer's drain into a slot and a cycle staged through the buffer
    if variant == MigrationAlgorithm.N:
        assert {("buf", "slot"), ("mach", "buf"), ("buf", "mach")} <= kinds
    else:
        assert ("slot", "slot") in kinds
