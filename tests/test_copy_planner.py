"""The copy planner's mirror diff against the whole-table plan.

When no copy has executed, :func:`repro.migration.recovery.recovery_plan`
reads its maps off the two tables' dense mirrors and visits only the
pages whose resolution changes. The oracle here is the whole-table
formulation it replaced: resolve every data page of both tables, build
the full content and target maps, and hand them to the same
``recovery_moves``. On tables reached by random swap, retire and
release sequences, the two must emit the same steps, in the same order,
for every change made outside a swap plan: a retirement, a release and
a quarantine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.address import AddressMap
from repro.config import MigrationAlgorithm, MigrationConfig
from repro.errors import MigrationError
from repro.migration.engine import MigrationEngine
from repro.migration.recovery import content_of_table, recovery_moves, recovery_plan
from repro.units import KB, MB

N_SLOTS = 8
N_SPARES = 2


def make_engine(algorithm):
    amap = AddressMap(
        total_bytes=N_SLOTS * 4 * MB,
        onpkg_bytes=N_SLOTS * MB,
        macro_page_bytes=1 * MB,
        subblock_bytes=256 * KB,
    )
    spares = frozenset(range(amap.ghost_page - N_SPARES, amap.ghost_page))
    cfg = MigrationConfig(
        algorithm=algorithm, macro_page_bytes=1 * MB, subblock_bytes=256 * KB,
        swap_interval=100,
    )
    return MigrationEngine(amap, cfg, reserved_pages=spares), sorted(spares)


def data_pages(table):
    dead = table.reserved_pages | {table.amap.ghost_page}
    return [p for p in range(table.amap.n_total_pages) if p not in dead]


def full_map_plan(pre, target, skip=()):
    """Every data page resolved in both tables, unchanged pages included."""

    def loc(table, page):
        on, machine = table.resolve(page)
        return ("slot", machine) if on else ("mach", machine)

    target_of = {p: loc(target, p) for p in data_pages(target) if p not in skip}
    return recovery_moves(content_of_table(pre), target_of)


def step_key(steps):
    return [(s.src, s.dst, s.incoming, s.label) for s in steps]


def assert_plans_agree(pre, target, skip=()):
    mirror = recovery_plan(pre, [], target_table=target, skip=skip)
    assert step_key(mirror) == step_key(full_map_plan(pre, target, skip))


def check_every_change(engine, spares, rng):
    """Plan a retirement, a release and a quarantine from this state."""
    table = engine.table
    for slot in range(table.n_slots):
        retired = table.clone()
        free = [s for s in spares if s not in table.remap.values()]
        try:
            retired.retire_slot(slot, free[0] if free else spares[0])
        except MigrationError:
            continue  # retired, empty or out of spares: nothing to plan
        assert_plans_agree(table, retired)
    pages = data_pages(table)
    released = rng.choice(pages, size=rng.integers(1, 6), replace=False).tolist()
    after = table.clone()
    after.release_pages(released)
    assert_plans_agree(table, after, skip=released)
    home = table.clone()
    home.reset_identity()
    assert_plans_agree(table, home)


OPS = st.lists(
    st.tuples(st.sampled_from(["swap", "retire", "release"]),
              st.integers(0, 2**31 - 1)),
    max_size=10,
)


@settings(max_examples=40, deadline=None)
@given(
    algorithm=st.sampled_from(
        [MigrationAlgorithm.N, MigrationAlgorithm.N_MINUS_1, MigrationAlgorithm.LIVE]
    ),
    ops=OPS,
    seed=st.integers(0, 2**31 - 1),
)
def test_mirror_diff_plan_equals_full_map_plan(algorithm, ops, seed):
    engine, spares = make_engine(algorithm)
    rng = np.random.default_rng(seed)
    now = 0
    check_every_change(engine, spares, rng)
    for kind, arg in ops:
        table = engine.table
        if kind == "swap":
            # one hot off-package page out-counts every idle slot
            page = data_pages(table)[arg % len(data_pages(table))]
            engine.observe_epoch(
                slots=np.array([], dtype=np.int64),
                slot_times=np.array([], dtype=np.int64),
                offpkg_pages=np.full(5, page, dtype=np.int64),
                off_times=np.arange(now, now + 5, dtype=np.int64),
                off_subblocks=np.zeros(5, dtype=np.int64),
            )
            engine.maybe_swap(now + 5)
        elif kind == "retire":
            slot = arg % table.n_slots
            free = [s for s in spares if s not in table.remap.values()]
            if not free or table.retired[slot] or slot == table.empty_slot():
                continue
            if table.n_usable_slots <= 2:
                continue  # keep slots to swap through
            engine.retire_frame(now, slot, free[0])
        else:
            pages = data_pages(table)
            released = [pages[arg % len(pages)], pages[(arg >> 8) % len(pages)]]
            engine.release_tenant(now, released)
        now = max(now + 10, engine.busy_until + 1)
        table.audit()
        check_every_change(engine, spares, rng)


def test_collision_is_rejected_like_the_full_map():
    """Two pages resolving to one location leave one without a copy;
    both formulations refuse to plan from such a table."""
    engine, _ = make_engine(MigrationAlgorithm.N_MINUS_1)
    pre = engine.table.clone()
    pre.machine_of[N_SLOTS + 1] = N_SLOTS + 2  # page 9 claims page 10's frame
    target = pre.clone()
    target.reset_identity()
    with pytest.raises(MigrationError):
        full_map_plan(pre, target)
    with pytest.raises(MigrationError):
        recovery_plan(pre, [], target_table=target)
