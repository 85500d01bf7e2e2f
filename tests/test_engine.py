"""Tests for the migration engine: triggers, scheduling, timelines,
and a long-run stress property (invariants across hundreds of swaps)."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.address import AddressMap
from repro.config import BusConfig, MigrationConfig, SystemConfig
from repro.dram.refresh import RefreshSchedule
from repro.memctrl.heterogeneous import HeterogeneousController
from repro.migration.engine import MigrationEngine
from repro.migration.table import EMPTY
from repro.units import KB, MB

from .conftest import assert_same_state
from .swap_reference import (
    expected_timeline,
    moved_pages,
    recorded_rows,
    reference_schedule,
)

N_SLOTS = 8


def make_engine(algorithm="live", interval=100, **kwargs) -> MigrationEngine:
    amap = AddressMap(
        total_bytes=N_SLOTS * 4 * MB,
        onpkg_bytes=N_SLOTS * MB,
        macro_page_bytes=1 * MB,
        subblock_bytes=64 * KB,
    )
    cfg = MigrationConfig(
        algorithm=algorithm, macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
        swap_interval=interval, **kwargs,
    )
    return MigrationEngine(amap, cfg)


def observe_hot_page(engine: MigrationEngine, page: int, count: int = 5, t0: int = 0):
    engine.observe_epoch(
        slots=np.array([], dtype=np.int64),
        slot_times=np.array([], dtype=np.int64),
        offpkg_pages=np.full(count, page, dtype=np.int64),
        off_times=np.arange(t0, t0 + count, dtype=np.int64),
        off_subblocks=np.zeros(count, dtype=np.int64),
    )


class TestTrigger:
    def test_no_offpkg_traffic_no_swap(self):
        e = make_engine()
        d = e.maybe_swap(now=100)
        assert not d.triggered

    def test_hot_offpkg_page_triggers(self):
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        d = e.maybe_swap(now=100)
        assert d.triggered and d.mru == hot
        assert e.active is not None

    def test_busy_suppression(self):
        """P/F bits block re-triggering while a swap is in flight."""
        e = make_engine()
        observe_hot_page(e, N_SLOTS + 3)
        assert e.maybe_swap(now=100).triggered
        busy_until = e.active.end
        observe_hot_page(e, N_SLOTS + 4)
        d = e.maybe_swap(now=busy_until - 1)
        assert not d.triggered
        assert e.swaps_suppressed_busy == 1
        # after completion, a new swap goes through
        observe_hot_page(e, N_SLOTS + 4, t0=busy_until)
        assert e.maybe_swap(now=busy_until + 1).triggered

    def test_hottest_coldest_comparison(self):
        """No swap when the coldest slot is at least as hot (Section III-A)."""
        e = make_engine()
        hot = N_SLOTS + 3
        e.observe_epoch(
            slots=np.full(10, 2, dtype=np.int64),          # slot 2 very hot
            slot_times=np.arange(10, dtype=np.int64),
            offpkg_pages=np.full(3, hot, dtype=np.int64),  # off page less hot
            off_times=np.arange(10, 13, dtype=np.int64),
        )
        # make every other slot even hotter so slot 2 is the coldest
        e.monitor.slot_last_touch[:] = 100
        e.monitor.slot_last_touch[2] = 1
        e.monitor.slot_epoch_counts[:] = 20
        e.monitor.slot_epoch_counts[2] = 10
        d = e.maybe_swap(now=50)
        assert not d.triggered
        assert e.swaps_suppressed_cold == 1

    def test_trigger_disabled_swaps_unconditionally(self):
        e = make_engine(hottest_coldest_trigger=False)
        hot = N_SLOTS + 3
        e.observe_epoch(
            slots=np.full(10, 2, dtype=np.int64),
            slot_times=np.arange(10, dtype=np.int64),
            offpkg_pages=np.full(1, hot, dtype=np.int64),
            off_times=np.array([10], dtype=np.int64),
        )
        assert e.maybe_swap(now=50).triggered

    def test_ghost_physical_page_never_migrates(self):
        e = make_engine()
        observe_hot_page(e, e.amap.ghost_page)
        assert not e.maybe_swap(now=10).triggered

    def test_already_onpkg_candidate_skipped(self):
        e = make_engine()
        observe_hot_page(e, 2)  # page 2 is on-package (OF)
        # monitor thinks it's off-package (stale mid-epoch observation)
        d = e.maybe_swap(now=10)
        assert not d.triggered


HOT = N_SLOTS + 3


def feed_epoch(engine: MigrationEngine, page: int, count: int = 5, t0: int = 0):
    """One epoch: ``count`` accesses to off-package ``page`` plus two
    on-package slot touches, so both the page fold and the slot counts
    hold something for the boundary to clear."""
    engine.observe_epoch(
        slots=np.array([0, 1], dtype=np.int64),
        slot_times=np.array([t0, t0 + 1], dtype=np.int64),
        offpkg_pages=np.full(count, page, dtype=np.int64),
        off_times=np.arange(t0, t0 + count, dtype=np.int64),
        off_subblocks=np.zeros(count, dtype=np.int64),
    )


class StubQoS:
    """A capacity policy with a fixed answer for every candidate."""

    def __init__(self, exclude):
        self.exclude = exclude

    def constrain(self, page):
        return self.exclude


def _busy(e):
    feed_epoch(e, HOT)
    assert e.maybe_swap(now=100).triggered
    feed_epoch(e, HOT + 1, t0=200)
    return e.active.end - 1


def _retired_home(e):
    end = e.retire_frame(10, 0, e.amap.ghost_page - 1)
    feed_epoch(e, 0, t0=end + 1)  # page 0 now lives at the spare
    return end + 1


def _qos(exclude):
    def setup(e):
        e.qos = StubQoS(exclude)
        feed_epoch(e, HOT)
        return 1000
    return setup


def _cold(e):
    feed_epoch(e, HOT, count=1)
    e.monitor.slot_epoch_counts[:] = 5
    return 1000


def _aborted(e):
    feed_epoch(e, HOT)
    e.inject_abort(2)
    return 1000


def _quarantined(e):
    e.quarantine(5, "test")
    feed_epoch(e, HOT)
    return 1000


def _page(page_of, count=5):
    def setup(e):
        feed_epoch(e, page_of(e), count=count)
        return 1000
    return setup


#: id -> (setup returning the boundary's ``now``, triggered, reason regex)
SWAP_OUTCOMES = {
    "busy": (_busy, False, r"^previous swap still in flight"),
    "no-offpkg": (_page(lambda e: HOT, count=0), False, r"^no off-package accesses"),
    "omega": (_page(lambda e: e.amap.ghost_page), False, r"reserved Ω page$"),
    "spare": (_page(lambda e: e.amap.ghost_page - 1), False, r"reserved spare page$"),
    "retired-home": (_retired_home, False, r"^hottest page 0's home frame is retired$"),
    "on-package": (_page(lambda e: 2), False, r"^hottest page 2 already on-package$"),
    "qos-excluded": (
        _qos(set(range(N_SLOTS))), False,
        r"^QoS: every demotion candidate is excluded$",
    ),
    "cold": (_cold, False, r"^MRU count 1 <= LRU count 5$"),
    "triggered": (_page(lambda e: HOT), True, r"^hottest-coldest swap$"),
    "aborted": (_aborted, False, r"^swap failed: .*aborted at copy step 2"),
    "quarantined": (_quarantined, False, r"^migration quarantined"),
}


@pytest.mark.parametrize("outcome", list(SWAP_OUTCOMES))
def test_every_swap_outcome_closes_the_epoch(outcome):
    """Whatever ``maybe_swap`` decides, the boundary consumes the
    epoch's fold: no page stays a candidate and no slot keeps a count."""
    setup, triggered, reason = SWAP_OUTCOMES[outcome]
    base = make_engine()
    e = MigrationEngine(
        base.amap, base.config, reserved_pages={base.amap.ghost_page - 1}
    )
    now = setup(e)
    decision = e.maybe_swap(now)
    assert decision.triggered is triggered
    assert re.search(reason, decision.reason), decision.reason
    assert e.monitor.hottest_page() is None
    assert not e.monitor.slot_epoch_counts.any()


class TestScheduling:
    def test_timeline_starts_with_pre_swap_state(self):
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        active = e.active
        (col,) = np.flatnonzero(active.pages == hot)
        assert active.times[0] == -(1 << 62)
        # initially off-package at home
        assert (active.onpkg[0, col], active.machine[0, col]) == (False, hot)
        assert active.onpkg[-1, col]  # ends on-package

    def test_fill_info_timing(self):
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        fill = e.active.fill
        assert fill is not None
        assert fill.start >= 1000
        copy_cycles = BusConfig().copy_cycles(1 * MB, cross_boundary=True)
        assert fill.end - fill.start == pytest.approx(copy_cycles, rel=0.01)
        # critical-first wraparound ordering
        avail = fill.available_at(np.array([fill.first_subblock,
                                            (fill.first_subblock + 1) % fill.n_subblocks]))
        assert avail[0] < avail[1]

    def test_nonlive_fill_is_whole_page(self):
        """N-1 carries no fill: the routing timeline alone serves every
        sub-block of the incoming page from its pre-swap frame until the
        copy-in lands, and from its slot from then on."""
        cfg = SystemConfig(
            total_bytes=N_SLOTS * 4 * MB,
            onpkg_bytes=N_SLOTS * MB,
            migration=MigrationConfig(
                algorithm="N-1", macro_page_bytes=1 * MB,
                subblock_bytes=64 * KB, swap_interval=100,
            ),
        )
        e = MigrationEngine(cfg.address_map(), cfg.migration)
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        active = e.active
        assert active.fill is None
        slot = e.table.slot_of(hot)
        landed = 1000 + BusConfig().copy_cycles(1 * MB, cross_boundary=True)
        assert landed < active.end  # the demotion copies follow
        times = np.repeat([1000, landed - 1, landed, active.end], 2)
        subblocks = np.tile([0, 15], 4)
        on = np.empty(times.size, dtype=bool)
        machine = np.empty(times.size, dtype=np.int64)
        HeterogeneousController(cfg).resolve_into(
            np.full(times.size, hot), times, subblocks, e.table, active,
            on, machine,
        )
        assert on.tolist() == [False] * 4 + [True] * 4
        assert machine.tolist() == [hot] * 4 + [slot] * 4

    def test_stall_plan_for_basic_design(self):
        e = make_engine(algorithm="N")
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=1000)
        assert e.active.stall
        assert e.active.fill is None
        assert e.active.end > 1000

    def test_byte_accounting(self):
        e = make_engine()
        observe_hot_page(e, N_SLOTS + 3)
        e.maybe_swap(now=0)
        assert e.migrated_bytes == 3 * MB       # case A: 3 copies
        assert e.cross_boundary_bytes == 3 * MB

    def test_table_final_state_after_schedule(self):
        """The engine applies plans eagerly; the table ends consistent."""
        e = make_engine()
        hot = N_SLOTS + 3
        observe_hot_page(e, hot)
        e.maybe_swap(now=0)
        e.table.check_invariants()
        assert e.table.resolve(hot)[0]  # on-package


class TestLongRunStress:
    @pytest.mark.parametrize("algorithm", ["N", "N-1", "live"])
    def test_hundreds_of_swaps_keep_invariants(self, algorithm):
        """Drive the engine with a shifting hot set for many epochs; the
        table must stay consistent and exactly one slot stays empty
        (N-1/live) the whole time."""
        rng = np.random.default_rng(0)
        e = make_engine(algorithm=algorithm)
        n_pages = e.amap.n_total_pages
        now = 0
        for epoch in range(300):
            hot = int(rng.integers(0, n_pages - 1))  # never Ω
            on, _ = e.table.resolve(hot)
            slots_touched = rng.integers(0, N_SLOTS, 5)
            e.observe_epoch(
                slots=slots_touched,
                slot_times=np.full(5, now, dtype=np.int64),
                offpkg_pages=np.array([] if on else [hot] * 9, dtype=np.int64),
                off_times=np.arange(now, now + (0 if on else 9), dtype=np.int64),
                off_subblocks=np.zeros(0 if on else 9, dtype=np.int64),
            )
            # a 1 MB swap takes ~1M cycles; space epochs so most complete
            now += 1_200_000
            e.maybe_swap(now)
            e.table.check_invariants()
            if algorithm != "N":
                assert e.table.empty_slot() is not None
            assert (e.table.pair != EMPTY).sum() >= N_SLOTS - 1
        assert e.swaps_triggered > 20


@st.composite
def refresh_schedules(draw):
    """``None`` (classic copy durations) or a region refresh schedule
    whose windows stretch a copy at most twofold."""
    if not draw(st.booleans()):
        return None
    interval = draw(st.integers(2, 200_000))
    return RefreshSchedule(interval, draw(st.integers(1, max(1, interval // 2))))


class TestTimelineConsistency:
    """A swap's routing timeline is the sequence of the affected pages'
    mirror entries after each table update — the epoch simulator's
    correctness hinges on the hand-off between the per-time overrides and
    the dense mirrors. The stepwise loop reads the same arrays as the
    fused one, so the fused/stepwise oracle cannot catch a wrong row:
    the expected timeline comes from the builders' plan replayed op by
    op on a clone of the pre-swap table. Rows compare per page (the
    column order is no contract)."""

    @pytest.mark.parametrize("algorithm", ["N", "N-1", "live"])
    @settings(max_examples=25, deadline=None)
    @given(
        os_assisted=st.booleans(),
        onpkg_refresh=refresh_schedules(),
        offpkg_refresh=refresh_schedules(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_final_timeline_state_matches_mirrors(
        self, algorithm, os_assisted, onpkg_refresh, offpkg_refresh, seed
    ):
        # 1 MB pages are OS-assisted below a 2 MB hardware threshold
        extra = {"hw_min_page_bytes": 2 * MB} if os_assisted else {}
        e = make_engine(algorithm=algorithm, **extra)
        assert e.config.os_assisted is os_assisted
        e.onpkg_refresh = onpkg_refresh
        e.offpkg_refresh = offpkg_refresh

        rng = np.random.default_rng(seed)
        now = 0
        swaps = 0
        for _ in range(12):
            hot = int(rng.integers(0, e.amap.n_total_pages - 1))  # never Ω
            if bool(e.table.onpkg[hot]):
                continue
            now = max(now, e.busy_until) + 1
            observe_hot_page(e, hot, t0=now)
            now += 1000
            pre = e.table.clone()
            first = e.monitor.last_subblock(hot)
            decision = e.maybe_swap(now)
            if not decision.triggered:
                continue
            swaps += 1
            active = e.active
            pages = active.pages
            ref = reference_schedule(e, pre, decision.mru, decision.lru, now, first)
            # the timeline covers every page the plan moves
            assert moved_pages(ref["states"]) <= set(pages.tolist())
            times, rows = expected_timeline(
                ref["states"], ref["update_times"], pages.tolist(),
                stall=ref["plan"].stall, now=now,
            )
            assert recorded_rows(active) == rows
            assert active.times.tolist() == times
            assert active.end == ref["end"]
            # the hot page starts off-package and ends on-package
            (col,) = np.flatnonzero(pages == hot)
            assert not active.onpkg[0, col] and active.onpkg[-1, col]
            # the last row is the table's final (mirror) state, which is
            # the op-by-op replay's
            assert (active.onpkg[-1] == e.table.onpkg[pages]).all()
            assert (active.machine[-1] == e.table.machine_of[pages]).all()
            assert_same_state(ref["states"][-1], e.table.state_dict())
            assert times[0] == -(1 << 62)
            assert (np.diff(active.times) >= 0).all()
            assert now <= times[1] and times[-1] <= active.end
            if algorithm == "N":
                assert times == [-(1 << 62), now]
        assert swaps > 0

    def test_fill_covers_whole_page_once(self):
        e = make_engine()
        observe_hot_page(e, N_SLOTS + 2)
        e.maybe_swap(now=0)
        fill = e.active.fill
        sbs = np.arange(fill.n_subblocks)
        avail = fill.available_at(sbs)
        # every sub-block lands within the copy window, each at a distinct time
        assert avail.min() > fill.start
        assert avail.max() <= fill.end + fill.subblock_cycles
        assert len(np.unique(avail)) == fill.n_subblocks
