"""RAS subsystem tests: config validation, CE telemetry, patrol scrub,
wear leveling, predictive frame retirement (table, engine, controller),
bit-identity of the disabled default, checkpointing, and a Hypothesis
property over quarantine/abort/retirement interleavings."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.address import AddressMap
from repro.config import (
    MigrationConfig,
    RASConfig,
    ResilienceConfig,
    SystemConfig,
)
from repro.core.simulator import EpochSimulator
from repro.datamodel.shadow import ShadowMemory
from repro.errors import (
    CheckpointError,
    ConfigError,
    MigrationError,
    SimulationError,
    TranslationTableError,
)
from repro.experiments.chaos_soak import soak_config, soak_fault_plan, soak_trace
from repro.migration.engine import MigrationEngine
from repro.migration.policies import EpochMonitor
from repro.migration.recovery import recovery_plan
from repro.migration.table import EMPTY, TranslationTable
from repro.ras import CETelemetry, PatrolScrubber, WearModel
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.faults import (
    CORE_FAULT_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.stats.report import ras_table
from repro.trace.record import make_chunk
from repro.units import KB, MB

from .conftest import (
    LEGACY_CHECKPOINT_VERSIONS,
    synthetic_trace,
    write_checkpoint_version,
)

N_SLOTS = 8


def make_ras_engine(algorithm="live", n_spares=2, **kwargs):
    """An engine over an 8-slot geometry with spare pages reserved."""
    amap = AddressMap(
        total_bytes=N_SLOTS * 4 * MB,
        onpkg_bytes=N_SLOTS * MB,
        macro_page_bytes=1 * MB,
        subblock_bytes=64 * KB,
    )
    spares = frozenset(range(amap.ghost_page - n_spares, amap.ghost_page))
    cfg = MigrationConfig(
        algorithm=algorithm, macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
        swap_interval=100, **kwargs,
    )
    engine = MigrationEngine(amap, cfg, reserved_pages=spares)
    return engine, sorted(spares)


def observe_hot_page(engine, page, count=5, t0=0):
    engine.observe_epoch(
        slots=np.array([], dtype=np.int64),
        slot_times=np.array([], dtype=np.int64),
        offpkg_pages=np.full(count, page, dtype=np.int64),
        off_times=np.arange(t0, t0 + count, dtype=np.int64),
        off_subblocks=np.zeros(count, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# configuration validation (satellite: RASConfig + ResilienceConfig)
# ---------------------------------------------------------------------------

class TestRASConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(ce_base_rate=1.5),
        dict(ce_base_rate=-0.1),
        dict(ce_threshold=0),
        dict(ce_leak=-0.5),
        dict(ce_cost_cycles=-1),
        dict(scrub_interval_epochs=-1),
        dict(scrub_frames_per_pass=0),
        dict(scrub_stride_bytes=0),
        dict(spare_pages=-1),
        dict(min_usable_frames=0),
        dict(wear_penalty=-1.0),
        dict(wear_window=0),
        dict(enabled=True, spare_pages=0),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            RASConfig(**kw)

    def test_default_is_disabled_and_reserves_nothing(self):
        ras = RASConfig()
        assert not ras.enabled
        amap = AddressMap(
            total_bytes=32 * MB, onpkg_bytes=4 * MB,
            macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
        )
        assert ras.reserved_pages(amap) == frozenset()

    def test_reserved_pages_sit_below_ghost(self):
        amap = AddressMap(
            total_bytes=32 * MB, onpkg_bytes=4 * MB,
            macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
        )
        ras = RASConfig(enabled=True, spare_pages=3)
        spares = ras.reserved_pages(amap)
        assert spares == frozenset(
            {amap.ghost_page - 3, amap.ghost_page - 2, amap.ghost_page - 1}
        )

    def test_with_ras_builds_enabled_config(self):
        cfg = SystemConfig(
            total_bytes=32 * MB, onpkg_bytes=4 * MB,
            migration=MigrationConfig(macro_page_bytes=1 * MB),
        ).with_ras(enabled=True, ce_base_rate=0.01, spare_pages=1)
        assert cfg.ras.enabled and cfg.ras.ce_base_rate == 0.01


class TestResilienceConfigValidation:
    """Regression coverage for the pre-existing validation rules."""

    @pytest.mark.parametrize("kw", [
        dict(audit_interval=-1),
        dict(epoch_cycle_budget=-1),
        dict(max_consecutive_failures=0),
        dict(max_consecutive_failures=-2),
        dict(watchdog_action="explode"),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            ResilienceConfig(**kw)

    def test_valid_construction(self):
        r = ResilienceConfig(
            audit_interval=4, epoch_cycle_budget=10_000,
            max_consecutive_failures=5, watchdog_action="degrade",
        )
        assert r.watchdog_action == "degrade"


# ---------------------------------------------------------------------------
# CE telemetry
# ---------------------------------------------------------------------------

class TestCETelemetry:
    def test_clustered_ces_cross_threshold(self):
        t = CETelemetry(4, threshold=3, leak=0.25)
        for _ in range(3):
            t.record(1)
        assert t.over_threshold() == [1]

    def test_isolated_ces_leak_away(self):
        t = CETelemetry(4, threshold=3, leak=1.0)
        for _ in range(10):  # one CE per epoch, fully leaked each time
            t.record(2)
            assert t.over_threshold() == []
            t.decay()
        assert t.lifetime[2] == 10  # lifetime never leaks

    def test_sources_counted_separately(self):
        t = CETelemetry(4, threshold=8, leak=0.0)
        t.record(0, 2, source="demand")
        t.record(1, 3, source="scrub")
        t.record(2, 4, source="burst")
        assert (t.ce_demand, t.ce_scrub, t.ce_burst) == (2, 3, 4)
        assert t.total == 9

    def test_reset_frame_drains_bucket(self):
        t = CETelemetry(4, threshold=2, leak=0.0)
        t.record(3, 5)
        t.reset_frame(3)
        assert t.over_threshold() == []
        assert t.lifetime[3] == 5

    def test_state_dict_round_trip(self):
        """The telemetry's state survives the checkpoint's pickle."""
        t = CETelemetry(4, threshold=3, leak=0.25)
        t.record(1, 2, source="scrub")
        t.decay()
        u = pickle.loads(pickle.dumps(t))
        assert np.array_equal(u.level, t.level)
        assert u.ce_scrub == 2


# ---------------------------------------------------------------------------
# patrol scrubber
# ---------------------------------------------------------------------------

class TestPatrolScrubber:
    def make(self, **kw):
        defaults = dict(
            interval_epochs=4, frames_per_pass=2,
            stride_bytes=4 * KB, page_bytes=64 * KB,
        )
        defaults.update(kw)
        return PatrolScrubber(8, **defaults)

    def test_due_every_interval(self):
        s = self.make(interval_epochs=3)
        assert [s.due(e) for e in range(6)] == [
            False, False, True, False, False, True,
        ]

    def test_zero_interval_never_due(self):
        s = self.make(interval_epochs=0)
        assert not any(s.due(e) for e in range(10))

    def test_round_robin_covers_all_frames(self):
        s = self.make(frames_per_pass=3)
        usable = np.arange(8)
        seen = []
        for _ in range(4):
            seen.extend(s.next_frames(usable))
        assert seen[:8] == list(range(8))  # full rotation before repeats

    def test_cursor_skips_retired_frames(self):
        s = self.make(frames_per_pass=2)
        usable = np.array([0, 1, 3, 4, 6, 7])  # 2 and 5 retired
        frames = []
        for _ in range(3):
            frames.extend(s.next_frames(usable))
        assert frames == [0, 1, 3, 4, 6, 7]
        assert 2 not in frames and 5 not in frames

    def test_pass_larger_than_usable_set(self):
        s = self.make(frames_per_pass=10)
        assert s.next_frames(np.array([2, 5])) == [2, 5]
        assert s.next_frames(np.array([], dtype=np.int64)) == []

    def test_latents_surface_only_when_scrubbed(self):
        s = self.make()
        s.plant_latent(3, 2)
        s.plant_latent(3)
        assert s.collect_latents([1, 2]) == 0
        assert s.collect_latents([3]) == 3
        assert s.collect_latents([3]) == 0  # consumed

    def test_reads_per_frame_from_stride(self):
        s = self.make(stride_bytes=4 * KB, page_bytes=64 * KB)
        assert s.reads_per_frame == 16


# ---------------------------------------------------------------------------
# wear model
# ---------------------------------------------------------------------------

class TestWearModel:
    def test_demand_writes_count_lines(self):
        w = WearModel(16, penalty_weight=1.0, window=4)
        w.observe_demand(np.array([5, 5, 9]))
        assert w.writes[5] == 2 and w.writes[9] == 1
        assert w.total_writes == 3

    def test_copy_counts_full_page(self):
        w = WearModel(16, penalty_weight=1.0, window=4)
        w.observe_copy(7, 1 * MB)
        assert w.writes[7] == MB // 64
        assert w.max_page_writes == MB // 64

    def test_penalty_scales_with_writes(self):
        w = WearModel(16, penalty_weight=0.5, window=4)
        w.observe_demand(np.array([3] * 8))
        assert w.penalty(np.array([3]))[0] == pytest.approx(0.5 * 8 / 4)
        assert w.penalty(np.array([4]))[0] == 0.0


class TestWearSteering:
    def test_penalty_flips_hottest_page_choice(self):
        m = EpochMonitor(4)
        off = np.array([10] * 5 + [11] * 4, dtype=np.int64)
        m.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=off,
            off_times=np.arange(off.size, dtype=np.int64),
        )
        assert m.hottest_page() == (10, 5)
        penalty = lambda pages: np.where(pages == 10, 2.0, 0.0)  # noqa: E731
        page, count = m.hottest_page(penalty=penalty)
        assert page == 11
        assert count == 4  # raw epoch count, not the penalised score


# ---------------------------------------------------------------------------
# translation-table retirement
# ---------------------------------------------------------------------------

class TestTableRetirement:
    def make_table(self, n_spares=2):
        amap = AddressMap(
            total_bytes=16 * MB, onpkg_bytes=4 * MB,
            macro_page_bytes=1 * MB, subblock_bytes=64 * KB,
        )
        spares = sorted(
            range(amap.ghost_page - n_spares, amap.ghost_page)
        )
        table = TranslationTable(
            amap, reserve_empty_slot=True, reserved_pages=frozenset(spares)
        )
        return table, spares

    def test_identity_retire(self):
        table, spares = self.make_table()
        occupant = table.retire_slot(0, spares[0])
        assert occupant == 0
        assert table.retired[0] and table.remap[0] == spares[0]
        assert table.page_in_slot(0) == EMPTY
        assert table.machine_of[0] == spares[0]
        assert not table.onpkg[0]
        assert table.is_retired_home(0)
        assert table.n_usable_slots == table.n_slots - 1
        table.audit()
        table.check_invariants()

    def test_empty_slot_never_counts_retired_frames(self):
        table, spares = self.make_table()
        free = table.empty_slot()
        victim = next(s for s in range(table.n_slots) if s != free)
        table.retire_slot(victim, spares[0])
        assert table.empty_slot() == free

    def test_cannot_retire_the_empty_slot(self):
        table, spares = self.make_table()
        free = table.empty_slot()
        with pytest.raises(TranslationTableError, match="empty slot"):
            table.retire_slot(free, spares[0])

    def test_cannot_retire_twice(self):
        table, spares = self.make_table()
        table.retire_slot(0, spares[0])
        with pytest.raises(TranslationTableError, match="already retired"):
            table.retire_slot(0, spares[1])

    def test_spare_must_be_reserved_and_unused(self):
        table, spares = self.make_table()
        with pytest.raises(TranslationTableError, match="not a reserved"):
            table.retire_slot(0, table.n_slots + 1)
        table.retire_slot(0, spares[0])
        with pytest.raises(TranslationTableError, match="already in use"):
            table.retire_slot(1, spares[0])

    def test_reset_identity_keeps_retirements(self):
        table, spares = self.make_table()
        table.retire_slot(1, spares[1])
        table.reset_identity()
        assert table.retired[1]
        assert table.machine_of[1] == spares[1]
        assert table.empty_slot() is not None
        table.audit()
        table.check_invariants()

    def test_state_dict_round_trip_carries_retirement(self):
        table, spares = self.make_table()
        table.retire_slot(0, spares[0])
        other, _ = self.make_table()
        other.load_state_dict(table.state_dict())
        assert other.retired[0] and other.remap == {0: spares[0]}
        other.audit()

    @pytest.mark.parametrize("version", LEGACY_CHECKPOINT_VERSIONS)
    def test_legacy_checkpoint_is_rejected(self, tmp_path, version):
        # older schemas lack (or misplace) retirement and monitor state;
        # they are refused, not loaded with guessed defaults
        path = tmp_path / f"v{version}.ckpt"
        write_checkpoint_version(
            path, EpochSimulator(soak_config("live")), version
        )
        with pytest.raises(
            CheckpointError, match=f"unsupported checkpoint version {version} "
        ):
            load_checkpoint(path)


def retirement_plan(table, slot, spare):
    """The copies ``MigrationEngine.retire_frame`` runs: planned from the
    table to a clone that has taken the retirement."""
    retired = table.clone()
    retired.retire_slot(slot, spare)
    return recovery_plan(table, [], target_table=retired)


class TestRetirementMoves:
    def test_identity_frame_is_one_copy_to_the_spare(self):
        engine, spares = make_ras_engine()
        steps = retirement_plan(engine.table, 2, spares[0])
        assert len(steps) == 1
        assert steps[0].src == ("slot", 2)
        assert steps[0].dst == ("mach", spares[0])
        assert steps[0].cross_boundary
        assert steps[0].nbytes == 1 * MB

    def test_transposed_frame_sends_occupant_home(self):
        engine, spares = make_ras_engine()
        hot = N_SLOTS + 3
        observe_hot_page(engine, hot)
        assert engine.maybe_swap(now=100).triggered
        slot = engine.table.slot_of(hot)
        steps = retirement_plan(engine.table, slot, spares[0])
        assert len(steps) == 2
        # page `slot`'s data (parked at the occupant's home) moves first
        assert steps[0].src == ("mach", hot)
        assert steps[0].dst == ("mach", spares[0])
        assert steps[1].src == ("slot", slot)
        assert steps[1].dst == ("mach", hot)
        assert all(s.cross_boundary and s.nbytes == 1 * MB for s in steps)

    def test_rejects_mid_swap_slot(self):
        engine, spares = make_ras_engine()
        engine.table.p_bit[2] = True  # a torn swap left the slot busy
        with pytest.raises(MigrationError, match="mid-swap"):
            retirement_plan(engine.table, 2, spares[0])


# ---------------------------------------------------------------------------
# engine copy-out
# ---------------------------------------------------------------------------

class TestEngineRetireFrame:
    def test_retire_preserves_data_and_stalls(self):
        engine, spares = make_ras_engine()
        shadow = ShadowMemory(engine.table)
        engine.shadow = shadow
        end = engine.retire_frame(1000, 0, spares[0])
        assert end > 1000
        assert engine.active.in_flight(end - 1)
        assert engine.active.recovery
        assert engine.frames_retired == 1
        assert shadow.verify_table(engine.table) == []
        assert not shadow.violations
        kinds = [e.kind for e in engine.degradation_events]
        assert "frame-retired" in kinds

    def test_retire_transposed_frame_with_shadow(self):
        engine, spares = make_ras_engine()
        shadow = ShadowMemory(engine.table)
        engine.shadow = shadow
        hot = N_SLOTS + 3
        observe_hot_page(engine, hot)
        assert engine.maybe_swap(now=100).triggered
        now = engine.active.end + 1
        slot = engine.table.slot_of(hot)
        engine.retire_frame(now, slot, spares[0])
        assert engine.table.retired[slot]
        assert shadow.verify_table(engine.table) == []
        assert not shadow.violations
        engine.table.audit()

    def test_retire_refused_while_swap_in_flight(self):
        engine, spares = make_ras_engine()
        observe_hot_page(engine, N_SLOTS + 3)
        assert engine.maybe_swap(now=100).triggered
        with pytest.raises(MigrationError, match="in flight"):
            engine.retire_frame(engine.active.end - 1, 0, spares[0])

    def test_retire_refused_when_quarantined(self):
        engine, spares = make_ras_engine()
        engine.quarantine(50, "test")
        with pytest.raises(MigrationError, match="quarantined"):
            engine.retire_frame(100, 0, spares[0])

    def test_retirement_copies_wear_the_spare(self):
        engine, spares = make_ras_engine()
        engine.wear = WearModel(
            engine.amap.n_total_pages, penalty_weight=0.0, window=1024
        )
        engine.retire_frame(1000, 0, spares[0])
        assert engine.wear.writes[spares[0]] == MB // 64

    @pytest.mark.parametrize("algorithm", ["N-1", "live"])
    def test_abort_copy_back_wears_its_destination(self, algorithm):
        """A data-safe abort's copy-back writes like any other copy."""
        engine, _ = make_ras_engine(algorithm)
        engine.wear = WearModel(
            engine.amap.n_total_pages, penalty_weight=0.0, window=1024
        )
        observe_hot_page(engine, N_SLOTS + 3)
        engine.inject_abort(2)
        decision = engine.maybe_swap(now=100)
        assert decision.reason.startswith("swap failed")
        assert engine.abort_recoveries == 1
        # the executed prefix wrote one page to an off-package frame,
        # and the copy-back writes one page home to another
        assert engine.wear.total_writes == 2 * MB // 64

    def test_swap_never_promotes_a_retired_home(self):
        engine, spares = make_ras_engine()
        engine.retire_frame(1000, 0, spares[0])
        now = engine.active.end + 1
        observe_hot_page(engine, 0, t0=now)  # page 0 now lives at the spare
        decision = engine.maybe_swap(now)
        assert not decision.triggered


# ---------------------------------------------------------------------------
# end-to-end: RAS-enabled simulation
# ---------------------------------------------------------------------------

class TestRasSimulation:
    def test_chaos_soak_retires_and_degrades_gracefully(self):
        sim = EpochSimulator(soak_config("live"), track_data=True)
        sim.attach_faults(soak_fault_plan())
        result = sim.run(soak_trace(60))
        ras = result.ras
        assert ras is not None
        assert result.data_violations == 0
        assert sim.shadow.verify_table(sim.table) == []
        assert ras.frames_retired >= 1
        assert ras.frames_usable == ras.frames_total - ras.frames_retired
        assert ras.spares_remaining == ras.spares_total - ras.frames_retired
        sim.table.audit()
        # capacity/eta trajectory shrinks with each retirement
        usable = [u for _, u, _, _ in ras.capacity_series]
        assert usable[0] == ras.frames_total
        assert usable[-1] == ras.frames_usable
        assert all(a >= b for a, b in zip(usable, usable[1:]))
        assert all(0.0 <= eta <= 1.0 for _, _, _, eta in ras.capacity_series)
        rendered = ras_table(result).render()
        assert "retired: frame" in rendered

    def test_scrubber_surfaces_latent_ces(self):
        cfg = soak_config("live")
        sim = EpochSimulator(cfg, track_data=False)
        sim.attach_faults(FaultPlan(
            events=(FaultEvent(epoch=1, kind=FaultKind.SCRUB_LATENT, param=5),),
        ))
        result = sim.run(soak_trace(20))
        assert result.ras.ce_scrub >= 1
        assert result.ras.scrub_passes >= 1
        assert result.ras.scrub_reads > 0

    def test_traces_may_not_touch_spare_pages(self):
        cfg = soak_config("live")
        amap = cfg.address_map()
        spare = min(cfg.ras.reserved_pages(amap))
        addr = np.array([spare * (64 * KB)], dtype=np.int64)
        sim = EpochSimulator(cfg)
        with pytest.raises(SimulationError, match="reserved"):
            sim.run(make_chunk(addr, time=np.array([1], dtype=np.int64)))

    def test_disabled_ras_is_bit_identical(self):
        trace = synthetic_trace(4000)
        base = SystemConfig(
            total_bytes=64 * MB, onpkg_bytes=8 * MB,
            migration=MigrationConfig(macro_page_bytes=1 * MB, swap_interval=500),
        )
        # identical geometry, RAS present-but-disabled with hostile knobs
        knobs = base.with_ras(
            enabled=False, ce_base_rate=0.9, seed=123, scrub_interval_epochs=1,
        )
        a = EpochSimulator(base).run(trace)
        b = EpochSimulator(knobs).run(trace)
        assert b.ras is None
        assert a.total_latency == b.total_latency
        assert np.array_equal(a.epoch_latency, b.epoch_latency)
        assert a.swaps_triggered == b.swaps_triggered

    def test_core_fault_kinds_exclude_ras_kinds(self):
        """Seeded legacy campaigns must replay identically: the default
        random-plan kind pool is pinned to the original five."""
        assert FaultKind.CE_BURST not in CORE_FAULT_KINDS
        assert FaultKind.SCRUB_LATENT not in CORE_FAULT_KINDS
        plan = FaultPlan.random(seed=4, n_epochs=200, n_slots=8, rate=0.5)
        assert plan.events
        assert all(ev.kind in CORE_FAULT_KINDS for ev in plan.events)

    def test_checkpoint_round_trip_mid_soak(self, tmp_path):
        cfg = soak_config("live")
        full = soak_trace(40)
        cut = full.addr.size // 2
        first = make_chunk(full.addr[:cut], time=full.time[:cut])
        second = make_chunk(full.addr[cut:], time=full.time[cut:])

        sim = EpochSimulator(cfg, track_data=True)
        sim.attach_faults(soak_fault_plan())
        path = tmp_path / "mid_soak.ckpt"
        save_checkpoint(path, sim, sim.run(first))
        res_a = sim.run(second)

        resumed = load_checkpoint(path).simulator
        res_b = resumed.run(second)

        assert res_a.total_latency == res_b.total_latency
        assert res_a.ras.frames_retired == res_b.ras.frames_retired
        assert res_a.ras.ce_demand == res_b.ras.ce_demand
        assert res_a.ras.ce_scrub == res_b.ras.ce_scrub
        assert res_a.ras.scrub_passes == res_b.ras.scrub_passes
        assert np.array_equal(
            resumed.table.state_dict()["pair"], sim.table.state_dict()["pair"]
        )
        resumed.table.audit()


# ---------------------------------------------------------------------------
# property: quarantine x abort-recovery x retirement interleavings
# ---------------------------------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["swap", "abort_swap", "retire", "quarantine", "wait"]),
        st.integers(0, 63),
    ),
    min_size=1, max_size=25,
)

MIN_USABLE = 2


class TestInterleavingProperty:
    @given(ops=OPS)
    @settings(max_examples=40, deadline=None)
    def test_any_interleaving_leaves_the_table_sound(self, ops):
        engine, spares = make_ras_engine(n_spares=6)
        shadow = ShadowMemory(engine.table)
        engine.shadow = shadow
        table = engine.table
        pool = list(spares)
        data_pages = [
            p for p in range(N_SLOTS, engine.amap.n_total_pages)
            if p not in set(spares) and p != engine.amap.ghost_page
        ]
        now = 1_000
        for op, param in ops:
            now += 40_000  # shorter than a copy window: busy paths fire
            if op == "wait":
                now += 3_000_000  # longer than any window: quiescent paths
            elif op in ("swap", "abort_swap"):
                if op == "abort_swap":
                    engine.inject_abort(param % 3)
                observe_hot_page(
                    engine, data_pages[param % len(data_pages)], t0=now
                )
                engine.maybe_swap(now)
            elif op == "quarantine":
                if not engine.quarantined:
                    engine.quarantine(now, "property interleaving")
            elif op == "retire":
                # mirror the RAS controller's retirement policy gates
                frame = param % table.n_slots
                if (
                    engine.quarantined
                    or not pool
                    or (engine.active is not None
                        and engine.active.in_flight(now))
                    or table.retired[frame]
                    or table.page_in_slot(frame) == EMPTY
                    or table.n_usable_slots - 1 < MIN_USABLE
                ):
                    continue
                engine.retire_frame(now, frame, pool.pop(0))
            table.check_invariants()

        # regardless of interleaving: pairing invariant intact, the free
        # frame survives, the usable floor holds, and no data was lost
        table.audit()
        assert table.n_usable_slots >= MIN_USABLE
        assert table.empty_slot() is not None
        assert not shadow.violations
        assert shadow.verify_table(table) == []
