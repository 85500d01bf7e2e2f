"""Row-disturbance subsystem tests: activation extraction, the leaky
buckets, the mitigation ladder (victim refresh -> throttle -> RAS
retirement / migration bias), unmitigated flips surfacing through the
shadow memory, fault injection, checkpointing, and the pinned
CORE_FAULT_KINDS regression."""

import pickle

import numpy as np
import pytest

from repro.config import (
    DisturbConfig,
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from repro.core.simulator import EpochSimulator
from repro.errors import ConfigError
from repro.ras import ActivationTelemetry
from repro.ras.disturb import activation_events
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.resilience.degradation import (
    HAMMER_THROTTLED,
    ROW_DISTURB_FLIPS,
    VICTIM_REFRESHED,
    summarize_events,
)
from repro.resilience.faults import (
    CORE_FAULT_KINDS,
    FaultEvent,
    FaultKind,
    FaultPlan,
)
from repro.trace.record import make_chunk
from repro.units import KB, MB

SWAP = 200


def _cfg(algorithm="live", **disturb):
    kw = dict(
        enabled=True, seed=5, act_threshold=16, alert_level=0.5,
        act_leak=2.0, mitigate=True, victim_refresh_max=1,
        flips_per_victim=2, migration_bias=0.0, throttle_cycles=100,
    )
    kw.update(disturb)
    return SystemConfig(
        total_bytes=16 * MB,
        onpkg_bytes=2 * MB,
        offpkg_dram=offpkg_dram_timing(refresh=True),
        onpkg_dram=onpkg_dram_timing(refresh=True),
        migration=MigrationConfig(
            macro_page_bytes=64 * KB, swap_interval=SWAP, algorithm=algorithm,
        ),
    ).with_disturb(**kw)


def _hammer_trace(n_epochs, *, tier="off", seed=3):
    """60% of accesses strictly alternate between two aggressor rows of
    one bank (every one a row activation), the rest are hot/cold
    background reads (reads only: flips are never healed by stores)."""
    if tier == "off":
        t = offpkg_dram_timing()
        stride = 8192 * t.n_channels * t.n_banks
        base = 2 * MB + 5 * 64 * KB
        pair = np.array([base, base + 2 * stride], dtype=np.int64)
    else:
        # on-package geometry: 128 banks x 1 channel -> rows 0 and 1 of
        # bank 0 live at offsets 0 and 1 MB, both on-package initially
        pair = np.array([0, 8192 * 128], dtype=np.int64)
    n = n_epochs * SWAP
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < 0.7
    hot_addr = MB // 2 + rng.integers(0, MB, n)
    cold_addr = rng.integers(0, 12 * MB, n)
    addr = (np.where(hot, hot_addr, cold_addr) // 64) * 64
    ham = rng.random(n) < 0.6
    seq = np.arange(int(ham.sum()))
    addr[ham] = pair[seq % 2]
    time = np.cumsum(rng.integers(1, 30, n))
    return make_chunk(addr.astype(np.int64), time=time.astype(np.int64))


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestDisturbConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(act_threshold=0),
        dict(act_threshold=-4),
        dict(alert_level=0.0),
        dict(alert_level=1.5),
        dict(act_leak=-1.0),
        dict(victim_refresh_max=-1),
        dict(flips_per_victim=0),
        dict(migration_bias=-0.5),
        dict(throttle_cycles=-1),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            DisturbConfig(**kw)

    def test_default_is_disabled(self):
        assert not DisturbConfig().enabled
        assert not SystemConfig().disturb.enabled


# ---------------------------------------------------------------------------
# activation extraction + telemetry
# ---------------------------------------------------------------------------

class TestActivationEvents:
    def test_row_change_within_queue_activates(self):
        queues = np.array([0, 0, 0, 1, 1])
        rows = np.array([5, 5, 6, 7, 7])
        act, order = activation_events(queues, rows)
        assert order.tolist() == [0, 1, 2, 3, 4]
        assert act.tolist() == [True, False, True, True, False]

    def test_interleaved_queues_do_not_thrash(self):
        """A row staying open in its own bank is one activation even
        when accesses to other banks interleave."""
        queues = np.array([0, 1, 0, 1])
        rows = np.array([1, 1, 1, 2])
        act, order = activation_events(queues, rows)
        assert order.tolist() == [0, 2, 1, 3]
        assert act.tolist() == [True, False, True, True]

    def test_strict_alternation_activates_every_access(self):
        queues = np.zeros(8, dtype=np.int64)
        rows = np.tile([3, 5], 4)
        act, _ = activation_events(queues, rows)
        assert act.all()

    def test_empty_epoch(self):
        act, order = activation_events(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64)
        )
        assert act.size == 0 and order.size == 0


class TestActivationTelemetry:
    def test_fold_accumulates_and_decay_drops(self):
        t = ActivationTelemetry(threshold=10, leak=3.0)
        t.fold("off", np.array([1, 2]), np.array([7, 9]), np.array([4, 2]))
        t.fold("off", np.array([1]), np.array([7]), np.array([4]))
        assert t.level[("off", 1, 7)] == 8.0
        assert t.total_activations == 10
        assert t.over(8.0) == [("off", 1, 7)]
        t.decay()
        assert t.level[("off", 1, 7)] == 5.0
        t.decay()  # 2.0
        t.decay()  # fully leaked -> dropped
        assert ("off", 2, 9) not in t.level
        t.decay()
        assert not t.level

    def test_bump_reset_and_round_trip(self):
        t = ActivationTelemetry(threshold=10, leak=1.0)
        t.bump(("on", 0, 3), 12.0)
        u = pickle.loads(pickle.dumps(t))
        assert u.level == t.level
        u.reset(("on", 0, 3))
        assert not u.level and t.level  # reset is local to the copy


# ---------------------------------------------------------------------------
# row geometry: shadow locations round-trip through the DRAM decomposition
# ---------------------------------------------------------------------------

class TestRowChunks:
    def test_offpkg_chunks_round_trip(self):
        sim = EpochSimulator(_cfg())
        ctl = sim._disturb
        amap = sim.engine.amap
        chunks = ctl._row_chunks("off", 3, 7)
        geo = ctl._geo["off"]
        assert len(chunks) == geo.row_bytes // min(
            amap.subblock_bytes, geo.row_bytes
        )
        for loc, addr, sb in chunks:
            q, r = geo.queues_and_rows(np.array([addr]))
            assert (int(q[0]), int(r[0])) == (3, 7)
            assert loc == ("mach", (addr >> amap.offset_bits) + amap.n_onpkg_pages)
            assert sb == (addr & (amap.macro_page_bytes - 1)) >> ctl._sb_shift

    def test_onpkg_chunks_are_slot_locations(self):
        sim = EpochSimulator(_cfg())
        ctl = sim._disturb
        for loc, addr, _sb in ctl._row_chunks("on", 0, 1):
            assert loc == ("slot", addr >> sim.engine.amap.offset_bits)

    def test_rows_outside_the_region_yield_nothing(self):
        sim = EpochSimulator(_cfg())
        ctl = sim._disturb
        assert ctl._row_chunks("on", 0, -1) == []
        # 2 MB on-package / 1 MB row stride -> rows 0 and 1 only
        assert ctl._row_chunks("on", 0, 2) == []

    def test_victims_are_the_wordline_neighbours(self):
        sim = EpochSimulator(_cfg())
        victims = sim._disturb._victim_chunks(("off", 4, 9))
        assert [v for v, _ in victims] == [8, 10]
        edge = sim._disturb._victim_chunks(("on", 0, 0))
        assert [v for v, _ in edge] == [1]  # row -1 does not exist


# ---------------------------------------------------------------------------
# the mitigation ladder end to end
# ---------------------------------------------------------------------------

class TestMitigationLadder:
    def test_mitigated_hammering_loses_no_data(self):
        """Victim refresh then throttling keeps the shadow memory clean."""
        sim = EpochSimulator(_cfg(), migrate=False, track_data=True)
        result = sim.run(_hammer_trace(10))
        d = result.disturb
        assert d.activations_total > 0
        assert d.alerts >= 1
        assert d.victim_refreshes >= 1
        assert d.victim_refresh_cycles > 0
        assert d.throttles >= 1  # one-refresh budget forces escalation
        assert d.flip_bursts == 0 and d.flip_cells == 0
        assert result.data_violations == 0
        assert sim.shadow.verify_table(sim.table) == []
        kinds = summarize_events(result.degradation_events)
        assert kinds[VICTIM_REFRESHED] == d.victim_refreshes
        assert kinds[HAMMER_THROTTLED] == d.throttles
        assert ROW_DISTURB_FLIPS not in kinds

    def test_unmitigated_flips_always_surface(self):
        """mitigate=False: flips land, and every corrupted sub-block is
        reported by a demand read or the final sweep — never silently."""
        sim = EpochSimulator(
            _cfg(mitigate=False), migrate=False, track_data=True
        )
        result = sim.run(_hammer_trace(10))
        d = result.disturb
        assert d.flip_bursts >= 1
        assert d.flip_cells >= 1
        assert d.victim_refreshes == 0 and d.throttles == 0
        leftover = sim.shadow.verify_table(sim.table)
        assert result.data_violations + len(leftover) >= d.flip_cells
        kinds = summarize_events(result.degradation_events)
        assert kinds[ROW_DISTURB_FLIPS] == d.flip_bursts

    def test_onpkg_escalation_pumps_predictive_retirement(self):
        """An on-package aggressor past its refresh budget is handed to
        the RAS CE telemetry, which takes the frame off-line."""
        cfg = _cfg(victim_refresh_max=0).with_ras(enabled=True)
        sim = EpochSimulator(cfg, migrate=False)
        result = sim.run(_hammer_trace(10, tier="on"))
        d = result.disturb
        assert d.throttles >= 1
        assert d.retirements_pumped >= 1
        assert result.ras.frames_retired >= 1
        sim.table.audit()

    def test_offpkg_escalation_boosts_migration_pressure(self):
        cfg = _cfg(victim_refresh_max=0, migration_bias=4.0)
        sim = EpochSimulator(cfg, migrate=False)
        result = sim.run(_hammer_trace(8))
        assert result.disturb.pressure_boosts >= 1

    def test_mitigation_cost_is_charged_to_the_run(self):
        """Mitigation is not free: the run pays at least the throttle
        cycles on top of the quiet baseline. (It is not *exactly* the
        sum — victim-refresh reads share the FR-FCFS bank state with
        demand traffic, so they also perturb later row-hit patterns.)"""
        quiet = EpochSimulator(
            _cfg(act_threshold=10**6), migrate=False
        ).run(_hammer_trace(8))
        loud = EpochSimulator(_cfg(), migrate=False).run(_hammer_trace(8))
        d = loud.disturb
        assert d.victim_refresh_cycles > 0 and d.throttle_cycles > 0
        assert loud.total_latency >= quiet.total_latency + d.throttle_cycles


# ---------------------------------------------------------------------------
# migration as mitigation
# ---------------------------------------------------------------------------

class TestMigrationBias:
    def test_page_bonus_scales_pressure(self):
        sim = EpochSimulator(_cfg(migration_bias=4.0))
        ctl = sim._disturb
        assert sim.engine.disturb is ctl
        assert ctl.bias_weight == 4.0
        ctl.pressure[5] = 2.0
        assert ctl.page_bonus(np.array([5, 6])).tolist() == [8.0, 0.0]

    def test_aggressor_pages_get_pulled_onpackage(self):
        cfg = _cfg(migration_bias=4.0, victim_refresh_max=0)
        sim = EpochSimulator(cfg)
        result = sim.run(_hammer_trace(10))
        aggressor_pages = [
            (2 * MB + 5 * 64 * KB) >> 16, (2 * MB + 13 * 64 * KB) >> 16,
        ]
        assert any(bool(sim.table.onpkg[p]) for p in aggressor_pages)
        assert result.swaps_triggered > 0


# ---------------------------------------------------------------------------
# fault injection, determinism, checkpointing, disabled identity
# ---------------------------------------------------------------------------

class TestFaultsAndState:
    def test_row_disturb_fault_lands_as_a_burst(self):
        sim = EpochSimulator(_cfg(), migrate=False)
        plan = FaultPlan(
            events=(FaultEvent(epoch=2, kind=FaultKind.ROW_DISTURB, param=7),),
            seed=1,
        )
        sim.attach_faults(plan)
        result = sim.run(_hammer_trace(8))
        assert result.disturb.hammer_bursts == 1
        assert result.faults_injected == 1

    def test_row_disturb_fault_is_noop_without_the_controller(self):
        cfg = _cfg().with_disturb(enabled=False)
        sim = EpochSimulator(cfg, migrate=False, fused=False)
        plan = FaultPlan(
            events=(FaultEvent(epoch=2, kind=FaultKind.ROW_DISTURB, param=0),),
            seed=1,
        )
        sim.attach_faults(plan)
        result = sim.run(_hammer_trace(6))
        assert result.disturb is None

    def test_runs_are_deterministic(self):
        trace = _hammer_trace(8)
        runs = [
            EpochSimulator(
                _cfg(mitigate=False), migrate=False, track_data=True
            ).run(trace)
            for _ in range(2)
        ]
        assert runs[0].disturb == runs[1].disturb
        assert runs[0].total_latency == runs[1].total_latency
        assert runs[0].data_violations == runs[1].data_violations

    def test_checkpoint_round_trip_mid_hammer(self, tmp_path):
        cfg = _cfg()
        full = _hammer_trace(12)
        cut = full.addr.size // 2
        first = make_chunk(full.addr[:cut], time=full.time[:cut])
        second = make_chunk(full.addr[cut:], time=full.time[cut:])

        sim = EpochSimulator(cfg, migrate=False, track_data=True)
        path = tmp_path / "mid_hammer.ckpt"
        save_checkpoint(path, sim, sim.run(first))
        res_a = sim.run(second)

        resumed = load_checkpoint(path).simulator
        res_b = resumed.run(second)

        assert res_a.total_latency == res_b.total_latency
        assert res_a.disturb == res_b.disturb
        assert resumed._disturb.shadow is resumed.shadow
        assert resumed.engine.disturb is resumed._disturb

    def test_neutral_thresholds_are_bit_identical_to_disabled(self):
        """An armed controller that never alerts must not change a
        single number (and the disabled config takes the fused path, so
        this doubles as a stepwise-vs-fused check)."""
        trace = _hammer_trace(8)
        quiet = EpochSimulator(_cfg(act_threshold=10**6)).run(trace)
        off = EpochSimulator(_cfg().with_disturb(enabled=False)).run(trace)
        assert quiet.disturb is not None and off.disturb is None
        assert quiet.total_latency == off.total_latency
        assert quiet.epoch_latency == off.epoch_latency
        assert quiet.swaps_triggered == off.swaps_triggered

    def test_core_fault_kinds_pinned_exactly(self):
        """Seeded legacy campaigns must replay identically: adding
        ROW_DISTURB must not widen the default random-plan pool."""
        assert CORE_FAULT_KINDS == (
            FaultKind.ABORT_SWAP,
            FaultKind.STUCK_P_BIT,
            FaultKind.STUCK_F_BIT,
            FaultKind.BITMAP_CORRUPTION,
            FaultKind.DRAM_TRANSIENT,
        )
        assert FaultKind.ROW_DISTURB not in CORE_FAULT_KINDS
        assert FaultKind.ROW_DISTURB.value == "row-disturb"
