"""Tests for the epoch simulator, baselines, metrics and the
fast-vs-detailed cross-validation."""

import numpy as np
import pytest

from repro.config import MigrationConfig, SystemConfig
from repro.core.detailed import DetailedSimulator
from repro.core.hetero_memory import HeterogeneousMainMemory, baseline_latency
from repro.core.metrics import EffectivenessReport, effectiveness
from repro.core.simulator import EpochSimulator
from repro.errors import SimulationError
from repro.trace.record import make_chunk
from repro.units import KB, MB

from .conftest import synthetic_trace


def cfg(algorithm="live", page=256 * KB, interval=400, **kw) -> SystemConfig:
    return SystemConfig(
        total_bytes=64 * MB,
        onpkg_bytes=8 * MB,
        migration=MigrationConfig(
            algorithm=algorithm, macro_page_bytes=page, swap_interval=interval, **kw
        ),
    )


class TestEpochSimulator:
    def test_counts_add_up(self):
        trace = synthetic_trace(4000)
        res = HeterogeneousMainMemory(cfg()).run(trace)
        assert res.n_accesses == 4000
        assert res.onpkg_accesses + res.offpkg_accesses == 4000
        assert 0 <= res.onpkg_fraction <= 1
        assert res.average_latency > 0
        assert len(res.epoch_latency) == 10

    def test_migration_beats_static_on_skewed_trace(self):
        trace = synthetic_trace(40000, hot_weight=0.9)
        c = cfg(page=64 * KB, interval=1000)
        migrated = HeterogeneousMainMemory(c).run(trace)
        static = baseline_latency(c, trace, "static")
        assert migrated.swaps_triggered > 0
        assert migrated.onpkg_fraction > static.onpkg_fraction
        assert migrated.average_latency < static.average_latency

    def test_bounded_by_ideal_and_alloff(self):
        trace = synthetic_trace(20000)
        c = cfg()
        migrated = HeterogeneousMainMemory(c).run(trace)
        ideal = baseline_latency(c, trace, "all-onpkg")
        alloff = baseline_latency(c, trace, "all-offpkg")
        assert migrated.average_latency < alloff.average_latency
        # (the hybrid can slightly beat the ideal via load balancing, so
        # only sanity-check the ordering against the slow bound)

    def test_algorithm_ordering_on_coarse_pages(self):
        """Live <= N-1 << N at coarse granularity with frequent swaps."""
        trace = synthetic_trace(30000, hot_weight=0.85)
        res = {}
        for algo in ("N", "N-1", "live"):
            res[algo] = HeterogeneousMainMemory(
                cfg(algorithm=algo, page=1 * MB, interval=300)
            ).run(trace).average_latency
        assert res["live"] <= res["N-1"] * 1.02
        assert res["N"] > 2 * res["N-1"]

    def test_chunked_feeding_matches_single_run(self):
        trace = synthetic_trace(8000)
        whole = HeterogeneousMainMemory(cfg()).run(trace)
        sim = EpochSimulator(cfg())
        from repro.core.simulator import SimulationResult

        result = SimulationResult()
        sim.run_into(trace[:4000], result)
        sim.run_into(trace[4000:], result)
        assert result.n_accesses == whole.n_accesses
        assert result.total_latency == whole.total_latency
        assert result.swaps_triggered == whole.swaps_triggered

    def test_rejects_out_of_order_chunks(self):
        sim = EpochSimulator(cfg())
        trace = synthetic_trace(2000)
        sim.run(trace)
        with pytest.raises(SimulationError):
            sim.run(trace)  # same timestamps again: time went backwards

    def test_migrate_false_is_static(self):
        trace = synthetic_trace(5000)
        res = HeterogeneousMainMemory(cfg(), migrate=False).run(trace)
        assert res.swaps_triggered == 0
        assert res.migrated_bytes == 0

    def test_tail_average(self):
        trace = synthetic_trace(5000)
        res = HeterogeneousMainMemory(cfg()).run(trace)
        assert res.tail_average_latency(1.0) == pytest.approx(
            float(np.mean(res.epoch_latency))
        )
        assert res.tail_average_latency(0.2) > 0

    def test_table_invariants_after_run(self):
        trace = synthetic_trace(20000, hot_weight=0.9)
        system = HeterogeneousMainMemory(cfg())
        system.run(trace)
        system.table.check_invariants()


class TestBaselines:
    def test_all_three_kinds(self):
        trace = synthetic_trace(3000)
        c = cfg()
        for kind in ("all-offpkg", "all-onpkg", "static"):
            res = baseline_latency(c, trace, kind)
            assert res.n_accesses == 3000
        assert (
            baseline_latency(c, trace, "all-onpkg").average_latency
            < baseline_latency(c, trace, "all-offpkg").average_latency
        )

    def test_static_onpkg_fraction_tracks_capacity(self):
        rng = np.random.default_rng(0)
        addr = rng.integers(0, 64 * MB // 64, 20000) * 64  # uniform
        trace = make_chunk(addr, time=np.cumsum(rng.integers(1, 60, 20000)))
        res = baseline_latency(cfg(), trace, "static")
        assert res.onpkg_fraction == pytest.approx(8 / 64, abs=0.02)


class TestMetrics:
    def test_effectiveness_formula(self):
        assert effectiveness(200.0, 100.0, 100.0) == 1.0
        assert effectiveness(200.0, 200.0, 100.0) == 0.0
        assert effectiveness(200.0, 150.0, 100.0) == 0.5

    def test_effectiveness_needs_gap(self):
        with pytest.raises(SimulationError):
            effectiveness(100.0, 90.0, 100.0)

    def test_report_row(self):
        r = EffectivenessReport("pgbench", 107.0, 156.0, 127.0, 125.0)
        assert r.effectiveness == pytest.approx((156 - 127) / (156 - 125))
        assert "pgbench" in r.row()


class TestDetailedCrossValidation:
    """The per-access reference simulator must agree with the vectorised
    epoch simulator when no migration runs (identical semantics), and
    produce the same resident set under migration."""

    def test_no_migration_identical_totals(self):
        trace = synthetic_trace(3000)
        c = cfg()
        fast = HeterogeneousMainMemory(c, migrate=False).run(trace)
        slow = DetailedSimulator(c, migrate=False).run(trace)
        assert slow.n_accesses == fast.n_accesses
        assert slow.onpkg_accesses == fast.onpkg_accesses
        # the detailed path includes the 2-cycle translation the static
        # fast path omits; normalise before comparing
        adjusted = slow.total_latency - 2 * slow.n_accesses
        assert adjusted == fast.total_latency

    def test_migration_reduces_latency_in_both(self):
        trace = synthetic_trace(40000, hot_weight=0.9)
        c = cfg(page=64 * KB, interval=1000)
        fast = HeterogeneousMainMemory(c).run(trace)
        slow = DetailedSimulator(c).run(trace)
        static = baseline_latency(c, trace, "static")
        assert fast.average_latency < static.average_latency
        assert slow.average_latency < static.average_latency
        assert slow.swaps_triggered > 0

    def test_similar_onpkg_fractions(self):
        """Exact (clock/multi-queue) and vectorised policies may pick
        different victims occasionally, but the resident hot set — and
        with it the on-package fraction — must land close."""
        trace = synthetic_trace(40000, hot_weight=0.9)
        c = cfg(page=64 * KB, interval=1000)
        fast = HeterogeneousMainMemory(c).run(trace)
        slow = DetailedSimulator(c).run(trace)
        assert abs(fast.onpkg_fraction - slow.onpkg_fraction) < 0.15
