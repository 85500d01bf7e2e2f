"""The multi-epoch flush must be bit-identical to flushing every epoch.

The epoch loop defers DRAM servicing to one segmented flush per chunk
unless something at the epoch boundary reads serviced latency or device
state; ``fused=False`` flushes every epoch. These tests pin the
contract: not a single simulated number may change — total latency, the
full ``epoch_latency`` series, swap counters, row-hit rates, degradation
events, data violations, everything.
"""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import (
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.migration.policies import EpochMonitor
from repro.resilience.faults import CORE_FAULT_KINDS, FaultPlan
from repro.trace.record import make_chunk
from repro.trace.stream import iter_chunks
from repro.units import KB, MB

ALGORITHMS = ("N", "N-1", "live")


def _trace(n=60_000, seed=0, writes=True):
    rng = np.random.default_rng(seed)
    span = 128 * MB // 4096
    hot = rng.integers(0, span)
    blocks = np.where(
        rng.random(n) < 0.8,
        (hot + rng.integers(0, 512, n)) % span,
        rng.integers(0, span, n),
    )
    rw = (rng.random(n) < 0.3).astype(np.int8) if writes else 0
    return make_chunk(
        blocks * 4096, time=np.cumsum(rng.integers(1, 80, n)), rw=rw
    )


def _cfg(**migration_kwargs):
    kwargs = dict(algorithm="live", macro_page_bytes=64 * KB, swap_interval=1_000)
    kwargs.update(migration_kwargs)
    return SystemConfig(
        total_bytes=128 * MB,
        onpkg_bytes=16 * MB,
        migration=MigrationConfig(**kwargs),
    )


def _refreshing(cfg):
    return dataclasses.replace(
        cfg,
        offpkg_dram=offpkg_dram_timing(refresh=True),
        onpkg_dram=onpkg_dram_timing(refresh=True),
    )


def _scalar_fields(result):
    # fused_epochs/stepwise_epochs say which loop ran, not what was
    # simulated — they are asserted separately in assert_identical
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("epoch_latency", "degradation_events",
                          "fused_epochs", "stepwise_epochs")
    }


def assert_identical(cfg, trace, *, migrate=True, chunks=1, arm=None,
                     track_data=False):
    fused = HeterogeneousMainMemory(
        cfg, migrate=migrate, fused=True, track_data=track_data
    )
    plain = HeterogeneousMainMemory(
        cfg, migrate=migrate, fused=False, track_data=track_data
    )
    if arm is not None:
        arm(fused)
        arm(plain)
    if chunks == 1:
        r_fused = fused.run(trace)
        r_plain = plain.run(trace)
    else:
        bounds = np.linspace(0, len(trace), chunks + 1).astype(int)
        r_fused = fused.run(trace[: bounds[1]])
        r_plain = plain.run(trace[: bounds[1]])
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            fused.run_into(trace[lo:hi], r_fused)
            plain.run_into(trace[lo:hi], r_plain)
    assert _scalar_fields(r_fused) == _scalar_fields(r_plain)
    assert r_fused.epoch_latency == r_plain.epoch_latency
    assert r_fused.degradation_events == r_plain.degradation_events
    # coverage: the fused simulator must never fall back to the
    # per-epoch flush (migration-active epochs included), and the two
    # counters must partition the same epoch count
    assert r_fused.stepwise_epochs == 0
    assert r_plain.fused_epochs == 0
    assert r_fused.fused_epochs == r_plain.stepwise_epochs
    return r_fused


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical(self, algorithm):
        cfg = _cfg(algorithm=algorithm)
        r = assert_identical(cfg, _trace())
        assert r.swaps_triggered > 0  # exercise the migration machinery

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_without_writes(self, algorithm):
        assert_identical(_cfg(algorithm=algorithm), _trace(writes=False))


class TestVariants:
    def test_os_assisted_translation(self):
        # macro page below hw_min_page_bytes -> OS-assisted table updates
        cfg = _cfg(macro_page_bytes=16 * KB, hw_min_page_bytes=1 * MB)
        assert_identical(cfg, _trace())

    def test_critical_block_first_off(self):
        assert_identical(_cfg(critical_block_first=False), _trace())

    def test_hottest_coldest_trigger_off(self):
        assert_identical(_cfg(hottest_coldest_trigger=False), _trace())

    def test_no_migration(self):
        assert_identical(_cfg(), _trace(), migrate=False)

    def test_chunked_feeding(self):
        # chunk boundaries must not perturb either path, including
        # boundaries that do not line up with epoch boundaries
        assert_identical(_cfg(), _trace(), chunks=7)

    def test_large_epochs(self):
        assert_identical(_cfg(swap_interval=25_000), _trace())

    def test_tiny_queue_wait_binds_at_epoch_boundaries(self):
        # a tiny cap binds at epoch boundaries, so the fused flush takes
        # the device's exact group pass — results must still be identical
        base = _cfg()
        timing = dataclasses.replace(base.offpkg_dram, max_queue_wait=8)
        cfg = dataclasses.replace(base, offpkg_dram=timing)
        assert_identical(cfg, _trace(n=30_000))

    def test_empty_and_tiny_traces(self):
        cfg = _cfg()
        assert_identical(cfg, make_chunk([]))
        assert_identical(cfg, make_chunk([0, 4096, 8192]))


class TestMigrationActive:
    """Epochs with an active SwapPlan must take the multi-epoch flush.

    The matrix crosses the three paper algorithms with write traffic,
    OS-assisted translation, a one-shot abort mid-plan, and refresh on
    both tiers. Every cell goes through :func:`assert_identical`, which
    pins bit-identical ``epoch_latency`` *and* ``stepwise_epochs == 0``
    on the fused run — a regression that sends migration-active epochs
    back to a per-epoch flush fails here, not just in the throughput
    numbers.
    """

    VARIANTS = ("writes", "os-assisted", "abort", "refresh")

    def _cell(self, algorithm, variant):
        cfg = _cfg(algorithm=algorithm)
        if variant == "os-assisted":
            cfg = _cfg(algorithm=algorithm, macro_page_bytes=16 * KB,
                       hw_min_page_bytes=1 * MB)
        elif variant == "refresh":
            cfg = _refreshing(cfg)
        arm = None
        if variant == "abort":
            arm = lambda mem: mem.engine.inject_abort(1)
        return cfg, _trace(writes=variant == "writes"), arm

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_matrix(self, algorithm, variant):
        cfg, trace, arm = self._cell(algorithm, variant)
        r = assert_identical(cfg, trace, arm=arm)
        assert r.swaps_triggered > 0
        assert r.data_violations == 0
        if variant != "os-assisted":
            # plans span epoch boundaries (a later trigger found the
            # previous one still in flight): the fused path simulated
            # epochs with P/F bits live, not just plan-free epochs
            assert r.swaps_suppressed_busy > 0

    def test_abort_changes_behavior(self):
        # guard: the armed abort genuinely takes a different path
        cfg = _cfg()
        clean = HeterogeneousMainMemory(cfg).run(_trace())
        aborted_mem = HeterogeneousMainMemory(cfg)
        aborted_mem.engine.inject_abort(1)
        aborted = aborted_mem.run(_trace())
        assert aborted.total_latency != clean.total_latency


class TestDeferredConsumers:
    """Boundary consumers that read no serviced latency or device state —
    the shadow memory, fault plans and table audits — ride the
    multi-epoch flush, and must agree with the per-epoch flush on every
    field, data violations and degradation events included."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_track_data(self, algorithm):
        systems = []
        r = assert_identical(
            _cfg(algorithm=algorithm), _trace(), track_data=True,
            arm=systems.append,
        )
        fused, plain = (mem.shadow for mem in systems)
        assert r.swaps_triggered > 0
        assert fused.reads > 0 and fused.writes > 0
        assert fused.violations == plain.violations
        assert fused.generation == plain.generation

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_fault_plan_with_audits(self, seed):
        cfg = _cfg().with_resilience(audit_interval=3)
        trace = _trace(seed=seed)
        plan = FaultPlan.random(
            seed, n_epochs=len(trace) // cfg.migration.swap_interval,
            n_slots=cfg.address_map().n_onpkg_pages, kinds=CORE_FAULT_KINDS,
        )
        r = assert_identical(cfg, trace, arm=lambda mem: mem.attach_faults(plan))
        assert r.faults_injected > 0
        assert r.degradation_events


#: flush-predicate cells: name -> whether the run flushes every epoch
FLUSH_CELLS = {
    "unfused": True,
    "ras": True,
    "disturb": True,
    "default": False,
    "no-migration": False,
    "track-data": False,
    "fault-plan": False,
    "audit": False,
    "refresh": False,
}


def _flush_cell_system(cell):
    cfg, kwargs = _cfg(), {}
    if cell == "unfused":
        kwargs["fused"] = False
    elif cell == "ras":
        cfg = cfg.with_ras(enabled=True)
    elif cell == "disturb":
        cfg = cfg.with_disturb(enabled=True)
    elif cell == "no-migration":
        kwargs["migrate"] = False
    elif cell == "track-data":
        kwargs["track_data"] = True
    elif cell == "audit":
        cfg = cfg.with_resilience(audit_interval=3)
    elif cell == "refresh":
        cfg = _refreshing(cfg)
    mem = HeterogeneousMainMemory(cfg, **kwargs)
    if cell == "fault-plan":
        mem.attach_faults(FaultPlan.random(0, n_epochs=5, n_slots=8))
    return mem


@pytest.mark.parametrize("cell", FLUSH_CELLS)
def test_flush_granularity(cell):
    """Only ``fused=False`` and consumers of per-epoch latency or device
    state flush every epoch; everything else flushes once per chunk."""
    # 5 epochs over low pages (RAS spares sit just below the ghost page)
    trace = make_chunk(
        np.arange(5_000) * 4096 % (32 * MB), time=np.arange(5_000) * 40
    )
    r = _flush_cell_system(cell).run(trace)
    expected = (0, 5) if FLUSH_CELLS[cell] else (5, 0)
    assert (r.fused_epochs, r.stepwise_epochs) == expected


class TestRefresh:
    """The tREFI/tRFC time warp is a pure function of global time, so
    it must commute with segment boundaries: enabling refresh keeps the
    fused path bit-identical while exercising mid-service suspensions
    and refresh-stretched migration copies."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_bit_identical_with_refresh_both_tiers(self, algorithm):
        cfg = _refreshing(_cfg(algorithm=algorithm))
        r = assert_identical(cfg, _trace())
        assert r.swaps_triggered > 0  # refresh-stretched copies included

    def test_bit_identical_with_refresh_offpkg_only(self):
        cfg = dataclasses.replace(
            _cfg(), offpkg_dram=offpkg_dram_timing(refresh=True)
        )
        assert_identical(cfg, _trace())

    def test_refresh_survives_chunked_feeding(self):
        # chunk boundaries land at arbitrary phases of the tREFI period
        assert_identical(_refreshing(_cfg()), _trace(), chunks=7)

    def test_refresh_changes_the_numbers(self):
        # guard against the refresh flag silently not reaching the model
        base = assert_identical(_cfg(), _trace(), migrate=False)
        taxed = assert_identical(
            dataclasses.replace(
                _cfg(), offpkg_dram=offpkg_dram_timing(refresh=True)
            ),
            _trace(),
            migrate=False,
        )
        assert taxed.total_latency > base.total_latency


def _tenant_trace(n, seed, span_bytes):
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, span_bytes)
    addr = np.where(
        rng.random(n) < 0.8,
        (hot + rng.integers(0, 2 * MB, n)) % span_bytes,
        rng.integers(0, span_bytes, n),
    )
    addr = (addr // 4096) * 4096
    rw = (rng.random(n) < 0.3).astype(np.int8)
    return make_chunk(
        addr.astype(np.int64), time=np.cumsum(rng.integers(1, 80, n)), rw=rw
    )


def _tenant_simulator(cfg, fused, n_tenants=3):
    """Three weighted tenants interleaved under proportional share."""
    from repro.tenancy import (
        MultiTenantSimulator,
        ProportionalSharePolicy,
        TenantSpec,
    )

    amap = cfg.address_map()
    n_pages = amap.ghost_page // n_tenants
    mts = MultiTenantSimulator(cfg, policy=ProportionalSharePolicy(), fused=fused)
    for i in range(n_tenants):
        mts.add_tenant(
            TenantSpec(tenant_id=i, name=f"t{i}", n_pages=n_pages,
                       weight=1.0 + 0.5 * i),
            _tenant_trace(
                20_000, seed=i, span_bytes=n_pages * amap.macro_page_bytes
            ),
        )
    return mts


class TestMultiTenant:
    """A tenant-tagged interleaved stream must keep the multi-epoch flush:
    window translation, QoS constraints and per-tenant attribution ride
    on ``run_into`` and may not force (or perturb) a per-epoch flush."""

    def test_bit_identical_under_tenant_tags(self):
        r_fused = _tenant_simulator(_cfg(), fused=True).run()
        r_plain = _tenant_simulator(_cfg(), fused=False).run()
        # TenantMetrics is an eq dataclass: the tenants dicts compare
        # field-for-field inside _scalar_fields
        assert _scalar_fields(r_fused) == _scalar_fields(r_plain)
        assert r_fused.epoch_latency == r_plain.epoch_latency
        assert r_fused.stepwise_epochs == 0
        assert r_plain.fused_epochs == 0
        assert r_fused.fused_epochs == r_plain.stepwise_epochs
        assert r_fused.swaps_triggered > 0


#: busy-span cells: swap designs whose in-flight windows cover epochs
SPAN_CELLS = {
    # 256 KB pages: each N exchange stalls for several epochs
    "N-long-stall": dict(algorithm="N", macro_page_bytes=256 * KB),
    "N-1": dict(algorithm="N-1"),
    "live": dict(algorithm="live"),
}



class TestBusySpans:
    """With the chunk flushed at once, no fault plan and no audits, the
    epoch loop runs each stretch of epochs whose boundaries fall inside
    the in-flight migration's window as one span. The per-epoch loop
    (``fused=False``) is the oracle: the whole result, the engine's
    boundary counters and the monitor's slot recency must agree, and the
    span run must have folded exactly the boundaries that were not busy.
    """

    @pytest.fixture
    def folds(self, monkeypatch):
        """``EpochMonitor.observe_epoch`` calls, per monitor."""
        calls = collections.Counter()
        observe = EpochMonitor.observe_epoch

        def counted(monitor, *args, **kwargs):
            calls[id(monitor)] += 1
            return observe(monitor, *args, **kwargs)

        monkeypatch.setattr(EpochMonitor, "observe_epoch", counted)
        return calls

    @staticmethod
    def assert_spans_exact(folds, spans_sim, spans, plain_sim, plain):
        # one comparison over every field; only the flush counters swap
        assert spans == dataclasses.replace(
            plain, fused_epochs=plain.stepwise_epochs, stepwise_epochs=0
        )
        a, b = spans_sim.engine, plain_sim.engine
        assert (a.epochs_observed, a.swaps_suppressed_busy) == (
            b.epochs_observed, b.swaps_suppressed_busy
        )
        np.testing.assert_array_equal(
            a.monitor.slot_last_touch, b.monitor.slot_last_touch
        )
        epochs = plain.stepwise_epochs
        assert folds[id(b.monitor)] == epochs
        assert folds[id(a.monitor)] == epochs - spans.swaps_suppressed_busy

    def _compare(self, folds, cfg, run, track_data=False):
        sims = [
            HeterogeneousMainMemory(cfg, fused=fused, track_data=track_data)
            for fused in (True, False)
        ]
        spans, plain = (run(sim) for sim in sims)
        self.assert_spans_exact(folds, sims[0], spans, sims[1], plain)
        assert spans.swaps_suppressed_busy > 0  # spans were taken
        assert folds[id(sims[0].engine.monitor)] < spans.fused_epochs
        return sims, spans

    @pytest.mark.parametrize("refresh", [False, True])
    @pytest.mark.parametrize("cell", SPAN_CELLS)
    def test_spans_equal_the_per_epoch_loop(self, folds, cell, refresh):
        cfg = _cfg(**SPAN_CELLS[cell])
        if refresh:
            cfg = _refreshing(cfg)
        _, r = self._compare(folds, cfg, lambda sim: sim.run(_trace()))
        assert r.swaps_triggered > 0

    @pytest.mark.parametrize("cell", SPAN_CELLS)
    def test_track_data(self, folds, cell):
        sims, r = self._compare(
            folds, _cfg(**SPAN_CELLS[cell]), lambda sim: sim.run(_trace()),
            track_data=True,
        )
        spans, plain = (sim.shadow for sim in sims)
        assert spans.reads > 0 and spans.writes > 0
        assert spans.violations == plain.violations == []
        assert spans.generation == plain.generation

    @pytest.mark.parametrize("cell", SPAN_CELLS)
    def test_chunked_run_stream(self, folds, cell):
        # 2.5 K-access chunks: a span ends at every chunk boundary, and
        # half the chunks start mid-way through an epoch's worth
        trace = _trace()
        self._compare(
            folds, _cfg(**SPAN_CELLS[cell]),
            lambda sim: sim.run_stream(iter_chunks(trace, 2_500)),
        )

    @pytest.mark.parametrize("cell", SPAN_CELLS)
    def test_tenant_tags(self, folds, cell):
        cfg = _cfg(**SPAN_CELLS[cell])
        tenants = [_tenant_simulator(cfg, fused) for fused in (True, False)]
        spans, plain = (mts.run() for mts in tenants)
        self.assert_spans_exact(
            folds, tenants[0].sim, spans, tenants[1].sim, plain
        )
        assert spans.swaps_suppressed_busy > 0

    # the fold counter is cleared at the start of every example
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        algorithm=st.sampled_from(ALGORITHMS),
        interval=st.integers(2, 40),
        busy_epochs=st.integers(0, 4),
        landing=st.sampled_from([-1, 0, 1]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_boundary_at_the_window_end(self, folds, algorithm, interval,
                                        busy_epochs, landing, seed):
        """A swap fires at the first boundary; ``busy_epochs`` boundaries
        then fall inside its window, and the next lands exactly at
        ``active.end + landing``. At ``end - 1`` it is busy, at ``end``
        and ``end + 1`` it is not, and it finds a fresh hot page there,
        so a span one epoch too long or too short shows."""
        folds.clear()
        cfg = _cfg(algorithm=algorithm, swap_interval=interval)
        amap = cfg.address_map()
        page_bytes = amap.macro_page_bytes
        rng = np.random.default_rng(seed)
        first_hot, landing_hot = amap.n_onpkg_pages + 1, amap.n_onpkg_pages + 2
        sims = [HeterogeneousMainMemory(cfg, fused=f) for f in (True, False)]
        results = [
            sim.run(make_chunk(np.full(interval, first_hot * page_bytes),
                               time=np.arange(interval) * 10))
            for sim in sims
        ]
        end = sims[0].engine.active.end
        assert sims[1].engine.active.end == end
        t0 = (interval - 1) * 10 + 1
        busy_times = np.sort(rng.integers(t0, end - 1, busy_epochs * interval))
        last = end + landing - 1  # the landing boundary is last + 1
        landing_times = np.sort(rng.integers(
            busy_times[-1] if busy_times.size else t0, last + 1, interval
        ))
        landing_times[-1] = last
        tail_times = last + np.cumsum(rng.integers(0, 50, 2 * interval))
        pages = np.concatenate([
            rng.integers(0, amap.ghost_page, busy_times.size),
            np.full(interval, landing_hot),
            rng.integers(0, amap.ghost_page, tail_times.size),
        ])
        rest = make_chunk(
            pages * page_bytes,
            time=np.concatenate([busy_times, landing_times, tail_times]),
            rw=(rng.random(pages.size) < 0.3).astype(np.int8),
        )
        for sim, result in zip(sims, results):
            sim.run_into(rest, result)
        spans, plain = results
        self.assert_spans_exact(folds, sims[0], spans, sims[1], plain)
        busy = busy_epochs + (landing < 0)
        assert plain.swaps_suppressed_busy >= busy
