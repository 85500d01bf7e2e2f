"""Multi-tenant translation domains: differential isolation harness.

Three layers of evidence that the tenancy subsystem is safe:

* **bit-identity** — a single tenant run through the full multi-tenant
  path (scheduler, domain translation, QoS policy, reclamation) is
  bit-identical to a plain ``EpochSimulator`` run of the same trace;
* **isolation** — with data-content tracking on, no tenant ever reads a
  sub-block last written by another tenant: the ``ShadowMemory`` proves
  every read returns the last write *to the page*, and the
  ``IsolationOracle`` proves the writer was never a foreign tenant
  (including the deliberate no-scrub leak the shadow alone cannot see);
* **property tests** — random tenant mixes x churn x quota policies
  keep ``TranslationTable.audit()`` clean, never exceed static quotas,
  and always leave reclaimed windows reusable.

Plus regression tests for the two reclamation staleness bugs: the
monitor's ``np.unique`` fold surviving a release, and the table's
``empty_slot`` epoch cache going stale across the direct-write
reclamation path.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import MigrationConfig, SystemConfig
from repro.core.simulator import EpochSimulator, SimulationResult
from repro.datamodel import ShadowMemory
from repro.errors import CheckpointError, TenancyError, TranslationTableError
from repro.migration.recovery import recovery_plan
from repro.migration.table import TranslationTable
from repro.resilience.checkpoint import load_checkpoint, save_checkpoint
from repro.stats.report import tenant_table
from repro.tenancy import (
    HYPERVISOR,
    ChunkEvent,
    IsolationOracle,
    MultiTenantSimulator,
    ProportionalSharePolicy,
    TenantRegistry,
    TenantScheduler,
    TenantSpec,
)
from repro.trace.record import make_chunk
from repro.units import KB, MB
from repro.workloads.tenants import tenant_mix

from .conftest import LEGACY_CHECKPOINT_VERSIONS, write_checkpoint_version

ALGORITHMS = ("N", "N-1", "live")


def _cfg(algorithm="live", swap_interval=400):
    return SystemConfig(
        total_bytes=16 * MB,
        onpkg_bytes=2 * MB,
        migration=MigrationConfig(
            macro_page_bytes=64 * KB,
            swap_interval=swap_interval,
            algorithm=algorithm,
        ),
    )


def _trace(n=20_000, seed=0, span_bytes=14 * MB, writes=True, t0=0):
    """Hot/cold mixture over ``span_bytes`` (virtual or physical)."""
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, span_bytes)
    addr = np.where(
        rng.random(n) < 0.8,
        (hot + rng.integers(0, 256 * KB, n)) % span_bytes,
        rng.integers(0, span_bytes, n),
    )
    addr = (addr // 64) * 64
    rw = (rng.random(n) < 0.3).astype(np.int8) if writes else 0
    return make_chunk(
        addr.astype(np.int64),
        time=t0 + np.cumsum(rng.integers(1, 30, n)),
        rw=rw,
    )


def _scalar_fields(result):
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("epoch_latency", "degradation_events",
                          "fused_epochs", "stepwise_epochs", "tenants")
    }


# ---------------------------------------------------------------------------
# differential oracle: single tenant == plain simulator, bit for bit
# ---------------------------------------------------------------------------
class TestSingleTenantBitIdentity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("fused", (True, False))
    def test_bit_identical(self, algorithm, fused):
        cfg = _cfg(algorithm)
        trace = _trace()
        plain = EpochSimulator(cfg, fused=fused).run(trace)
        mts = MultiTenantSimulator(
            cfg, policy=ProportionalSharePolicy(), fused=fused
        )
        amap = cfg.address_map()
        mts.add_tenant(
            TenantSpec(tenant_id=0, name="solo", n_pages=amap.ghost_page),
            trace,
        )
        shared = mts.run()
        assert _scalar_fields(shared) == _scalar_fields(plain)
        assert shared.epoch_latency == plain.epoch_latency
        assert shared.swaps_triggered > 0
        assert shared.swaps_suppressed_qos == 0
        assert shared.tenants[0].accesses == len(trace)
        mts.table.audit()

    def test_bit_identical_with_data_tracking(self):
        cfg = _cfg()
        trace = _trace()
        plain = EpochSimulator(cfg, track_data=True).run(trace)
        mts = MultiTenantSimulator(
            cfg, policy=ProportionalSharePolicy(), track_data=True
        )
        amap = cfg.address_map()
        mts.add_tenant(
            TenantSpec(tenant_id=0, name="solo", n_pages=amap.ghost_page),
            trace,
        )
        shared = mts.run()
        assert _scalar_fields(shared) == _scalar_fields(plain)
        assert shared.data_violations == 0
        assert mts.oracle.n_violations == 0

    def test_per_tenant_attribution_totals_match(self):
        cfg = _cfg()
        mts = MultiTenantSimulator(cfg, solo_baselines=True)
        amap = cfg.address_map()
        mts.add_tenant(
            TenantSpec(tenant_id=0, name="solo", n_pages=amap.ghost_page),
            _trace(),
        )
        result = mts.run()
        m = result.tenants[0]
        assert m.accesses == result.n_accesses
        assert m.total_latency == result.total_latency
        assert m.onpkg_accesses == result.onpkg_accesses
        assert m.swaps_triggered == result.swaps_triggered
        # alone on the machine: the solo baseline is the same simulation
        assert m.slowdown == pytest.approx(1.0)
        assert m.interference_index == pytest.approx(0.0)

    def test_tenant_totals_sum_to_run_total_with_ras(self):
        """Boundary cycles (RAS CE correction here) land in some tenant's
        total, so the tenants' latencies sum to the run's."""
        cfg = _cfg().with_ras(enabled=True, ce_base_rate=0.05)
        mts = MultiTenantSimulator(cfg)
        n_pages = 100  # two windows clear of the reserved RAS spares
        for tenant_id in (0, 1):
            mts.add_tenant(
                TenantSpec(tenant_id=tenant_id, name=f"t{tenant_id}",
                           n_pages=n_pages),
                _trace(n=8_000, seed=tenant_id, span_bytes=n_pages * 64 * KB),
            )
        result = mts.run()
        assert result.ras.ce_cycles > 0
        tenants = result.tenants.values()
        assert len(tenants) == 2
        assert sum(m.accesses for m in tenants) == result.n_accesses
        assert sum(m.total_latency for m in tenants) == result.total_latency


# ---------------------------------------------------------------------------
# isolation: churned multi-tenant runs never cross data between tenants
# ---------------------------------------------------------------------------
class TestIsolation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_cross_tenant_reads_under_churn(self, algorithm):
        cfg = _cfg(algorithm)
        mts = MultiTenantSimulator(
            cfg, policy=ProportionalSharePolicy(), track_data=True
        )
        for spec, trace in tenant_mix(
            cfg, 4, accesses=4_000, seed=3, churn=True
        ):
            mts.add_tenant(spec, trace)
        result = mts.run()
        assert result.data_violations == 0
        assert mts.oracle.n_violations == 0
        assert not mts.sim.shadow.verify_table(mts.table)
        mts.table.audit()
        # 4 base tenants + the 2 churn arrivals all reclaimed
        assert mts.engine.tenants_released == 6
        assert sum(m.accesses for m in result.tenants.values()) == result.n_accesses

    def _residue_setup(self, monkeypatch, scrub):
        """Tenant 0 writes its whole window and departs; tenant 1 then
        reads the recycled window without writing first. ``scrub=False``
        patches the hypervisor's scrub-on-free out of the release."""
        if not scrub:
            monkeypatch.setattr(ShadowMemory, "scrub_page", lambda *a: None)
            monkeypatch.setattr(IsolationOracle, "scrub", lambda *a: None)
        cfg = _cfg()
        amap = cfg.address_map()
        n_pages = amap.ghost_page  # whole data space: windows must recycle
        addr = np.arange(n_pages, dtype=np.int64) * amap.macro_page_bytes
        writer = make_chunk(addr, time=np.arange(n_pages), rw=1)
        reader = make_chunk(addr, time=np.arange(n_pages), rw=0)
        mts = MultiTenantSimulator(cfg, track_data=True)
        mts.add_tenant(
            TenantSpec(tenant_id=0, name="writer", n_pages=n_pages), writer
        )
        mts.add_tenant(
            TenantSpec(tenant_id=1, name="reader", n_pages=n_pages,
                       arrive_epoch=10),
            reader,
        )
        return mts, mts.run(), n_pages

    def test_unscrubbed_release_leaks_and_only_the_oracle_sees_it(
        self, monkeypatch
    ):
        mts, result, n_pages = self._residue_setup(monkeypatch, scrub=False)
        # the shadow is blind: page ids and generations still match
        assert result.data_violations == 0
        # the oracle is not: every read observed tenant 0's residue
        assert mts.oracle.n_violations == n_pages
        v = mts.oracle.violations[0]
        assert (v.reader, v.writer) == (1, 0)
        assert "last written by tenant 0" in v.format()

    def test_scrub_on_free_cleanses_the_recycled_window(self, monkeypatch):
        mts, result, n_pages = self._residue_setup(monkeypatch, scrub=True)
        assert result.data_violations == 0
        assert mts.oracle.n_violations == 0
        assert not mts.sim.shadow.verify_table(mts.table)
        # the freed cells changed hands to the hypervisor before reuse
        assert (mts.oracle.writer != HYPERVISOR).sum() > 0  # tenant 1's reads left no marks
        mts.table.audit()


# ---------------------------------------------------------------------------
# QoS capacity partitioning
# ---------------------------------------------------------------------------
class TestQoS:
    def test_proportional_quota_is_never_exceeded(self, monkeypatch):
        cfg = _cfg()
        amap = cfg.address_map()
        n_pages = amap.ghost_page // 2
        policy = ProportionalSharePolicy()
        observed = []
        feed = MultiTenantSimulator._feed

        def checked_feed(sim, event, result):
            feed(sim, event, result)
            usage = sim.policy.usage()
            quotas = sim.policy.quotas()
            for tenant, used in usage.items():
                assert used <= quotas[tenant], (
                    f"tenant {tenant} uses {used} slots over quota "
                    f"{quotas[tenant]}"
                )
            observed.append(dict(usage))

        monkeypatch.setattr(MultiTenantSimulator, "_feed", checked_feed)
        mts = MultiTenantSimulator(cfg, policy=policy)
        # weights 1:9 give tenant 0 a small quota the cap must enforce
        for i, weight in enumerate((1.0, 9.0)):
            mts.add_tenant(
                TenantSpec(tenant_id=i, name=f"t{i}", n_pages=n_pages,
                           weight=weight),
                _trace(n=12_000, seed=i, span_bytes=n_pages * 64 * KB),
            )
        result = mts.run()
        assert observed, "no chunk was fed"
        small = policy.capacity() // 10
        # the cap actually bit: tenant 0 reached its quota at least once
        assert any(usage.get(0, 0) == small for usage in observed)
        assert result.swaps_triggered > 0
        mts.table.audit()

    def test_proportional_policy_splits_by_weight(self):
        cfg = _cfg()
        table = TranslationTable(cfg.address_map())
        registry = TenantRegistry(table)
        registry.admit(TenantSpec(tenant_id=0, name="a", n_pages=10, weight=3.0))
        registry.admit(TenantSpec(tenant_id=1, name="b", n_pages=10, weight=1.0))
        policy = ProportionalSharePolicy()
        policy.bind(registry, table)
        quotas = policy.quotas()
        cap = policy.capacity()
        assert quotas[0] == int(cap * 3.0 / 4.0)
        assert quotas[1] == int(cap * 1.0 / 4.0)
        assert quotas[0] + quotas[1] <= cap
        # quota cache keys on the registry version
        registry.release(1)
        assert 1 not in policy.quotas()


# ---------------------------------------------------------------------------
# reclamation regressions (the satellite fix): stale caches on release
# ---------------------------------------------------------------------------
def release(table, pages):
    """Release ``pages`` as ``MigrationEngine.release_tenant`` does: the
    routing update, then the copies planned from a pre-release clone
    with the released pages skipped. Returns the undone rows and the
    ``(src, dst)`` of each copy, in plan order."""
    before = table.clone()
    undone = table.release_pages(pages)
    steps = recovery_plan(before, [], target_table=table, skip=pages)
    return undone, [(step.src, step.dst) for step in steps]


class TestReclamationStaleness:
    def test_empty_slot_cache_invalidated_by_release(self):
        """release_pages writes the right column directly (no _set_cam),
        which used to leave the epoch-boundary empty-slot cache stale."""
        table = TranslationTable(_cfg().address_map())
        boot_empty = table.empty_slot()  # primes the cache
        assert boot_empty == table.n_slots - 1
        undone, moves = release(table, [5])
        # the ghost role relocated onto the freed identity row 5
        assert (("mach", table.amap.ghost_page), ("slot", boot_empty)) in moves
        assert table.empty_slot() == 5  # stale cache would still say 31
        assert set(undone) == {boot_empty, 5}
        table.audit()

    def test_release_copies_exactly_the_surviving_side(self):
        table = TranslationTable(_cfg().address_map())
        table.set_pair(2, 100)  # page 100 promoted into slot 2
        # releasing the promoted page: home page 2 survives, comes home
        _, moves = release(table, [100])
        assert moves[0] == (("mach", 100), ("slot", 2))
        assert table.page_in_slot(2) == 2
        table.audit()

        table.set_pair(3, 200)
        # releasing the home page: occupant 200 survives, goes home
        _, moves = release(table, [3])
        assert (("slot", 3), ("mach", 200)) in moves
        table.audit()

    def test_release_of_both_sides_copies_nothing(self):
        table = TranslationTable(_cfg().address_map())
        table.set_pair(2, 100)
        _, moves = release(table, [2, 100])
        assert not any(
            src[1] in (2, 100) or dst[1] in (2, 100)
            for src, dst in moves
        )
        table.audit()

    def test_release_requires_quiescence(self):
        table = TranslationTable(_cfg().address_map())
        table.set_pending(3, True)
        with pytest.raises(TranslationTableError, match="quiescent"):
            table.release_pages([100])

    def test_release_rejects_reserved_and_ghost_pages(self):
        amap = _cfg().address_map()
        table = TranslationTable(amap, reserved_pages={amap.ghost_page - 1})
        with pytest.raises(TranslationTableError, match="outside the data"):
            table.release_pages([amap.ghost_page])
        with pytest.raises(TranslationTableError, match="RAS spare"):
            table.release_pages([amap.ghost_page - 1])

    def test_monitor_unique_fold_purged_on_release(self):
        """A release is legal between the epoch fold and the swap
        evaluation; the dead page must not win the hottest ranking."""
        cfg = _cfg()
        sim = EpochSimulator(cfg)
        engine = sim.engine
        empty = np.zeros(0, dtype=np.int64)
        hot_page = 200
        engine.observe_epoch(
            empty, empty,
            np.full(50, hot_page, dtype=np.int64),
            np.arange(50, dtype=np.int64),
            off_subblocks=np.zeros(50, dtype=np.int64),
        )
        assert engine.monitor.hottest_page()[0] == hot_page
        assert engine.monitor._off_subblocks.size == 1
        engine.release_tenant(100, [hot_page])
        # the np.unique fold and the sub-block recency are both purged
        assert engine.monitor.hottest_page() is None
        assert engine.monitor._off_subblocks.size == 0
        decision = engine.maybe_swap(100)
        assert not decision.triggered
        sim.table.audit()

    def test_forget_pages_resets_slot_recency(self):
        cfg = _cfg()
        engine = EpochSimulator(cfg).engine
        engine.monitor.slot_last_touch[4] = 99
        engine.monitor.slot_epoch_counts[4] = 7
        engine.forget_pages([], slots=[4])
        assert engine.monitor.slot_last_touch[4] == -1
        assert engine.monitor.slot_epoch_counts[4] == 0

    def test_release_counters_survive_checkpoint_roundtrip(self, tmp_path):
        cfg = _cfg()
        sim = EpochSimulator(cfg)
        sim.engine.swaps_suppressed_qos = 3
        sim.engine.tenants_released = 2
        sim.engine.reclaimed_bytes = 640 * KB
        path = tmp_path / "released.ckpt"
        save_checkpoint(path, sim, SimulationResult())
        fresh = load_checkpoint(path).simulator.engine
        assert fresh.swaps_suppressed_qos == 3
        assert fresh.tenants_released == 2
        assert fresh.reclaimed_bytes == 640 * KB

    @pytest.mark.parametrize("version", LEGACY_CHECKPOINT_VERSIONS)
    def test_legacy_checkpoint_is_rejected(self, tmp_path, version):
        # older schemas (version 1 predates tenancy) are refused, not
        # loaded with zeroed counters
        path = tmp_path / f"v{version}.ckpt"
        write_checkpoint_version(path, EpochSimulator(_cfg()), version)
        with pytest.raises(
            CheckpointError, match=f"unsupported checkpoint version {version} "
        ):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# registry / domain / scheduler units
# ---------------------------------------------------------------------------
class TestRegistry:
    def _registry(self):
        return TenantRegistry(TranslationTable(_cfg().address_map()))

    def test_first_fit_and_window_reuse(self):
        reg = self._registry()
        a = reg.admit(TenantSpec(tenant_id=0, name="a", n_pages=100))
        b = reg.admit(TenantSpec(tenant_id=1, name="b", n_pages=100))
        assert (a.base_page, b.base_page) == (0, 100)
        reg.release(0)
        c = reg.admit(TenantSpec(tenant_id=2, name="c", n_pages=100))
        assert c.base_page == 0  # the reclaimed window is reused

    def test_holes_merge_on_release(self):
        reg = self._registry()
        for i in range(3):
            reg.admit(TenantSpec(tenant_id=i, name=f"t{i}", n_pages=80))
        reg.release(0)
        reg.release(1)
        # two adjacent 80-page holes merged: a 160-page tenant fits
        big = reg.admit(TenantSpec(tenant_id=9, name="big", n_pages=160))
        assert big.base_page == 0

    def test_admission_failures(self):
        reg = self._registry()
        reg.admit(TenantSpec(tenant_id=0, name="a", n_pages=200))
        with pytest.raises(TenancyError, match="already admitted"):
            reg.admit(TenantSpec(tenant_id=0, name="dup", n_pages=1))
        with pytest.raises(TenancyError, match="no contiguous window"):
            reg.admit(TenantSpec(tenant_id=1, name="big", n_pages=200))
        with pytest.raises(TenancyError, match="not admitted"):
            reg.release(7)

    def test_ownership_lookup(self):
        reg = self._registry()
        reg.admit(TenantSpec(tenant_id=5, name="a", n_pages=10))
        reg.admit(TenantSpec(tenant_id=6, name="b", n_pages=10))
        owners = reg.tenant_of_pages(np.array([0, 9, 10, 19, 20, 254]))
        assert owners.tolist() == [5, 5, 6, 6, -1, -1]
        assert reg.owner_of(3) == 5
        assert reg.owner_of(200) is None

    def test_spec_validation(self):
        with pytest.raises(TenancyError):
            TenantSpec(tenant_id=0, name="x", n_pages=0)
        with pytest.raises(TenancyError):
            TenantSpec(tenant_id=0, name="x", n_pages=1, weight=0)


class TestDomain:
    def test_translate_shifts_by_the_window_base(self):
        reg = TenantRegistry(TranslationTable(_cfg().address_map()))
        reg.admit(TenantSpec(tenant_id=0, name="a", n_pages=10))
        b = reg.admit(TenantSpec(tenant_id=1, name="b", n_pages=10))
        chunk = make_chunk(np.array([0, 64 * KB, 9 * 64 * KB]))
        out = b.translate(chunk)
        assert out.addr.tolist() == [
            10 * 64 * KB, 11 * 64 * KB, 19 * 64 * KB
        ]
        assert out.time.tolist() == chunk.time.tolist()

    def test_zero_base_translation_is_the_identity_object(self):
        reg = TenantRegistry(TranslationTable(_cfg().address_map()))
        a = reg.admit(TenantSpec(tenant_id=0, name="a", n_pages=10))
        chunk = make_chunk(np.array([0, 64 * KB]))
        assert a.translate(chunk) is chunk

    def test_out_of_footprint_addresses_rejected(self):
        reg = TenantRegistry(TranslationTable(_cfg().address_map()))
        a = reg.admit(TenantSpec(tenant_id=0, name="a", n_pages=10))
        with pytest.raises(TenancyError, match="exceed the declared footprint"):
            a.translate(make_chunk(np.array([10 * 64 * KB])))


class TestScheduler:
    def test_single_tenant_stream_is_untouched(self):
        sched = TenantScheduler(swap_interval=100)
        trace = _trace(n=450, span_bytes=1 * MB)
        sched.add(TenantSpec(tenant_id=0, name="solo", n_pages=16), trace)
        chunks = [e for e in sched.schedule() if isinstance(e, ChunkEvent)]
        assert [len(e.chunk) for e in chunks] == [100, 100, 100, 100, 50]
        rebuilt = np.concatenate([e.chunk.addr for e in chunks])
        assert np.array_equal(rebuilt, trace.addr)
        times = np.concatenate([e.chunk.time for e in chunks])
        assert np.array_equal(times, trace.time)  # zero shift everywhere

    def test_interleave_is_time_ordered_and_round_robin(self):
        sched = TenantScheduler(swap_interval=100)
        for i in range(2):
            sched.add(
                TenantSpec(tenant_id=i, name=f"t{i}", n_pages=16),
                _trace(n=300, seed=i, span_bytes=1 * MB),
            )
        events = list(sched.schedule())
        chunks = [e for e in events if isinstance(e, ChunkEvent)]
        assert [e.tenant_id for e in chunks] == [0, 1, 0, 1, 0, 1]
        last = -1
        for e in chunks:
            assert int(e.chunk.time[0]) >= last
            last = int(e.chunk.time[-1])

    def test_departure_and_late_arrival(self):
        sched = TenantScheduler(swap_interval=100)
        sched.add(
            TenantSpec(tenant_id=0, name="early", n_pages=16, depart_epoch=2),
            _trace(n=1_000, span_bytes=1 * MB),
        )
        sched.add(
            TenantSpec(tenant_id=1, name="late", n_pages=16, arrive_epoch=50),
            _trace(n=200, seed=1, span_bytes=1 * MB),
        )
        events = list(sched.schedule())
        kinds = [(type(e).__name__, e.tenant_id) for e in events]
        # tenant 0 is evicted after 2 epochs with trace left; the clock
        # then jumps to tenant 1's arrival
        assert ("DepartEvent", 0) in kinds
        admit_late = [e for e in events if type(e).__name__ == "AdmitEvent"
                      and e.tenant_id == 1]
        assert admit_late[0].epoch >= 50
        chunks0 = [e for e in events if isinstance(e, ChunkEvent)
                   and e.tenant_id == 0]
        assert sum(len(e.chunk) for e in chunks0) == 200  # 2 of 10 epochs

    def test_duplicate_tenant_rejected(self):
        sched = TenantScheduler(swap_interval=100)
        sched.add(TenantSpec(tenant_id=0, name="a", n_pages=1),
                  make_chunk(np.array([0])))
        with pytest.raises(TenancyError, match="already scheduled"):
            sched.add(TenantSpec(tenant_id=0, name="b", n_pages=1),
                      make_chunk(np.array([0])))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
class TestReporting:
    def test_tenant_table_renders(self):
        cfg = _cfg()
        mts = MultiTenantSimulator(cfg, solo_baselines=True)
        for spec, trace in tenant_mix(cfg, 2, accesses=2_000, seed=1):
            mts.add_tenant(spec, trace)
        result = mts.run()
        table = tenant_table(result)
        text = table.render()
        assert "Per-tenant summary" in text
        assert "0:pgbench" in text and "1:indexer" in text
        assert "x" in text  # slowdown column filled from the baselines

    def test_tenant_table_requires_tenant_metrics(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="no tenant metrics"):
            tenant_table(EpochSimulator(_cfg()).run(make_chunk([])))

    def test_run_is_one_shot(self):
        mts = MultiTenantSimulator(_cfg())
        mts.run()
        with pytest.raises(TenancyError, match="one-shot"):
            mts.run()


# ---------------------------------------------------------------------------
# property test: random mixes x churn x policies keep every invariant
# ---------------------------------------------------------------------------
POLICY_KINDS = ("none", "proportional")


def _make_policy(kind):
    return ProportionalSharePolicy() if kind == "proportional" else None


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    n_tenants=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
    policy_kind=st.sampled_from(POLICY_KINDS),
    churn=st.booleans(),
)
def test_random_mixes_keep_table_and_quota_invariants(
    n_tenants, seed, policy_kind, churn
):
    cfg = _cfg(swap_interval=200)
    mix = tenant_mix(cfg, n_tenants, accesses=1_400, seed=seed, churn=churn)
    feed = MultiTenantSimulator._feed

    def checked_feed(sim, event, result):
        feed(sim, event, result)
        sim.table.check_invariants()

    mts = MultiTenantSimulator(cfg, policy=_make_policy(policy_kind))
    for spec, trace in mix:
        mts.add_tenant(spec, trace)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MultiTenantSimulator, "_feed", checked_feed)
        result = mts.run()
    mts.table.audit()
    # every tenant (base + churn arrivals) departed and was reclaimed
    assert mts.engine.tenants_released == len(mix)
    # reclaimed windows are reusable: the whole space is free again...
    assert mts.registry.free_pages == mts.registry.limit
    # ...and a full-space tenant is admissible on the spot
    mts.registry.admit(
        TenantSpec(tenant_id=99, name="next", n_pages=mts.registry.limit)
    )
    assert result.n_accesses == sum(m.accesses for m in result.tenants.values())
