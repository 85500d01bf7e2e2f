"""Tests for the memory controllers (Fig 2 vs Fig 3)."""

import numpy as np
import pytest

from repro.config import MigrationConfig, SystemConfig
from repro.core.hetero_memory import baseline_latency
from repro.dram.latency import LatencyModel
from repro.memctrl.heterogeneous import HeterogeneousController
from repro.migration.engine import MigrationEngine
from repro.migration.table import TranslationTable
from repro.trace.record import make_chunk
from repro.units import KB, MB


def small_system() -> SystemConfig:
    return SystemConfig(
        total_bytes=64 * MB,
        onpkg_bytes=8 * MB,
        migration=MigrationConfig(macro_page_bytes=1 * MB, swap_interval=500),
    )


class TestRouter:
    def test_split_by_msb(self):
        amap = small_system().address_map()
        machine = np.array([0, 7, 8, 63])
        on = amap.is_onpkg_machine_page(machine)
        assert on.tolist() == [True, True, False, False]

    def test_local_addresses(self):
        amap = small_system().address_map()
        # off-package machine page 8 maps to DIMM-local page 0
        assert amap.local_address(np.array([8]), np.array([5]), False)[0] == 5
        assert amap.local_address(np.array([2]), np.array([5]), True)[0] == 2 * MB + 5
        # the unchecked form agrees with the checked compose on-package
        pages, offsets = np.array([0, 3, 7]), np.array([0, 17, MB - 1])
        assert (amap.local_address(pages, offsets, True)
                == amap.compose(pages, offsets)).all()


class TestConventional:
    def test_baseline_latency_accounting(self):
        cfg = small_system()
        chunk = make_chunk(np.arange(100) * 64, time=np.arange(100) * 200)
        res = baseline_latency(cfg, chunk, "all-offpkg")
        model = LatencyModel(cfg.latency, cfg.offpkg_dram, onpkg=False)
        lat = model.access_latency(chunk.addr, chunk.time)
        assert res.n_accesses == res.offpkg_accesses == 100
        assert res.total_latency == int(lat.sum())
        assert res.average_latency == pytest.approx(lat.mean())
        # every access pays at least path + a row hit
        assert lat.min() >= 34 + cfg.offpkg_dram.hit_cycles


class TestHeterogeneous:
    def test_identity_table_routes_low_pages_onpkg(self):
        cfg = small_system()
        ctrl = HeterogeneousController(cfg)
        table = TranslationTable(cfg.address_map(), reserve_empty_slot=False)
        addr = np.array([0, 9 * MB])  # page 0 on, page 9 off
        chunk = make_chunk(addr, time=np.array([0, 300]))
        lat, on, machine = ctrl.service_chunk(chunk, table)
        assert on.tolist() == [True, False]
        assert machine.tolist() == [0, 9]
        assert lat[1] > lat[0]  # off-package path is longer

    def test_translation_cost_applied(self):
        cfg = small_system()
        table = TranslationTable(cfg.address_map(), reserve_empty_slot=False)
        chunk = make_chunk(np.array([0]), time=np.array([0]))
        with_t = HeterogeneousController(cfg)
        without_t = HeterogeneousController(cfg, translation_overhead=False)
        l1, _, _ = with_t.service_chunk(chunk, table)
        l2, _, _ = without_t.service_chunk(chunk, table)
        assert l1[0] - l2[0] == cfg.migration.hw_translation_cycles

    def test_migrated_page_served_onpkg(self):
        cfg = small_system()
        ctrl = HeterogeneousController(cfg)
        engine = MigrationEngine(cfg.address_map(), cfg.migration, cfg.bus)
        hot = 20  # off-package page
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot), off_times=np.arange(5),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        engine.maybe_swap(now=0)
        end = engine.active.end
        chunk = make_chunk(np.array([hot * MB]), time=np.array([end + 10]))
        _, on, machine = ctrl.service_chunk(chunk, engine.table, None)
        assert on[0]

    def test_inflight_page_served_from_old_copy_before_fill(self):
        cfg = small_system()
        ctrl = HeterogeneousController(cfg)
        engine = MigrationEngine(cfg.address_map(), cfg.migration, cfg.bus)
        hot = 20
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot), off_times=np.arange(5),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        engine.maybe_swap(now=1000)
        fill = engine.active.fill
        # an access just after the fill starts, to the sub-block copied LAST
        last_sb = (fill.first_subblock - 1) % fill.n_subblocks
        addr = hot * MB + last_sb * cfg.migration.subblock_bytes
        chunk = make_chunk(np.array([addr]), time=np.array([fill.start + 1]))
        _, on, machine = ctrl.service_chunk(chunk, engine.table, engine.active)
        assert not on[0] and machine[0] == hot
        # the same address after the fill completes is on-package
        chunk2 = make_chunk(np.array([addr]), time=np.array([fill.end + 10]))
        _, on2, _ = ctrl.service_chunk(chunk2, engine.table, engine.active)
        assert on2[0]

    def test_critical_subblock_available_early(self):
        cfg = small_system()
        ctrl = HeterogeneousController(cfg)
        engine = MigrationEngine(cfg.address_map(), cfg.migration, cfg.bus)
        hot, hot_sb = 20, 37
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot), off_times=np.arange(5),
            off_subblocks=np.full(5, hot_sb, dtype=np.int64),
        )
        engine.maybe_swap(now=1000)
        fill = engine.active.fill
        assert fill.first_subblock == hot_sb
        addr = hot * MB + hot_sb * cfg.migration.subblock_bytes
        t = fill.start + fill.subblock_cycles + 1
        chunk = make_chunk(np.array([addr]), time=np.array([t]))
        _, on, _ = ctrl.service_chunk(chunk, engine.table, engine.active)
        assert on[0]  # the MRU sub-block landed first

    def test_stall_penalty_under_basic_design(self):
        cfg = small_system().with_migration(algorithm="N")
        ctrl = HeterogeneousController(cfg)
        engine = MigrationEngine(cfg.address_map(), cfg.migration, cfg.bus)
        hot = 20
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot), off_times=np.arange(5),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        engine.maybe_swap(now=1000)
        active = engine.active
        stalled = make_chunk(np.array([0]), time=np.array([active.start + 10]))
        lat, _, _ = ctrl.service_chunk(stalled, engine.table, active)
        assert lat[0] >= active.end - (active.start + 10)

    def test_offpkg_interference_during_migration(self):
        cfg = small_system()
        ctrl_a = HeterogeneousController(cfg)
        ctrl_b = HeterogeneousController(cfg)
        engine = MigrationEngine(cfg.address_map(), cfg.migration, cfg.bus)
        hot = 20
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot), off_times=np.arange(5),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        engine.maybe_swap(now=0)
        off_addr = 30 * MB
        inside = make_chunk(np.array([off_addr]), time=np.array([engine.active.start + 5]))
        outside = make_chunk(np.array([off_addr]), time=np.array([engine.active.end + 5]))
        l_in, _, _ = ctrl_a.service_chunk(inside, engine.table, engine.active)
        l_out, _, _ = ctrl_b.service_chunk(outside, engine.table, None)
        assert l_in[0] - l_out[0] == cfg.migration.interference_cycles

    def test_empty_chunk(self):
        cfg = small_system()
        ctrl = HeterogeneousController(cfg)
        table = TranslationTable(cfg.address_map())
        lat, on, machine = ctrl.service_chunk(make_chunk([]), table)
        assert lat.size == on.size == machine.size == 0
