"""Robustness: degenerate geometries, hostile inputs, fuzzed configs.

The system must degrade gracefully (no swap, clear error) rather than
crash or corrupt state, whatever configuration a user reaches for.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.config import MigrationConfig, SystemConfig
from repro.errors import AddressError
from repro.trace.record import make_chunk
from repro.units import KB, MB


def system(total=64 * MB, onpkg=8 * MB, page=64 * KB, interval=200, algo="live"):
    return SystemConfig(
        total_bytes=total,
        onpkg_bytes=onpkg,
        migration=MigrationConfig(
            algorithm=algo, macro_page_bytes=page, swap_interval=interval
        ),
    )


class TestDegenerateGeometries:
    def test_single_slot_region(self):
        """macro page == on-package capacity: the N-1 design's only slot
        is the empty one — the system must run without ever swapping."""
        cfg = system(onpkg=1 * MB, page=1 * MB, interval=100)
        trace = make_chunk(
            np.arange(500) * 4096 % (32 * MB), time=np.arange(500) * 50
        )
        res = repro.HeterogeneousMainMemory(cfg).run(trace)
        assert res.swaps_triggered == 0
        assert res.n_accesses == 500

    def test_single_slot_basic_design_can_swap(self):
        """The N design keeps its one slot usable."""
        cfg = system(onpkg=1 * MB, page=1 * MB, interval=100, algo="N")
        rng = np.random.default_rng(0)
        trace = make_chunk(
            (8 * MB + rng.integers(0, 4, 2000) * 1 * MB) + rng.integers(0, 16, 2000) * 64,
            time=np.arange(2000) * 2000,
        )
        res = repro.HeterogeneousMainMemory(cfg).run(trace)
        assert res.swaps_triggered > 0

    def test_empty_and_single_access(self):
        cfg = system()
        assert repro.HeterogeneousMainMemory(cfg).run(make_chunk([])).n_accesses == 0
        assert repro.HeterogeneousMainMemory(cfg).run(make_chunk([0])).n_accesses == 1

    def test_whole_trace_on_one_offpkg_page(self):
        cfg = system(interval=100)
        trace = make_chunk(np.full(500, 40 * MB), time=np.arange(500) * 30)
        res = repro.HeterogeneousMainMemory(cfg).run(trace)
        assert res.swaps_triggered == 1  # promoted once, then it is hot on-package
        assert res.onpkg_fraction > 0.5

    def test_access_to_the_reserved_omega_page(self):
        """Hammering Ω itself must never trigger a migration of it."""
        cfg = system(interval=100)
        amap = cfg.address_map()
        addr = amap.ghost_page * amap.macro_page_bytes
        trace = make_chunk(np.full(500, addr), time=np.arange(500) * 30)
        res = repro.HeterogeneousMainMemory(cfg).run(trace)
        assert res.swaps_triggered == 0


class TestFuzzedConfigs:
    @settings(max_examples=15, deadline=None)
    @given(
        page_log2=st.integers(12, 20),          # 4 KB .. 1 MB
        interval=st.integers(50, 500),
        algo=st.sampled_from(["N", "N-1", "live"]),
        seed=st.integers(0, 100),
        os_assisted=st.booleans(),
        critical_block_first=st.booleans(),
    )
    def test_random_config_random_trace(
        self, page_log2, interval, algo, seed, os_assisted, critical_block_first
    ):
        page = 1 << page_log2
        cfg = SystemConfig(
            total_bytes=64 * MB,
            onpkg_bytes=8 * MB,
            migration=MigrationConfig(
                algorithm=algo,
                macro_page_bytes=page,
                swap_interval=interval,
                # os_assisted is derived: force it by moving the HW
                # translation floor just above / at the page size
                hw_min_page_bytes=page * 2 if os_assisted else page,
                critical_block_first=critical_block_first,
            ),
        )
        assert cfg.migration.os_assisted is os_assisted
        rng = np.random.default_rng(seed)
        n = 2_000
        hot = rng.integers(0, 64 * MB // 4096)
        blocks = np.where(
            rng.random(n) < 0.7,
            hot + rng.integers(0, 64, n),
            rng.integers(0, 64 * MB // 4096, n),
        ) % (64 * MB // 4096)
        trace = make_chunk(blocks * 4096, time=np.cumsum(rng.integers(1, 80, n)))
        sim = repro.HeterogeneousMainMemory(cfg)
        res = repro.SimulationResult()
        # feed one epoch at a time so the table's invariants are checked
        # at every epoch boundary, not just at the end of the run
        for start in range(0, n, interval):
            sim.run_into(trace[start : start + interval], res)
            sim.table.check_invariants()
        assert res.n_accesses == n
        assert res.onpkg_accesses + res.offpkg_accesses == n
        assert res.total_latency > 0


class TestHostileTraces:
    def test_simultaneous_timestamps(self):
        cfg = system()
        trace = make_chunk(np.arange(100) * 4096, time=np.zeros(100, dtype=np.int64))
        res = repro.HeterogeneousMainMemory(cfg).run(trace)
        assert res.n_accesses == 100

    def test_huge_time_gaps(self):
        cfg = system(interval=50)
        trace = make_chunk(
            np.arange(200) * 4096 % (64 * MB),
            time=np.arange(200, dtype=np.int64) * (1 << 40),
        )
        res = repro.HeterogeneousMainMemory(cfg).run(trace)
        assert res.n_accesses == 200

    def test_out_of_range_address_rejected_by_page_space(self):
        cfg = system()
        trace = make_chunk([cfg.total_bytes + 4096])
        with pytest.raises(AddressError, match="outside"):
            repro.HeterogeneousMainMemory(cfg).run(trace)
