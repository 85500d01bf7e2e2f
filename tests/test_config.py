"""Configuration tests — Table II/III numbers and validation."""

import pytest

from repro.config import (
    BusConfig,
    CacheHierarchyConfig,
    CacheLevelConfig,
    DramTiming,
    LatencyComponents,
    MigrationAlgorithm,
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
    paper_config,
    scaled_config,
)
from repro.errors import ConfigError
from repro.units import GB, KB, MB


class TestLatencyComponents:
    def test_table2_offpkg_path(self):
        """controller 5 + 2x4 core link + 2x5 package pin + 11 PCB = 34."""
        assert LatencyComponents().offpkg_overhead == 34

    def test_table2_onpkg_path(self):
        """controller 5 + 2x4 core link + 2x3 interposer + 1 intra-pkg = 20."""
        assert LatencyComponents().onpkg_overhead == 20

    def test_onpkg_path_is_shorter(self):
        c = LatencyComponents()
        assert c.onpkg_overhead < c.offpkg_overhead


class TestDramTiming:
    def test_bank_counts(self):
        """8-bank off-package, 128-bank on-package (Section IV)."""
        assert offpkg_dram_timing().n_banks == 8
        assert offpkg_dram_timing().n_channels == 4
        assert onpkg_dram_timing().n_banks == 128

    def test_onpkg_io_is_faster(self):
        assert onpkg_dram_timing().io_cycles < offpkg_dram_timing().io_cycles

    def test_hit_cheaper_than_miss(self):
        t = offpkg_dram_timing()
        assert t.hit_cycles < t.miss_cycles

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            DramTiming(t_cas=0)


class TestCacheConfig:
    def test_table2_hierarchy(self):
        c = CacheHierarchyConfig()
        assert (c.l1.capacity_bytes, c.l1.ways, c.l1.latency_cycles) == (32 * KB, 8, 2)
        assert (c.l2.capacity_bytes, c.l2.ways, c.l2.latency_cycles) == (256 * KB, 8, 5)
        assert (c.l3.capacity_bytes, c.l3.ways, c.l3.latency_cycles) == (8 * MB, 16, 25)
        assert c.l3.shared and not c.l1.shared
        assert c.n_cores == 4

    def test_sets_must_divide(self):
        with pytest.raises(ConfigError):
            CacheLevelConfig(capacity_bytes=1000, ways=3, latency_cycles=1)

    def test_n_sets(self):
        assert CacheLevelConfig(32 * KB, 8, 2).n_sets == 64


class TestMigrationConfig:
    def test_defaults_valid(self):
        MigrationConfig()

    def test_algorithm_names(self):
        assert set(MigrationAlgorithm.ALL) == {"N", "N-1", "live"}
        with pytest.raises(ConfigError):
            MigrationConfig(algorithm="N-2")

    def test_os_assisted_threshold(self):
        """< 1 MB pages go OS-assisted (Section III-B)."""
        assert MigrationConfig(macro_page_bytes=256 * KB).os_assisted
        assert not MigrationConfig(macro_page_bytes=1 * MB).os_assisted
        assert not MigrationConfig(macro_page_bytes=4 * MB).os_assisted

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigError):
            MigrationConfig(swap_interval=0)


class TestBusConfig:
    def test_paper_copy_time(self):
        """A 4 MB page over DDR3-1333 takes ~374 us ~= 1.2M core cycles."""
        cycles = BusConfig().copy_cycles(4 * MB, cross_boundary=True)
        seconds = cycles / 3.2e9
        assert 350e-6 < seconds < 420e-6

    def test_copy_cycles_per_bus(self):
        """A crossing copy runs at the off-package bandwidth, any other
        at the on-package one; a copy of any bytes takes at least one
        cycle, and nothing to copy takes none."""
        bus = BusConfig(offpkg_bytes_per_cycle=4.0, onpkg_bytes_per_cycle=64.0)
        assert bus.copy_cycles(4096, cross_boundary=True) == 1024
        assert bus.copy_cycles(4096, cross_boundary=False) == 64
        assert bus.copy_cycles(10, cross_boundary=False) == 1
        assert bus.copy_cycles(0, cross_boundary=True) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            BusConfig(offpkg_bytes_per_cycle=0)


class TestSystemConfig:
    def test_paper_config_geometry(self):
        cfg = paper_config()
        assert cfg.total_bytes == 4 * GB
        assert cfg.onpkg_bytes == 512 * MB
        amap = cfg.address_map()
        assert amap.onpkg_bytes * 8 == amap.total_bytes  # the 12.5% ratio

    def test_scaled_preserves_ratio(self):
        cfg = scaled_config(16)
        assert cfg.total_bytes * 1.0 / cfg.onpkg_bytes == 8.0

    def test_with_migration_replaces(self):
        cfg = paper_config().with_migration(algorithm="N", swap_interval=77)
        assert cfg.migration.algorithm == "N"
        assert cfg.migration.swap_interval == 77
        assert cfg.total_bytes == 4 * GB

    def test_invalid_geometry_fails_fast(self):
        with pytest.raises(ConfigError):
            SystemConfig(total_bytes=1 * GB, onpkg_bytes=2 * GB)

    def test_scaled_rejects_bad_scale(self):
        with pytest.raises(ConfigError):
            scaled_config(0)
