"""The OS-assisted scheme (Section III-B): fine granularities pay a
user/kernel round trip per table update, stretching the swap."""

import numpy as np

from repro.address import AddressMap
from repro.config import MigrationConfig
from repro.migration.algorithms import TableUpdate, build_swap_steps
from repro.migration.engine import MigrationEngine
from repro.units import KB, MB


def engine_for(page_bytes: int) -> MigrationEngine:
    amap = AddressMap(
        total_bytes=64 * MB, onpkg_bytes=8 * MB,
        macro_page_bytes=page_bytes, subblock_bytes=4 * KB,
    )
    cfg = MigrationConfig(
        algorithm="live", macro_page_bytes=page_bytes, subblock_bytes=4 * KB,
        swap_interval=1000,
    )
    return MigrationEngine(amap, cfg)


def trigger(engine: MigrationEngine, page: int, now: int = 0):
    engine.observe_epoch(
        slots=np.array([], dtype=np.int64),
        slot_times=np.array([], dtype=np.int64),
        offpkg_pages=np.full(5, page, dtype=np.int64),
        off_times=np.arange(5, dtype=np.int64),
        off_subblocks=np.zeros(5, dtype=np.int64),
    )
    return engine.maybe_swap(now)


def test_fine_granularity_is_os_assisted():
    assert engine_for(64 * KB).config.os_assisted
    assert not engine_for(1 * MB).config.os_assisted


def test_os_updates_stretch_the_swap():
    """Same plan shape at 64 KB pages: the OS-assisted engine's swap ends
    later by (updates x 127) cycles than a hypothetical pure-HW one."""
    e = engine_for(64 * KB)
    hot = e.amap.n_onpkg_pages + 3
    pre = e.table.clone()
    decision = trigger(e, hot)
    assert decision.triggered
    os_end = e.active.end

    e_hw = engine_for(64 * KB)
    # force the pure-hardware cost model for comparison
    object.__setattr__(e_hw.config, "hw_min_page_bytes", 4 * KB)
    assert not e_hw.config.os_assisted
    hot2 = e_hw.amap.n_onpkg_pages + 3
    assert trigger(e_hw, hot2).triggered
    hw_end = e_hw.active.end

    # the updates of the builders' plan for the same swap
    plan = build_swap_steps(pre, decision.mru, decision.lru)
    n_updates = sum(isinstance(s, TableUpdate) for s in plan.steps)
    assert os_end - hw_end == n_updates * e.config.os_update_cycles


def test_coarse_granularity_pays_nothing_extra():
    e = engine_for(1 * MB)
    hot = e.amap.n_onpkg_pages + 3
    pre = e.table.clone()
    decision = trigger(e, hot)
    assert decision.triggered
    # duration ~= copy bytes / bandwidth, no OS term
    plan = build_swap_steps(pre, decision.mru, decision.lru)
    expected = round(plan.total_copy_bytes / 3.33)
    assert abs((e.active.end - e.active.start) - expected) < 0.02 * expected
