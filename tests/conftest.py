"""Shared fixtures: small geometries and traces that run in milliseconds."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.address import AddressMap
from repro.config import MigrationConfig, SystemConfig
from repro.core.simulator import SimulationResult
from repro.migration.engine import MigrationEngine
from repro.resilience.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    save_checkpoint,
)
from repro.trace.record import TraceChunk, make_chunk
from repro.units import KB, MB


def bare_rollback(monkeypatch) -> None:
    """Replace the engine's abort recovery with a routing-only table
    rollback: no copy-back runs, so a late abort leaves routing pointed
    at data the executed copy prefix overwrote (the protocol checker's
    ``valid-copy`` counterexample)."""

    def rollback_only(engine, now, t_abort, undo, executed, exc):
        engine.table.rollback(undo)

    monkeypatch.setattr(MigrationEngine, "_recover_abort", rollback_only)


def assert_same_state(before: dict, after: dict, where: str = "") -> None:
    """Two table ``state_dict()`` snapshots are equal, field by field."""
    assert before.keys() == after.keys()
    for key, value in before.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(value, after[key], err_msg=f"{key} {where}")
        else:
            assert value == after[key], (key, where)


@pytest.fixture
def tiny_amap() -> AddressMap:
    """16 MB total, 4 MB on-package, 1 MB macro pages -> N = 4 slots."""
    return AddressMap(
        total_bytes=16 * MB,
        onpkg_bytes=4 * MB,
        macro_page_bytes=1 * MB,
        subblock_bytes=4 * KB,
    )


@pytest.fixture
def small_config() -> SystemConfig:
    """A geometry small enough for exhaustive per-access checks."""
    return SystemConfig(
        total_bytes=64 * MB,
        onpkg_bytes=8 * MB,
        migration=MigrationConfig(
            algorithm="live",
            macro_page_bytes=1 * MB,
            swap_interval=500,
        ),
    )


def synthetic_trace(
    n: int = 5000,
    footprint: int = 32 * MB,
    seed: int = 0,
    hot_fraction: float = 0.1,
    hot_weight: float = 0.8,
    mean_gap: int = 30,
) -> TraceChunk:
    """A skewed trace with a scattered hot region (no workload machinery)."""
    rng = np.random.default_rng(seed)
    n_lines = footprint // 64
    hot_lines = max(1, int(n_lines * hot_fraction))
    hot_base = (n_lines // 2) // 64 * 64  # hot region in the middle
    is_hot = rng.random(n) < hot_weight
    lines = np.where(
        is_hot,
        hot_base + rng.integers(0, hot_lines, size=n),
        rng.integers(0, n_lines, size=n),
    )
    addr = (lines % n_lines) * 64
    time = np.cumsum(rng.integers(1, 2 * mean_gap, size=n))
    return make_chunk(addr, time=time)


@pytest.fixture
def skewed_trace() -> TraceChunk:
    return synthetic_trace()


#: every checkpoint format version this build refuses to read
LEGACY_CHECKPOINT_VERSIONS = tuple(range(1, CHECKPOINT_VERSION))


def write_checkpoint_version(path, simulator, version: int) -> None:
    """A checkpoint of ``simulator`` whose header claims format
    ``version`` (1: before RAS, tenancy and data-safe abort state; 2:
    sub-block recency on the engine, not the monitor; 3: per-component
    state dicts instead of the pickled simulator; 4: per-page timeline
    lists; 5: a wear model that took each copy's size per call)."""
    save_checkpoint(path, simulator, SimulationResult())
    with open(path, "r+b") as fh:
        fh.seek(len(CHECKPOINT_MAGIC))
        fh.write(struct.pack("<I", version))
