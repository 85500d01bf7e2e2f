"""Public facade: the heterogeneous main memory system and its baselines.

Typical use::

    from repro import HeterogeneousMainMemory, paper_config
    from repro.workloads.registry import generate_trace

    cfg = paper_config(algorithm="live", macro_page_bytes=1024 * 1024)
    system = HeterogeneousMainMemory(cfg)
    result = system.run(generate_trace("pgbench", 1_000_000))
    print(result.average_latency, result.onpkg_fraction)

Baselines (Table IV / Fig 11 reference lines) come from
:func:`baseline_latency`:

* ``"all-offpkg"`` — every access pays the DIMM path (the conventional
  system);
* ``"all-onpkg"`` — the ideal: the whole working set fits on-package;
* ``"static"`` — on-package memory mapped to the lowest addresses, no
  migration (Section II's static mapping).
"""

from __future__ import annotations

import os
from enum import Enum

from ..config import SystemConfig
from ..errors import ConfigError
from ..memctrl.conventional import ConventionalController
from ..trace.record import TraceChunk
from .simulator import EpochSimulator, SimulationResult


class BaselineKind(str, Enum):
    ALL_OFFPKG = "all-offpkg"
    ALL_ONPKG = "all-onpkg"
    STATIC = "static"


class HeterogeneousMainMemory:
    """On-package + off-package main memory with dynamic migration."""

    def __init__(self, config: SystemConfig | None = None, *, migrate: bool = True,
                 fused: bool = True, track_data: bool = False):
        self.config = config or SystemConfig()
        self.simulator = EpochSimulator(
            self.config, migrate=migrate, fused=fused, track_data=track_data,
        )

    def run(self, trace: TraceChunk) -> SimulationResult:
        """Simulate a trace of main-memory accesses."""
        return self.simulator.run(trace)

    def run_stream(self, stream) -> SimulationResult:
        """Simulate a trace stream with O(chunk) peak memory; see
        :meth:`EpochSimulator.run_stream`."""
        return self.simulator.run_stream(stream)

    # ------------------------------------------------------------------
    # resilience facade
    # ------------------------------------------------------------------
    def attach_faults(self, plan) -> None:
        """Arm a seeded :class:`~repro.resilience.faults.FaultPlan`."""
        self.simulator.attach_faults(plan)

    @property
    def degradation_events(self):
        """Structured records of every resilience mechanism that fired."""
        return self.simulator.degradation_events

    def save_checkpoint(self, path: str | os.PathLike,
                        result: SimulationResult, *,
                        extra: dict | None = None) -> None:
        """Snapshot the system mid-campaign; see
        :func:`repro.resilience.checkpoint.save_checkpoint`."""
        from ..resilience.checkpoint import save_checkpoint

        save_checkpoint(path, self.simulator, result, extra=extra)

    @classmethod
    def resume(cls, path: str | os.PathLike) -> tuple[
        "HeterogeneousMainMemory", SimulationResult, dict
    ]:
        """Reconstruct a system + partial result from a checkpoint file.

        Returns ``(system, result, extra)``; feed the remaining trace
        chunks through ``system.simulator.run_into(chunk, result)``.
        """
        from ..resilience.checkpoint import load_checkpoint

        bundle = load_checkpoint(path)
        system = cls.__new__(cls)
        system.simulator = bundle.simulator
        system.config = system.simulator.config
        return system, bundle.result, bundle.extra

    @property
    def shadow(self):
        """The data-content shadow memory (None unless track_data=True)."""
        return self.simulator.shadow

    @property
    def table(self):
        """The physical->machine translation table (inspection/testing)."""
        return self.simulator.engine.table

    @property
    def engine(self):
        """The migration engine (inspection/testing)."""
        return self.simulator.engine

    def dram_core_latency(self) -> float:
        """Observed average off-package DRAM service time (row-hit mix),
        the η denominator's core term. Valid after at least one run."""
        dev = self.simulator.controller.offpkg_model.device
        timing = self.config.offpkg_dram
        hr = dev.row_hit_rate
        return hr * timing.hit_cycles + (1.0 - hr) * timing.miss_cycles


def baseline_latency(
    config: SystemConfig, trace: TraceChunk, kind: BaselineKind | str
) -> SimulationResult:
    """Run one of the three reference configurations on a trace."""
    kind = BaselineKind(kind)
    if kind is BaselineKind.STATIC:
        system = HeterogeneousMainMemory(config, migrate=False)
        return system.run(trace)

    if kind is BaselineKind.ALL_OFFPKG:
        controller = ConventionalController(config.latency, config.offpkg_dram)
        onpkg = False
    elif kind is BaselineKind.ALL_ONPKG:
        controller = ConventionalController(
            config.latency, config.onpkg_dram, onpkg=True
        )
        onpkg = True
    else:  # pragma: no cover
        raise ConfigError(f"unknown baseline {kind}")

    latency = controller.service_chunk(trace)
    result = SimulationResult()
    result.n_accesses = len(trace)
    result.total_latency = int(latency.sum())
    if len(trace):
        result.duration_cycles = int(trace.time[-1] - trace.time[0])
    if onpkg:
        result.onpkg_accesses = len(trace)
        result.onpkg_row_hit_rate = controller.model.device.row_hit_rate
    else:
        result.offpkg_accesses = len(trace)
        result.offpkg_row_hit_rate = controller.model.device.row_hit_rate
    return result
