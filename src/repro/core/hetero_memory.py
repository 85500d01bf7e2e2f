"""The public name of the heterogeneous main memory system, and its baselines.

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

from enum import Enum

from ..config import SystemConfig
from ..dram.latency import LatencyModel
from ..trace.record import TraceChunk
from .simulator import EpochSimulator, SimulationResult

#: on-package + off-package main memory with dynamic migration: a second
#: name for the epoch simulator, which is the whole system
HeterogeneousMainMemory = EpochSimulator


class BaselineKind(str, Enum):
    ALL_OFFPKG = "all-offpkg"
    ALL_ONPKG = "all-onpkg"
    STATIC = "static"


def baseline_latency(
    config: SystemConfig, trace: TraceChunk, kind: BaselineKind | str
) -> SimulationResult:
    """Run one of the three reference configurations on a trace.

    The two single-region baselines are Fig 2's conventional controller:
    one device scheduling every access, no translation.
    """
    kind = BaselineKind(kind)
    if kind is BaselineKind.STATIC:
        return EpochSimulator(config, migrate=False).run(trace)

    onpkg = kind is BaselineKind.ALL_ONPKG
    model = LatencyModel(
        config.latency, config.onpkg_dram if onpkg else config.offpkg_dram,
        onpkg=onpkg,
    )
    latency = model.access_latency(trace.addr, trace.time)
    result = SimulationResult()
    result.n_accesses = len(trace)
    result.total_latency = int(latency.sum())
    if len(trace):
        result.duration_cycles = int(trace.time[-1] - trace.time[0])
    if onpkg:
        result.onpkg_accesses = len(trace)
        result.onpkg_row_hit_rate = model.device.row_hit_rate
    else:
        result.offpkg_accesses = len(trace)
        result.offpkg_row_hit_rate = model.device.row_hit_rate
    return result
