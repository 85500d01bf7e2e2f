"""The heterogeneous main memory system (the paper's contribution).

:class:`~repro.core.simulator.EpochSimulator` (public name
:data:`~repro.core.hetero_memory.HeterogeneousMainMemory`) is the
system: configure geometry + migration policy, feed it a memory trace,
get latency/traffic/power metrics. It drives the heterogeneity-aware
controller and the migration engine epoch by epoch (vectorised);
:class:`~repro.core.detailed.DetailedSimulator` is the per-access
reference implementation with the exact clock/multi-queue hardware
policies.
"""

from .metrics import EffectivenessReport, effectiveness
from .simulator import EpochSimulator, SimulationResult
from .detailed import DetailedSimulator
from .hetero_memory import BaselineKind, HeterogeneousMainMemory, baseline_latency

__all__ = [
    "EpochSimulator",
    "SimulationResult",
    "DetailedSimulator",
    "HeterogeneousMainMemory",
    "BaselineKind",
    "baseline_latency",
    "effectiveness",
    "EffectivenessReport",
]
