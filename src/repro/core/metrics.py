"""Evaluation metrics — Section IV's effectiveness η and friends.

    η = (L_without - L_with) / (L_without - L_floor) x 100%

The paper's Table IV uses the DRAM core latency as the floor; its
abstract phrases the same number as "83% of the ideal case where all
memory can be placed in high-speed on-package memory". In our model the
all-on-package ideal *is* the reachable floor (the paper's fixed 50-cycle
core latency approximates their on-package access), so
:func:`effectiveness` takes the floor explicitly and the Table IV bench
feeds it the measured all-on-package latency. η "approximately reflects
how many memory accesses are routed to the on-package memory region".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import DramTiming
from ..errors import SimulationError


def dram_core_latency(offpkg_row_hit_rate: float, timing: DramTiming) -> float:
    """Average off-package DRAM service time at an observed row-hit mix
    (a result's ``offpkg_row_hit_rate``): the Table IV "DRAM core" row."""
    hr = offpkg_row_hit_rate
    return hr * timing.hit_cycles + (1.0 - hr) * timing.miss_cycles


@dataclass(frozen=True)
class EffectivenessReport:
    """One Table IV row."""

    workload: str
    dram_core_latency: float          # observed off-package service mix (reported)
    latency_without_migration: float
    latency_with_migration: float
    floor_latency: float              # all-on-package ideal (η denominator)

    @property
    def effectiveness(self) -> float:
        return effectiveness(
            self.latency_without_migration,
            self.latency_with_migration,
            self.floor_latency,
        )

    def row(self) -> str:
        return (
            f"{self.workload:<18} core={self.dram_core_latency:7.1f}  "
            f"w/o={self.latency_without_migration:7.1f}  "
            f"w/={self.latency_with_migration:7.1f}  "
            f"ideal={self.floor_latency:7.1f}  "
            f"η={self.effectiveness * 100:5.1f}%"
        )


def effectiveness(
    latency_without: float, latency_with: float, floor_latency: float
) -> float:
    """η: fraction of the possible (baseline -> floor) latency reduction
    achieved by migration. Can exceed 1 if migration beats the floor
    estimate — clip upstream if needed."""
    denom = latency_without - floor_latency
    if denom <= 0:
        raise SimulationError(
            "effectiveness undefined: baseline latency does not exceed the floor"
        )
    return (latency_without - latency_with) / denom

