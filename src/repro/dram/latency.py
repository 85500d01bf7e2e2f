"""Latency-path composition (Table II).

Total access latency = fixed path overhead (controller, pins, wires)
+ DRAM service time (queuing + core access, from a device model)
+ the migration layer's translation cost (added by the memory
controller, not here).

Off-package path: controller processing + 2x controller-to-core link +
2x package pin + PCB round trip. On-package path: controller processing
+ 2x controller-to-core link + 2x interposer pin + intra-package round
trip — no package pins or PCB, and queuing is nearly eliminated by the
128-bank structure (validated in
``tests/test_dram.py::TestQueuingClaims``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import DramTiming, LatencyComponents
from .fastmodel import FastDevice
from .timing import DramGeometry


@dataclass
class LatencyModel:
    """One memory region: fixed path overhead + a DRAM device model."""

    components: LatencyComponents
    timing: DramTiming
    onpkg: bool
    row_bytes: int = 8192

    def __post_init__(self) -> None:
        geometry = DramGeometry(self.timing, row_bytes=self.row_bytes)
        self.device = FastDevice(geometry)

    @property
    def path_overhead(self) -> int:
        return (
            self.components.onpkg_overhead
            if self.onpkg
            else self.components.offpkg_overhead
        )

    def access_latency(self, addr: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """Total per-access latency (cycles): overhead + queuing + DRAM."""
        return self.device.service(addr, arrivals) + self.path_overhead

    def unloaded_latency(self) -> int:
        """Latency of an isolated row-buffer-conflict access (no queuing)."""
        return self.path_overhead + self.timing.miss_cycles
