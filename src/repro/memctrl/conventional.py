"""Fig 2: the conventional on-chip DRAM memory controller.

Transactions are scheduled against a single (off-package) memory system;
address translation to channel/rank/bank/row indices happens *after*
scheduling. Used for the baseline (all memory off-package) and the
all-on-package ideal (by handing it the on-package latency model).
"""

from __future__ import annotations

import numpy as np

from ..config import LatencyComponents, DramTiming, offpkg_dram_timing
from ..dram.latency import LatencyModel
from ..trace.record import TraceChunk


class ConventionalController:
    """A single-region memory controller."""

    def __init__(
        self,
        components: LatencyComponents | None = None,
        timing: DramTiming | None = None,
        *,
        onpkg: bool = False,
    ):
        self.model = LatencyModel(
            components or LatencyComponents(),
            timing or offpkg_dram_timing(),
            onpkg=onpkg,
        )
        self.accesses = 0
        self.total_latency = 0

    def service_chunk(self, chunk: TraceChunk) -> np.ndarray:
        """Per-access latency for one time-ordered chunk."""
        latency = self.model.access_latency(chunk.addr, chunk.time)
        self.accesses += len(chunk)
        self.total_latency += int(latency.sum())
        return latency

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0
