"""Per-frame correctable-error (CE) telemetry with leaky buckets.

DRAM rows about to fail hard almost always announce themselves first as
a *cluster* of correctable errors. The controller therefore keeps one
leaky bucket per on-package frame: every CE adds to the frame's level,
every epoch leaks ``leak`` back out, and a frame whose level reaches
``threshold`` is flagged for predictive retirement. Isolated background
CEs drain away; only genuinely decaying rows cross the threshold.
"""

from __future__ import annotations

import numpy as np

#: where a CE was observed (the counters are reported separately)
SOURCES = ("demand", "scrub", "burst")


class CETelemetry:
    """Leaky-bucket CE counters over the on-package frames."""

    def __init__(self, n_frames: int, *, threshold: int, leak: float):
        self.n_frames = int(n_frames)
        self.threshold = int(threshold)
        self.leak = float(leak)
        #: current bucket level per frame (floats: the leak is fractional)
        self.level = np.zeros(self.n_frames, dtype=np.float64)
        self.ce_demand = 0
        self.ce_scrub = 0
        self.ce_burst = 0

    def record(self, frame: int, count: int = 1, *, source: str = "demand") -> None:
        """``count`` CEs observed on ``frame`` via ``source``."""
        self.level[frame] += count
        if source == "scrub":
            self.ce_scrub += count
        elif source == "burst":
            self.ce_burst += count
        else:
            self.ce_demand += count

    def decay(self) -> None:
        """One epoch's leak (call once per epoch, after threshold checks)."""
        np.maximum(self.level - self.leak, 0.0, out=self.level)

    def over_threshold(self) -> list[int]:
        """Frames whose bucket has reached the retirement threshold."""
        return [int(f) for f in np.flatnonzero(self.level >= self.threshold)]

    def reset_frame(self, frame: int) -> None:
        """Drain one frame's bucket (it was retired, or its retirement
        was suppressed and should not re-fire every epoch)."""
        self.level[frame] = 0.0

    @property
    def total(self) -> int:
        return self.ce_demand + self.ce_scrub + self.ce_burst
