"""Patrol-scrub scheduling: which frames to read, and when.

A patrol scrubber walks the on-package frames in the background,
reading every sub-block so ECC gets a chance to see (and the telemetry
to count) latent errors in rows the demand stream never touches. This
module is pure scheduling — the RAS controller issues the actual reads
through the on-package FIFO device (:class:`~repro.dram.fastmodel.FastDevice`,
via :meth:`~repro.dram.latency.LatencyModel.access_latency`), so
scrub-vs-demand contention is charged like any other background traffic.
"""

from __future__ import annotations

import numpy as np

from ..units import KB

#: one scrub read covers this many bytes of a frame
SCRUB_STRIDE_BYTES = 4 * KB


class PatrolScrubber:
    """Round-robin scrub cursor over the usable on-package frames."""

    def __init__(
        self,
        n_frames: int,
        *,
        interval_epochs: int,
        frames_per_pass: int,
        page_bytes: int,
    ):
        self.n_frames = int(n_frames)
        self.interval_epochs = int(interval_epochs)
        self.frames_per_pass = int(frames_per_pass)
        #: reads needed to cover one frame at the scrub stride
        self.reads_per_frame = max(1, page_bytes // SCRUB_STRIDE_BYTES)
        #: next frame id the cursor would scrub (skips retired frames)
        self.cursor = 0
        self.passes = 0
        self.reads = 0
        self.cycles = 0
        #: frame -> latent CE count parked there by SCRUB_LATENT faults;
        #: only a scrub pass over the frame surfaces them
        self.latent: dict[int, int] = {}

    def due(self, epoch_index: int) -> bool:
        return (
            self.interval_epochs > 0
            and (epoch_index + 1) % self.interval_epochs == 0
        )

    def plant_latent(self, frame: int, count: int = 1) -> None:
        self.latent[frame] = self.latent.get(frame, 0) + count

    def next_frames(self, usable: np.ndarray) -> list[int]:
        """The frames this pass covers, advancing the cursor.

        ``usable`` is the sorted array of non-retired frame ids; the
        cursor keeps its absolute position so retiring a frame mid-run
        just drops it from the rotation.
        """
        if usable.size == 0:
            return []
        k = min(self.frames_per_pass, int(usable.size))
        start = int(np.searchsorted(usable, self.cursor)) % usable.size
        frames = [int(usable[(start + i) % usable.size]) for i in range(k)]
        self.cursor = (frames[-1] + 1) % self.n_frames
        return frames

    def collect_latents(self, frames: list[int]) -> list[int]:
        """Latent CEs surfaced by scrubbing ``frames``, one count per
        frame in ``frames`` order (removed here)."""
        return [self.latent.pop(f, 0) for f in frames]
