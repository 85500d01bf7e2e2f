"""Fast DRAM model: per-bank FIFO queue + open-page row hits.

Per bank, request *i* departs at ``D_i = max(a_i, D_{i-1}) + s_i`` with
service time ``s_i`` (row hit or conflict, decided in arrival order
against the previous request's row). The compiled kernel
(``flush_regions`` in ``fifo_kernel.c``, loaded by
:mod:`repro.dram.kernel`) runs that recursion in one pass per call with
per-queue state, for one device here and for both regions of the
controller's flush at once
(:meth:`~repro.memctrl.heterogeneous.HeterogeneousController.service_resolved`);
``tests/fastmodel_reference.py`` keeps the former vectorised numpy
formulation as its exactness oracle. The FIFO order (instead of
FR-FCFS's hit-first reordering) slightly *underestimates* row-hit rates
under load; ``tests/test_dram.py::TestDeviceCrossValidation`` bounds the
disagreement against the event-driven reference.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import SimulationError
from . import kernel
from .timing import DramGeometry

_ONE_SEGMENT = np.zeros(1, dtype=np.int64)


class FastDevice:
    """Open-page FIFO DRAM region model."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self.row_hits = 0
        self.row_conflicts = 0
        # persistent per-queue state so successive chunks continue seamlessly
        nq = geometry.n_queues
        self._open_row = np.full(nq, -1, dtype=np.int64)
        self._ready = np.zeros(nq, dtype=np.int64)

    def reset(self) -> None:
        self._open_row[:] = -1
        self._ready[:] = 0
        self.row_hits = 0
        self.row_conflicts = 0

    def region(self, base: int = 0, shift: int = 0, overhead: int = 0) -> list[int]:
        """This device's row of a :func:`~repro.dram.kernel.flush_regions`
        region table: local address ``(page - base) << shift | offset``,
        ``overhead`` cycles added to every latency. With refresh enabled
        the whole recursion (the persistent ``_ready`` carry included)
        runs on the refresh warp's useful clock, and wall latencies are
        recovered per access."""
        geo, t = self.geometry, self.geometry.timing
        return [
            base, shift, overhead, t.n_channels, t.n_banks, geo.row_bytes.bit_length() - 1,
            t.hit_cycles, t.miss_cycles, t.max_queue_wait,
            t.refresh_interval, t.refresh_cycles if t.refresh_interval else 0,
        ]

    @cached_property
    def _region(self) -> np.ndarray:
        return np.array([self.region()], dtype=np.int64)

    def service(self, addr: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """Per-access latency (cycles), aligned with the input order."""
        arrivals = np.asarray(arrivals, dtype=np.int64)
        if np.any(arrivals[1:] < arrivals[:-1]):
            raise SimulationError("arrivals must be non-decreasing")
        return self.service_segmented(addr, arrivals, _ONE_SEGMENT)

    def service_segmented(
        self, addr: np.ndarray, arrivals: np.ndarray, seg_starts: np.ndarray
    ) -> np.ndarray:
        """Many consecutive :meth:`service` calls fused into one.

        **Bit-identical** to calling ``service`` once per segment
        ``[seg_starts[i], seg_starts[i+1])`` in order (the fused epoch
        loop's contract): the kernel's pass is that sequence by
        definition. At each segment end every queue the segment touched
        carries ``min(depart, arrival + cap)`` of its last access into
        the next segment, whether or not the cap binds. ``arrivals``
        must be non-decreasing across the whole call; unlike
        :meth:`service` this is not re-checked (the epoch loop already
        checks time order once per chunk). A rejected call leaves the
        device as it was.
        """
        return kernel.flush_regions(
            (self,), self._region, None, addr, None, arrivals, seg_starts, None
        )

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_conflicts
        return self.row_hits / total if total else 0.0
