"""Fast DRAM model: per-bank FIFO queue + open-page row hits.

Per bank, request *i* departs at ``D_i = max(a_i, D_{i-1}) + s_i`` with
service time ``s_i`` (row hit or conflict, decided in arrival order
against the previous request's row). The compiled kernel
(``fifo_kernel.c``, loaded by :mod:`repro.dram.kernel`) runs that
recursion in one pass per call with per-queue state;
``tests/fastmodel_reference.py`` keeps the former vectorised numpy
formulation as its exactness oracle. The FIFO order (instead of
FR-FCFS's hit-first reordering) slightly *underestimates* row-hit rates
under load; ``tests/test_dram.py::TestDeviceCrossValidation`` bounds the
disagreement against the event-driven reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from . import kernel
from .refresh import RefreshSchedule
from .timing import DramGeometry

_ONE_SEGMENT = np.zeros(1, dtype=np.int64)


class FastDevice:
    """Open-page FIFO DRAM region model."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self.row_hits = 0
        self.row_conflicts = 0
        #: with refresh enabled, the whole recursion (including the
        #: persistent ``_ready`` carry) runs on the warp's useful clock;
        #: wall latencies are recovered at the end of each pass
        self._refresh = RefreshSchedule.from_timing(geometry.timing)
        # persistent per-queue state so successive chunks continue seamlessly
        nq = geometry.n_queues
        self._open_row = np.full(nq, -1, dtype=np.int64)
        self._ready = np.zeros(nq, dtype=np.int64)

    def reset(self) -> None:
        self._open_row[:] = -1
        self._ready[:] = 0
        self.row_hits = 0
        self.row_conflicts = 0

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
        addr = np.asarray(addr, dtype=np.int64)
        arrivals = np.asarray(arrivals, dtype=np.int64)
        if addr.shape != arrivals.shape:
            raise SimulationError("addr and arrivals must align")
        if addr.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        seg_starts = np.asarray(seg_starts, dtype=np.int64)
        if seg_starts.size == 0 or seg_starts[0] != 0:
            raise SimulationError("seg_starts must begin with 0")
        wall_arrivals = None
        if self._refresh is not None:
            # run the whole recursion on the useful clock: refresh
            # windows vanish from the timeline, so a request queued or
            # mid-service across a tREFI boundary is suspended for tRFC
            # exactly like the event-driven Bank model. The warp is a
            # pure function of global time, so it commutes with segment
            # boundaries and the fused-exactness contract is unchanged.
            wall_arrivals = arrivals  # repro-domain: wall_cycles - pre-warp instants
            arrivals = self._refresh.useful_np(arrivals)
        queues, rows = self.geometry.queues_and_rows(addr)
        timing = self.geometry.timing
        latency, hits, self._open_row, self._ready = kernel.fifo_service(
            queues, rows, arrivals, seg_starts, self._open_row, self._ready,
            timing.hit_cycles, timing.miss_cycles, timing.max_queue_wait,
        )
        self.row_hits += hits
        self.row_conflicts += latency.size - hits

        if wall_arrivals is not None:
            # useful-domain departure -> wall clock: every refresh
            # window overlapped by the wait or the service shows up in
            # the reported latency
            latency += arrivals  # repro-domain: useful_cycles - capped departures, input order
            latency = self._refresh.wall_np(latency)
            latency -= wall_arrivals
        return latency

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_conflicts
        return self.row_hits / total if total else 0.0
