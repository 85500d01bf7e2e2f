"""Event-driven FR-FCFS scheduler (Rixner et al. [11]) — reference model.

Banks are independent servers, so FR-FCFS is simulated per bank: among
all requests that have *arrived* when the bank becomes free, first-ready
(row hits to the open row) win, ties broken oldest-first; if no request
hits, the oldest pending request is chosen. Channel-bus serialisation is
folded into the per-access ``io_cycles`` (documented approximation —
DESIGN.md §2).

This model is O(pending) per request in Python and intended for small
traces: unit tests and cross-validation of :class:`FastDevice`.
"""

from __future__ import annotations

import numpy as np

from ..config import DramTiming
from ..errors import SimulationError
from .bank import Bank
from .timing import DramGeometry


class FRFCFSScheduler:
    """FR-FCFS service of one bank's request stream."""

    def __init__(self, timing: DramTiming):
        self.timing = timing

    def service(
        self, rows: np.ndarray, arrivals: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Service requests for ONE bank.

        Parameters are in arrival order; returns ``(start, finish,
        row_hit)`` arrays aligned with the input order.
        """
        n = rows.shape[0]
        if arrivals.shape[0] != n:
            raise SimulationError("rows and arrivals must align")
        if n and np.any(arrivals[1:] < arrivals[:-1]):
            raise SimulationError("arrivals must be non-decreasing")
        start = np.zeros(n, dtype=np.int64)
        finish = np.zeros(n, dtype=np.int64)
        hit = np.zeros(n, dtype=bool)
        bank = Bank(self.timing)

        pending: list[int] = []          # indices awaiting service
        next_idx = 0                     # next not-yet-arrived request
        done = 0
        while done < n:
            # admit everything that has arrived by the bank's free time
            horizon = bank.ready_time
            while next_idx < n and arrivals[next_idx] <= horizon:
                pending.append(next_idx)
                next_idx += 1
            if not pending:
                # bank idle: jump to the next arrival
                pending.append(next_idx)
                next_idx += 1
            # first-ready: oldest row hit, else oldest overall
            chosen = None
            for idx in pending:
                if bank.would_hit(int(rows[idx])):
                    chosen = idx
                    break
            if chosen is None:
                chosen = pending[0]
            pending.remove(chosen)
            s, f, h = bank.access(int(rows[chosen]), int(arrivals[chosen]))
            start[chosen], finish[chosen], hit[chosen] = s, f, h
            done += 1
        return start, finish, hit


class EventDrivenDevice:
    """A DRAM region (all channels x banks) under FR-FCFS scheduling."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self._scheduler = FRFCFSScheduler(geometry.timing)
        self.row_hits = 0
        self.row_conflicts = 0

    def service(self, addr: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """Per-access latency (finish - arrival) in core cycles.

        ``addr``/``arrivals`` must be in non-decreasing arrival order.
        """
        addr = np.asarray(addr, dtype=np.int64)
        arrivals = np.asarray(arrivals, dtype=np.int64)
        if addr.shape != arrivals.shape:
            raise SimulationError("addr and arrivals must align")
        n = addr.shape[0]
        latency = np.zeros(n, dtype=np.int64)
        if n == 0:
            return latency
        queues = self.geometry.queue_of(addr)
        rows = self.geometry.rows_of(addr)
        for q in np.unique(queues):
            sel = np.flatnonzero(queues == q)
            _, finish, hit = self._scheduler.service(rows[sel], arrivals[sel])
            latency[sel] = finish - arrivals[sel]
            nh = int(hit.sum())
            self.row_hits += nh
            self.row_conflicts += hit.shape[0] - nh
        return latency

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_conflicts
        return self.row_hits / total if total else 0.0
