"""Open-page bank state machine.

A bank keeps one row open in its row buffer. An access to the open row
is a *row hit* (CAS only); any other row is a *conflict* (precharge +
activate + CAS). The bank services one request at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import DramTiming
from .refresh import RefreshSchedule


@dataclass
class Bank:
    """Mutable bank state used by the event-driven scheduler."""

    timing: DramTiming
    open_row: int = -1          # -1: no row open (cold)
    ready_time: int = 0         # cycle when the bank can accept work
    hits: int = field(default=0, repr=False)
    conflicts: int = field(default=0, repr=False)
    _refresh: RefreshSchedule | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._refresh = RefreshSchedule.from_timing(self.timing)

    def would_hit(self, row: int) -> bool:
        return row == self.open_row

    def service_cycles(self, row: int) -> int:
        return self.timing.hit_cycles if self.would_hit(row) else self.timing.miss_cycles

    def access(self, row: int, arrival: int) -> tuple[int, int, bool]:
        """Service one request; returns ``(start, finish, row_hit)``.

        ``start`` is when the bank begins (max of arrival and readiness);
        the bank then stays busy until ``finish``. With refresh enabled, the
        request is scheduled on the useful clock of the region's
        :class:`~repro.dram.refresh.RefreshSchedule`, so a request that
        is queued or mid-service when a tREFI window opens is suspended
        for tRFC and resumes — not just deferred on arrival.
        """
        hit = self.would_hit(row)
        service = self.timing.hit_cycles if hit else self.timing.miss_cycles
        if self._refresh is not None:
            sched = self._refresh
            arrival_u = sched.useful(arrival)  # repro-domain: useful_cycles
            start_u = max(arrival_u, sched.useful(self.ready_time))
            # finite-queue backpressure proxy, on the useful clock
            start_u = min(start_u, arrival_u + self.timing.max_queue_wait)
            start = sched.wall(start_u, begin=True)
            finish = sched.wall(start_u + service)
        else:
            start = max(arrival, self.ready_time)
            # finite-queue backpressure proxy (see DramTiming.max_queue_wait)
            start = min(start, arrival + self.timing.max_queue_wait)
            finish = start + service
        self.open_row = row
        self.ready_time = finish
        if hit:
            self.hits += 1
        else:
            self.conflicts += 1
        return start, finish, hit

    @property
    def row_hit_rate(self) -> float:
        total = self.hits + self.conflicts
        return self.hits / total if total else 0.0
