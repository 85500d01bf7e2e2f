"""Round-robin tenant front-end: many traces, one controller stream.

The scheduler owns admission/departure timing and the interleave; it
deliberately knows nothing about page windows or the translation table.
It deals exclusively in *tenant-virtual* chunks — address rewriting is
the admitted :class:`~repro.tenancy.domain.TenantDomain`'s job — so the
events it yields are a pure schedule:

* :class:`AdmitEvent` — a tenant's ``arrive_epoch`` has come; the
  consumer must allocate its window before the first chunk;
* :class:`ChunkEvent` — one scheduling quantum of one tenant's trace
  (one swap interval of accesses), timestamps rebased onto the shared
  controller clock;
* :class:`DepartEvent` — the tenant's trace is exhausted or its
  ``depart_epoch`` passed; the consumer reclaims its state.

Time rebasing shifts a chunk forward only when the shared clock has
run past the chunk's native start (``shift = max(0, clock - t0)``). A
single tenant therefore gets shift 0 on every chunk — its stream
reaches the simulator untouched, which is half of the single-tenant
bit-identity guarantee (the other half is the zero-base window).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import TenancyError
from ..trace.record import TraceChunk, make_chunk
from .domain import TenantSpec


@dataclass(frozen=True)
class AdmitEvent:
    epoch: int
    tenant_id: int
    spec: TenantSpec


@dataclass(frozen=True)
class ChunkEvent:
    epoch: int
    tenant_id: int
    #: tenant-virtual chunk, timestamps already on the shared clock
    chunk: TraceChunk
    #: accesses of this tenant's trace consumed so far (solo baselines)
    consumed: int


@dataclass(frozen=True)
class DepartEvent:
    epoch: int
    tenant_id: int


class _Entry:
    __slots__ = ("spec", "trace", "cursor")

    def __init__(self, spec: TenantSpec, trace: TraceChunk):
        self.spec = spec
        self.trace = trace
        self.cursor = 0


class TenantScheduler:
    """Interleave tenant traces into one tagged, time-ordered stream."""

    def __init__(self, swap_interval: int):
        if swap_interval <= 0:
            raise TenancyError("swap_interval must be positive")
        self.swap_interval = swap_interval
        self.epoch = 0
        self.clock = 0
        self._pending: list[_Entry] = []
        self._active: deque[_Entry] = deque()

    def add(self, spec: TenantSpec, trace: TraceChunk) -> None:
        """Register a tenant workload (before or during iteration)."""
        known = [e.spec.tenant_id for e in self._pending] + [
            e.spec.tenant_id for e in self._active
        ]
        if spec.tenant_id in known:
            raise TenancyError(f"tenant {spec.tenant_id} already scheduled")
        self._pending.append(_Entry(spec, trace))
        self._pending.sort(key=lambda e: e.spec.arrive_epoch)

    def schedule(self):
        """Yield Admit/Chunk/Depart events until every tenant is done."""
        while self._pending or self._active:
            if not self._active:
                # idle gap: jump the epoch clock to the next arrival
                self.epoch = max(self.epoch, self._pending[0].spec.arrive_epoch)
            while self._pending and self._pending[0].spec.arrive_epoch <= self.epoch:
                entry = self._pending.pop(0)
                self._active.append(entry)
                yield AdmitEvent(self.epoch, entry.spec.tenant_id, entry.spec)
            if not self._active:
                continue
            entry = self._active.popleft()
            spec = entry.spec
            if spec.depart_epoch is not None and self.epoch >= spec.depart_epoch:
                yield DepartEvent(self.epoch, spec.tenant_id)
                continue
            view = entry.trace[entry.cursor : entry.cursor + self.swap_interval]
            if len(view) == 0:
                yield DepartEvent(self.epoch, spec.tenant_id)
                continue
            shift = max(0, self.clock - int(view.time[0]))
            chunk = (
                view
                if shift == 0
                else make_chunk(
                    view.addr,
                    time=view.time + shift,
                    cpu=view.cpu,
                    rw=view.rw,
                    validate=False,
                )
            )
            entry.cursor += len(view)
            yield ChunkEvent(self.epoch, spec.tenant_id, chunk, entry.cursor)
            self.clock = int(chunk.time[-1])
            self.epoch += -(-len(view) // self.swap_interval)
            if entry.cursor >= len(entry.trace):
                yield DepartEvent(self.epoch, spec.tenant_id)
            else:
                self._active.append(entry)
