"""A simple blocking core for functional trace replay.

Complements the analytic :mod:`repro.cpu.system` model: replays a
reference stream through functional caches (per-set LRU) and charges
latencies access by access. Used by tests to sanity-check the analytic
AMAT against a mechanical simulation on small streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cache.sets import SetAssociativeCache
from ..config import CacheHierarchyConfig
from ..errors import SimulationError


@dataclass
class CoreStats:
    references: int = 0
    cycles: float = 0.0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    memory_accesses: int = 0

    @property
    def amat(self) -> float:
        return self.cycles / self.references if self.references else 0.0


class BlockingCore:
    """One core, three cache levels, blocking on every access.

    Oracle for the stack-distance AMAT of
    :class:`~repro.cache.hierarchy.CacheHierarchy`, which
    :class:`~repro.cpu.system.IpcModel` prices stalls with: the
    mechanical replay it is checked against. No experiment runs it.
    """

    def __init__(self, caches: CacheHierarchyConfig, memory_latency: float):
        if memory_latency < 0:
            raise SimulationError("memory latency must be non-negative")
        self.caches = caches
        self.l1 = SetAssociativeCache(caches.l1)
        self.l2 = SetAssociativeCache(caches.l2)
        self.l3 = SetAssociativeCache(caches.l3)
        self.memory_latency = memory_latency
        self.stats = CoreStats()

    def access(self, addr: int) -> float:
        """Charge one reference; returns its latency in cycles."""
        c = self.caches
        s = self.stats
        s.references += 1
        latency = float(c.l1.latency_cycles)
        if self.l1.access(addr):
            s.l1_hits += 1
        else:
            latency += c.l2.latency_cycles
            if self.l2.access(addr):
                s.l2_hits += 1
            else:
                latency += c.l3.latency_cycles
                if self.l3.access(addr):
                    s.l3_hits += 1
                else:
                    latency += self.memory_latency
                    s.memory_accesses += 1
        s.cycles += latency
        return latency

    def run(self, addresses: np.ndarray) -> CoreStats:
        for a in np.asarray(addresses, dtype=np.int64):
            self.access(int(a))
        return self.stats
