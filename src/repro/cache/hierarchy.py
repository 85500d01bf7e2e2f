"""The L1/L2/L3 hierarchy of Table II, driven by stack-distance analytics.

For an inclusive LRU hierarchy with one line size, an access hits level k
iff its stack distance is below level k's capacity — so a single profile
yields every level's hit rate *and* the post-LLC main-memory stream
(what the paper's COTSon traces contain).

The per-set reference model (:mod:`repro.cache.sets`) cross-validates
the stack-distance profile on small streams in
``tests/test_cache.py::TestStackDistance::test_matches_fully_associative_cache``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import CacheHierarchyConfig
from ..trace.record import TraceChunk
from .stackdist import StackDistanceProfile


@dataclass(frozen=True)
class HierarchyStats:
    """Per-level hit fractions of one reference stream."""

    n_accesses: int
    l1_hit: float
    l2_hit: float
    l3_hit: float

    @property
    def memory_fraction(self) -> float:
        """Fraction of references that reach main memory."""
        return max(0.0, 1.0 - self.l1_hit - self.l2_hit - self.l3_hit)


class CacheHierarchy:
    """Analytic inclusive hierarchy over a stack-distance profile."""

    def __init__(self, config: CacheHierarchyConfig | None = None):
        self.config = config or CacheHierarchyConfig()

    def analyze(self, profile: StackDistanceProfile) -> HierarchyStats:
        cfg = self.config
        # private L1/L2 capacities are per-core; the shared stream model
        # treats them at aggregate capacity (n_cores x private size),
        # the standard multiprogrammed approximation.
        l1_c = cfg.l1.capacity_bytes * cfg.n_cores
        l2_c = cfg.l2.capacity_bytes * cfg.n_cores
        l3_c = cfg.l3.capacity_bytes
        m1 = profile.miss_rate(l1_c)
        m2 = profile.miss_rate(l2_c)
        m3 = profile.miss_rate(l3_c)
        return HierarchyStats(
            n_accesses=profile.n,
            l1_hit=1.0 - m1,
            l2_hit=max(0.0, m1 - m2),
            l3_hit=max(0.0, m2 - m3),
        )

    def memory_trace(self, chunk: TraceChunk, profile: StackDistanceProfile | None = None) -> TraceChunk:
        """Filter a CPU reference stream to the post-LLC memory stream."""
        if profile is None:
            profile = StackDistanceProfile(chunk.addr, self.config.l3.line_bytes)
        mask = profile.miss_mask(self.config.l3.capacity_bytes)
        return TraceChunk(np.ascontiguousarray(chunk.records[mask]), validate=False)

    def amat_cycles(
        self,
        profile: StackDistanceProfile,
        memory_latency_cycles: float,
    ) -> float:
        """Average memory access time with the given main-memory latency."""
        cfg = self.config
        stats = self.analyze(profile)
        return (
            cfg.l1.latency_cycles
            + (1.0 - stats.l1_hit) * cfg.l2.latency_cycles
            + (1.0 - stats.l1_hit - stats.l2_hit) * cfg.l3.latency_cycles
            + stats.memory_fraction * memory_latency_cycles
        )
