"""The paper's tags-in-DRAM L4 cache model (Section II).

Commodity on-package DRAM has no tag arrays, so the paper implements a
15-way set-associative cache inside a 16-way data layout: each DRAM row
holds 1 tag line + 15 data lines. A lookup reads the tag line first,
then (on a hit) the data line — **two sequential DRAM accesses**, making
the hit latency ~2x the on-package DRAM access time and the miss
determination ~1x before the request is forwarded off-package
(Table II: L4 hit 140 cycles, miss adds 70 on top of memory).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CacheLevelConfig
from ..errors import ConfigError
from .sets import SetAssociativeCache
from .stackdist import StackDistanceProfile


@dataclass(frozen=True)
class DramCacheModel:
    """Latency/capacity model of the 15-of-16-way DRAM L4 cache.

    Parameters
    ----------
    capacity_bytes:
        Raw on-package DRAM capacity (the paper's 1 GB).
    onpkg_access_cycles:
        One on-package DRAM access, path included (Table II: 70).
    data_ways:
        Data lines per set (15; the 16th line holds the tags).
    """

    capacity_bytes: int
    onpkg_access_cycles: int = 70
    data_ways: int = 15
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.onpkg_access_cycles <= 0:
            raise ConfigError("capacity and latency must be positive")
        if not 1 <= self.data_ways < self.data_ways + 1:
            raise ConfigError("data_ways must be >= 1")

    @property
    def effective_capacity_bytes(self) -> int:
        """Data capacity after giving one way per set to tags."""
        return self.capacity_bytes * self.data_ways // (self.data_ways + 1)

    @property
    def hit_cycles(self) -> int:
        """Tag access then data access — sequential (2x DRAM)."""
        return 2 * self.onpkg_access_cycles

    @property
    def miss_penalty_cycles(self) -> int:
        """Tag access that misses, before forwarding off-package (1x DRAM)."""
        return self.onpkg_access_cycles

    def miss_rate(self, profile: StackDistanceProfile) -> float:
        """LRU miss rate at the effective (15/16) capacity."""
        return profile.miss_rate(self.effective_capacity_bytes)

    def average_latency(self, profile: StackDistanceProfile, memory_latency: float) -> float:
        """AMAT contribution of the L4 for post-L3 requests."""
        m = self.miss_rate(profile)
        return (1.0 - m) * self.hit_cycles + m * (self.miss_penalty_cycles + memory_latency)

    def functional_cache(self) -> SetAssociativeCache:
        """A per-set reference simulation of the 15-way layout.

        Oracle for the layout :meth:`effective_capacity_bytes` and
        :meth:`miss_rate` assume: a functional cache with the same sets
        and 15 data ways. No experiment runs it.
        """
        sets = self.capacity_bytes // ((self.data_ways + 1) * self.line_bytes)
        cfg = CacheLevelConfig(
            capacity_bytes=sets * self.data_ways * self.line_bytes,
            ways=self.data_ways,
            latency_cycles=self.hit_cycles,
            line_bytes=self.line_bytes,
        )
        return SetAssociativeCache(cfg)
