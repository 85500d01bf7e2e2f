"""Per-tenant attribution of controller and migration work.

The multi-tenant simulator snapshots the run result's totals around
every tenant chunk; the deltas accumulate here, so the tenants' totals
sum to the run's (ECC, RAS and disturbance cycles included).
``solo_average_latency`` is filled by the opt-in solo-baseline pass (the
same trace prefix run alone on a fresh simulator), which anchors the two
interference figures:

* **slowdown** — shared-run average latency over solo average latency;
* **interference index** — ``max(0, slowdown - 1)``: the fraction of
  every access the tenant pays for its noisy neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TenantMetrics:
    """One tenant's share of a multi-tenant run."""

    tenant_id: int
    name: str
    arrived_epoch: int = 0
    departed_epoch: int | None = None
    accesses: int = 0
    total_latency: int = 0
    onpkg_accesses: int = 0
    offpkg_accesses: int = 0
    swaps_triggered: int = 0
    migrated_bytes: int = 0
    chunks: int = 0
    #: accesses of the tenant's own trace consumed (solo-baseline prefix)
    consumed: int = 0
    solo_average_latency: float | None = field(default=None)

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of the tenant's accesses served on-package."""
        return self.onpkg_accesses / self.accesses if self.accesses else 0.0

    @property
    def slowdown(self) -> float | None:
        """Shared-run vs solo average latency (None without a baseline)."""
        if self.solo_average_latency is None or self.solo_average_latency <= 0:
            return None
        return self.average_latency / self.solo_average_latency

    @property
    def interference_index(self) -> float | None:
        """Noisy-neighbour tax: ``max(0, slowdown - 1)``."""
        s = self.slowdown
        return None if s is None else max(0.0, s - 1.0)
