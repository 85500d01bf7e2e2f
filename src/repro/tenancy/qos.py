"""On-package capacity partitioning (QoS) policies.

The migration engine consults one :class:`CapacityPolicy` (its ``qos``
hook) at every swap-trigger evaluation. The policy sees the candidate
promotion (the hottest off-package page) and answers with an
**exclusion set** of slots the demotion victim must avoid: at its quota
a tenant may only displace one of its *own* promoted pages, so its
on-package footprint cannot grow at a neighbour's expense. When every
slot is excluded the promotion is suppressed this epoch and counted in
``swaps_suppressed_qos``.

Accounting unit: a tenant "uses" an on-package slot when the slot holds
one of its promoted off-package-home pages (``pair[s] >= n_slots`` and
the page is in the tenant's window). Identity-resident home pages of a
window that happens to cover the on-package tier are free — they are
the paper's baseline mapping, not capacity the tenant won through
migration — which makes a single full-space tenant structurally
unconstrained and keeps the bit-identity guarantee.

The policy: :class:`ProportionalSharePolicy` (weights split the usable
slots, at least one each).
"""

from __future__ import annotations

import numpy as np

from .domain import TenantRegistry


class CapacityPolicy:
    """Base class: quota bookkeeping + the engine-facing ``constrain``."""

    def __init__(self):
        self.registry: TenantRegistry | None = None
        self.table = None
        self._quota_cache: dict[int, int] = {}
        self._quota_key: int | None = None

    def bind(self, registry: TenantRegistry, table) -> None:
        """Attach to a run (MultiTenantSimulator calls this once)."""
        self.registry = registry
        self.table = table

    def capacity(self) -> int:
        """Slots the policies may hand out: usable minus the reserved
        EMPTY slot of the N-1/live designs."""
        reserve = 1 if self.table._reserve_empty_slot else 0
        return max(0, self.table.n_usable_slots - reserve)

    # -- quota computation (cached on the registry version) -------------
    def quotas(self) -> dict[int, int]:
        if self.registry.version != self._quota_key:
            self._quota_cache = self._compute_quotas()
            self._quota_key = self.registry.version
        return self._quota_cache

    def _compute_quotas(self) -> dict[int, int]:
        raise NotImplementedError

    # -- live usage from the translation table --------------------------
    def _transposition_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, owners)`` of slots holding promoted off-home pages."""
        pair = self.table.pair
        slots = np.flatnonzero((pair >= self.table.n_slots) & ~self.table.retired)
        owners = self.registry.tenant_of_pages(pair[slots])
        return slots, owners

    def usage(self) -> dict[int, int]:
        """Per-tenant count of on-package slots holding promoted pages."""
        _, owners = self._transposition_slots()
        ids, counts = np.unique(owners[owners >= 0], return_counts=True)
        return dict(zip(ids.tolist(), counts.tolist()))

    def constrain(self, mru_page: int) -> set[int]:
        """Engine hook: the slots the demotion victim must avoid."""
        if mru_page < self.table.n_slots:
            # home restoration: the page is returning to its baseline
            # slot, which frees a promoted page's frame — never charged
            return set()
        owner = self.registry.owner_of(mru_page)
        if owner is None:
            return set()
        quota = self.quotas()[owner]
        slots, owners = self._transposition_slots()
        own = slots[owners == owner]
        if own.shape[0] < quota:
            return set()
        # at (or, after a quota re-split, above) cap: the swap may only
        # displace one of the tenant's own promoted pages — net zero
        return set(range(self.table.n_slots)) - set(own.tolist())


class ProportionalSharePolicy(CapacityPolicy):
    """Weights split the usable slots; every tenant gets at least one."""

    def _compute_quotas(self) -> dict[int, int]:
        domains = list(self.registry.domains.values())
        if not domains:
            return {}
        total_w = sum(d.spec.weight for d in domains)
        cap = self.capacity()
        return {
            d.tenant_id: max(1, int(cap * d.spec.weight / total_w))
            for d in domains
        }

