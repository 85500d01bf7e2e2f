"""Tenant translation domains over one on-chip controller.

The paper's controller assumes a single OS image owning the whole
physical space and one translation table. Virtualization-scale serving
multiplexes many tenants through the same on-package tier, so this
module partitions the *physical page* space (the table's left column)
into contiguous per-tenant windows:

* :class:`TenantSpec` — the static description of one tenant (footprint,
  QoS weight, arrival/departure epochs);
* :class:`TenantDomain` — one admitted tenant: a base page plus a
  virtual->physical address rewrite for its trace chunks;
* :class:`TenantRegistry` — first-fit window allocator with hole
  merging, so churned-out windows are reusable by later arrivals, and
  vectorised page->tenant ownership lookups for the QoS policies.

Machine-frame placement (which window pages currently sit on-package)
stays entirely the migration engine's business; the registry only ever
talks about physical page ids, which is what keeps the single-tenant
path bit-identical to a plain :class:`~repro.core.simulator.EpochSimulator`
run: a tenant based at page 0 gets its chunks back untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TenancyError
from ..migration.table import TranslationTable
from ..trace.record import TraceChunk, make_chunk


@dataclass(frozen=True)
class TenantSpec:
    """Static description of one tenant workload."""

    tenant_id: int
    name: str
    #: footprint in macro pages (the unit the translation table manages)
    n_pages: int
    #: share weight for the proportional-share QoS policy
    weight: float = 1.0
    #: scheduler epoch at which the tenant arrives
    arrive_epoch: int = 0
    #: scheduler epoch at which the tenant is evicted (None = runs its
    #: trace to exhaustion)
    depart_epoch: int | None = None

    def __post_init__(self):
        if self.n_pages <= 0:
            raise TenancyError(f"tenant {self.tenant_id}: n_pages must be positive")
        if self.weight <= 0:
            raise TenancyError(f"tenant {self.tenant_id}: weight must be positive")


class TenantDomain:
    """One admitted tenant: a contiguous physical page window.

    The tenant addresses a private virtual space
    ``[0, n_pages * macro_page_bytes)``; :meth:`translate` rewrites a
    chunk into the window. A domain based at page 0 returns the chunk
    object unchanged — zero-copy, and the anchor of the single-tenant
    bit-identity guarantee.
    """

    def __init__(self, spec: TenantSpec, base_page: int, amap):
        self.spec = spec
        self.base_page = base_page
        self.amap = amap
        self.n_pages = spec.n_pages
        self.footprint_bytes = spec.n_pages * amap.macro_page_bytes

    @property
    def tenant_id(self) -> int:
        return self.spec.tenant_id

    @property
    def pages(self) -> np.ndarray:
        """The physical pages of this tenant's window."""
        return np.arange(
            self.base_page, self.base_page + self.n_pages, dtype=np.int64
        )

    def translate(self, chunk: TraceChunk) -> TraceChunk:
        """Rewrite a tenant-virtual chunk into the physical window."""
        if len(chunk) == 0:
            return chunk
        lo = int(chunk.addr.min())
        hi = int(chunk.addr.max())
        if lo < 0 or hi >= self.footprint_bytes:
            raise TenancyError(
                f"tenant {self.tenant_id}: trace addresses "
                f"[{lo}, {hi}] exceed the declared footprint of "
                f"{self.n_pages} pages ({self.footprint_bytes} bytes)"
            )
        if self.base_page == 0:
            return chunk
        return make_chunk(
            chunk.addr + self.base_page * self.amap.macro_page_bytes,
            time=chunk.time,
            cpu=chunk.cpu,
            rw=chunk.rw,
            validate=False,
        )

    def __repr__(self) -> str:
        return (
            f"TenantDomain(id={self.tenant_id}, name={self.spec.name!r}, "
            f"pages=[{self.base_page}..{self.base_page + self.n_pages}))"
        )


class TenantRegistry:
    """First-fit allocator of physical page windows.

    Windows live in ``[0, limit)`` where ``limit`` excludes the ghost
    page Ω and any RAS spare pages — tenants can never be handed pages
    outside the data address space. Freed windows merge back into the
    hole list so a later arrival of the same footprint is guaranteed to
    fit (reclaimed-slots-reusable is a tested invariant).
    """

    def __init__(self, table: TranslationTable):
        self.amap = table.amap
        self.limit = (
            min(table.reserved_pages)
            if table.reserved_pages
            else self.amap.ghost_page
        )
        self.domains: dict[int, TenantDomain] = {}
        #: bumped on every admit/release; QoS policies key their quota
        #: caches on it
        self.version = 0
        #: free [start, end) windows, sorted, non-adjacent
        self._holes: list[tuple[int, int]] = [(0, self.limit)]
        self._lookup_version = -1
        self._bases = np.zeros(0, dtype=np.int64)
        self._ends = np.zeros(0, dtype=np.int64)
        self._ids = np.zeros(0, dtype=np.int64)

    @property
    def free_pages(self) -> int:
        return sum(e - s for s, e in self._holes)

    def admit(self, spec: TenantSpec) -> TenantDomain:
        """Allocate the first window that fits ``spec.n_pages``."""
        if spec.tenant_id in self.domains:
            raise TenancyError(f"tenant {spec.tenant_id} is already admitted")
        for i, (start, end) in enumerate(self._holes):
            if end - start >= spec.n_pages:
                carved = start + spec.n_pages
                if carved == end:
                    del self._holes[i]
                else:
                    self._holes[i] = (carved, end)
                domain = TenantDomain(spec, start, self.amap)
                self.domains[spec.tenant_id] = domain
                self.version += 1
                return domain
        raise TenancyError(
            f"tenant {spec.tenant_id}: no contiguous window of "
            f"{spec.n_pages} pages free ({self.free_pages} pages in "
            f"{len(self._holes)} fragments)"
        )

    def release(self, tenant_id: int) -> TenantDomain:
        """Return a tenant's window to the hole list (merging neighbours)."""
        domain = self.domains.pop(tenant_id, None)
        if domain is None:
            raise TenancyError(f"tenant {tenant_id} is not admitted")
        start, end = domain.base_page, domain.base_page + domain.n_pages
        self._holes.append((start, end))
        self._holes.sort()
        merged: list[tuple[int, int]] = []
        for s, e in self._holes:
            if merged and s <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], e))
            else:
                merged.append((s, e))
        self._holes = merged
        self.version += 1
        return domain

    # ------------------------------------------------------------------
    # ownership lookups (QoS policies, isolation oracle)
    # ------------------------------------------------------------------
    def _refresh_lookup(self) -> None:
        if self._lookup_version == self.version:
            return
        domains = sorted(self.domains.values(), key=lambda d: d.base_page)
        self._bases = np.array([d.base_page for d in domains], dtype=np.int64)
        self._ends = np.array(
            [d.base_page + d.n_pages for d in domains], dtype=np.int64
        )
        self._ids = np.array([d.tenant_id for d in domains], dtype=np.int64)
        self._lookup_version = self.version

    def tenant_of_pages(self, pages: np.ndarray) -> np.ndarray:
        """Vectorised page -> tenant id (-1 for unowned pages)."""
        self._refresh_lookup()
        pages = np.asarray(pages, dtype=np.int64)
        out = np.full(pages.shape, -1, dtype=np.int64)
        if self._bases.size == 0 or pages.size == 0:
            return out
        idx = np.searchsorted(self._bases, pages, side="right") - 1
        valid = idx >= 0
        hit = np.zeros(pages.shape, dtype=bool)
        hit[valid] = pages[valid] < self._ends[idx[valid]]
        out[hit] = self._ids[idx[hit]]
        return out

    def owner_of(self, page: int) -> int | None:
        """Tenant id owning ``page``, or None."""
        owner = int(self.tenant_of_pages(np.array([page]))[0])
        return None if owner < 0 else owner
