"""Cross-tenant data-flow oracle (last-writer tracking).

The :class:`~repro.datamodel.shadow.ShadowMemory` proves every read
returns the bytes last written *to that page* — but a recycled page
window passes that check even when the bytes came from a departed
tenant, because the page id and write generation still match. This
oracle closes that gap: it tracks, per 4 KB sub-block of the physical
space, **which tenant** last wrote it, and flags any read that observes
a foreign tenant's data.

The hypervisor scrub on tenant release marks the freed window
``HYPERVISOR``-owned, so a well-behaved reclamation path records zero
violations; a release without the scrub is the leak the oracle exists to
catch — the shadow memory stays clean while the oracle reports every
residue read.

The oracle is pure observation: it sees the translated (physical)
chunks before they reach the simulator and never influences a simulated
number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..units import log2_exact

#: sub-block never written by any tenant (boot state)
UNWRITTEN = -1
#: sub-block scrubbed by the hypervisor on tenant release
HYPERVISOR = -2

#: stored violation records are capped; the total count keeps growing
MAX_RECORDED = 200


@dataclass(frozen=True)
class CrossTenantViolation:
    """One read that observed another tenant's data."""

    time: int
    page: int
    subblock: int
    reader: int
    writer: int

    def format(self) -> str:
        return (
            f"t={self.time}: tenant {self.reader} read page {self.page} "
            f"sub-block {self.subblock} last written by tenant {self.writer}"
        )


class IsolationOracle:
    """Per-sub-block last-writer map over the physical address space."""

    def __init__(self, amap):
        self.amap = amap
        self.n_subblocks = amap.subblocks_per_page
        self._sb_shift = log2_exact(amap.subblock_bytes)
        #: flat [page * n_subblocks + subblock] -> last-writer tenant id
        self.writer = np.full(
            amap.n_total_pages * self.n_subblocks, UNWRITTEN, dtype=np.int64
        )
        self.violations: list[CrossTenantViolation] = []
        self.n_violations = 0
        self.reads = 0
        self.writes = 0

    def observe(self, tenant_id: int, chunk) -> None:
        """Fold one translated (physical) chunk of one tenant's accesses."""
        n = len(chunk)
        if n == 0:
            return
        cells = np.asarray(chunk.addr, dtype=np.int64) >> self._sb_shift
        w = np.asarray(chunk.rw) != 0
        pos = np.arange(n, dtype=np.int64)
        wcells = cells[w]
        self.writes += int(wcells.shape[0])
        self.reads += n - int(wcells.shape[0])
        if wcells.size:
            uniq, inverse = np.unique(wcells, return_inverse=True)
            first = np.full(uniq.shape[0], n, dtype=np.int64)
            np.minimum.at(first, inverse, pos[w])
        else:
            uniq = np.zeros(0, dtype=np.int64)
            first = np.zeros(0, dtype=np.int64)
        rcells = cells[~w]
        if rcells.size:
            owner = self.writer[rcells]
            foreign = (owner >= 0) & (owner != tenant_id)
            if bool(foreign.any()):
                fc = rcells[foreign]
                fp = pos[~w][foreign]
                fo = owner[foreign]
                # a foreign cell is cleansed once the tenant's own first
                # write (this chunk) precedes the read
                own_first = np.full(fc.shape[0], n, dtype=np.int64)
                if uniq.size:
                    idx = np.searchsorted(uniq, fc)
                    valid = idx < uniq.shape[0]
                    match = np.zeros(fc.shape[0], dtype=bool)
                    match[valid] = uniq[idx[valid]] == fc[valid]
                    own_first[match] = first[idx[match]]
                bad = fp < own_first
                self.n_violations += int(bad.sum())
                times = np.asarray(chunk.time)
                for c, p, o in zip(
                    fc[bad].tolist(), fp[bad].tolist(), fo[bad].tolist()
                ):
                    if len(self.violations) >= MAX_RECORDED:
                        break
                    self.violations.append(
                        CrossTenantViolation(
                            time=int(times[p]),
                            page=int(c // self.n_subblocks),
                            subblock=int(c % self.n_subblocks),
                            reader=tenant_id,
                            writer=int(o),
                        )
                    )
        if uniq.size:
            self.writer[uniq] = tenant_id

    def scrub(self, pages) -> None:
        """Hypervisor scrub: the freed pages' cells change hands."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        cells = (
            pages[:, None] * self.n_subblocks
            + np.arange(self.n_subblocks, dtype=np.int64)
        ).ravel()
        self.writer[cells] = HYPERVISOR
