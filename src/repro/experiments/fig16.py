"""Fig 16: memory power of the hybrid system vs off-package-only.

Normalised energy (hybrid demand + migration traffic, over the
off-package-only system on the same trace), swept over swap interval and
small granularities (4 / 16 / 64 KB).

Shape criteria: overhead grows with swap frequency and granularity; the
minimum sits near (100K interval, 4 KB) — the paper observes ~2x there.
"""

from __future__ import annotations

from ..config import MigrationAlgorithm
from ..power.energy import MemoryEnergyModel
from ..stats.report import Table
from ..units import KB
from .common import DEFAULT_ACCESSES, FAST_ACCESSES, all_migration_workloads
from .fig11 import simulate

PAGES = (4 * KB, 16 * KB, 64 * KB)
INTERVALS = (1_000, 10_000, 100_000)


def run(fast: bool = True) -> Table:
    n = FAST_ACCESSES if fast else DEFAULT_ACCESSES
    workloads = all_migration_workloads()[:3] if fast else all_migration_workloads()
    model = MemoryEnergyModel()
    table = Table(
        "Fig 16 — hybrid memory power normalised to off-package-only",
        ["workload"] + [f"{p // KB}KB/{i // 1000}K" for p in PAGES for i in INTERVALS],
    )
    for workload in workloads:
        cells = []
        for page in PAGES:
            for interval in INTERVALS:
                res = simulate(workload, MigrationAlgorithm.LIVE, page, interval, n)
                cells.append(f"{model.report(res).normalized:.2f}x")
        table.add_row(workload, *cells)
    table.add_footnote(
        "overhead grows with swap frequency/granularity; minimum ~ (4KB, 100K)"
    )
    return table


if __name__ == "__main__":
    run().print()
