"""Fig 15: sensitivity to on-package capacity (128 / 256 / 512 MB).

Shape criteria: latency rises as the on-package region shrinks, but the
migrated system stays well below the no-migration latency at every size.
"""

from __future__ import annotations

from ..config import MigrationAlgorithm
from ..core.hetero_memory import baseline_latency
from ..stats.report import Table, format_cycles
from ..units import KB
from .common import (
    DEFAULT_ACCESSES,
    FAST_ACCESSES,
    all_migration_workloads,
    migration_config,
    migration_trace,
)
from .fig11 import simulate

CAPACITIES_MB = (128, 256, 512)
#: a good mid-grid operating point for the sweep
PAGE = 64 * KB
INTERVAL = 1_000


def run(fast: bool = True) -> Table:
    n = FAST_ACCESSES if fast else DEFAULT_ACCESSES
    workloads = all_migration_workloads()[:3] if fast else all_migration_workloads()
    table = Table(
        "Fig 15 — avg latency vs on-package capacity (paper MB, scaled), "
        f"Live {PAGE // KB}KB/{INTERVAL}",
        ["workload"]
        + [f"{mb}MB w/" for mb in CAPACITIES_MB]
        + ["512MB w/o migration"],
    )
    for workload in workloads:
        cells = []
        for mb in CAPACITIES_MB:
            res = simulate(workload, MigrationAlgorithm.LIVE, PAGE, INTERVAL, n, mb)
            cells.append(format_cycles(res.average_latency))
        static = baseline_latency(
            migration_config(512), migration_trace(workload, n), "static"
        )
        table.add_row(workload, *cells, format_cycles(static.average_latency))
    table.add_footnote(
        "w/ migration should degrade gracefully 512->128MB and stay below w/o"
    )
    return table


if __name__ == "__main__":
    run().print()
