"""Fig 11 (a/b/c): average memory latency of N vs N-1 vs Live Migration
across granularities, one panel per swap interval.

Shape criteria:

* at coarse granularity (4 MB) with frequent swapping, N is far worse
  than N-1 (the stall dominates); Live <= N-1;
* at 4 KB the three algorithms converge.
"""

from __future__ import annotations

from functools import lru_cache

from ..config import MigrationAlgorithm
from ..core.hetero_memory import HeterogeneousMainMemory
from ..core.simulator import SimulationResult
from ..stats.report import Table, format_cycles
from ..units import KB
from .common import (
    DEFAULT_ACCESSES,
    FAST_ACCESSES,
    GRANULARITIES,
    SWAP_INTERVALS,
    all_migration_workloads,
    migration_config,
    migration_trace,
)

ALGORITHMS = (
    MigrationAlgorithm.N,
    MigrationAlgorithm.N_MINUS_1,
    MigrationAlgorithm.LIVE,
)


@lru_cache(maxsize=1024)
def simulate(
    workload: str,
    algorithm: str,
    page_bytes: int,
    interval: int,
    n: int,
    onpkg_paper_mb: int = 512,
) -> SimulationResult:
    """One cell of the Fig 11-16 grids (cached across experiments)."""
    cfg = migration_config(
        onpkg_paper_mb,
        algorithm=algorithm,
        macro_page_bytes=page_bytes,
        swap_interval=interval,
    )
    trace = migration_trace(workload, n)
    return HeterogeneousMainMemory(cfg).run(trace)


def run(fast: bool = True) -> list[Table]:
    n = FAST_ACCESSES if fast else DEFAULT_ACCESSES
    grans = (4 * KB, 256 * KB, 4096 * KB) if fast else GRANULARITIES
    workloads = all_migration_workloads()[:3] if fast else all_migration_workloads()
    tables = []
    for interval in SWAP_INTERVALS:
        table = Table(
            f"Fig 11 — avg memory latency (cycles), swap interval = {interval} accesses",
            ["workload", "granularity"] + [a for a in ALGORITHMS],
        )
        for workload in workloads:
            for page in grans:
                row = [workload, f"{page // KB}KB"]
                for algo in ALGORITHMS:
                    res = simulate(workload, algo, page, interval, n)
                    row.append(format_cycles(res.average_latency))
                table.add_row(*row)
        table.add_footnote("expect N >> N-1 >= Live at 4MB; convergence at 4KB")
        tables.append(table)
    return tables


if __name__ == "__main__":
    for t in run():
        t.print()
