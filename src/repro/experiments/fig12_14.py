"""Figs 12-14: Live-Migration latency vs granularity, one figure per
swap interval (1K / 10K / 100K accesses).

Shape criteria: the most frequent interval (Fig 12) reaches the lowest
minima; the optimal granularity is workload-dependent and shifts with
the interval.
"""

from __future__ import annotations

from ..campaign import CampaignTask
from ..config import MigrationAlgorithm
from ..stats.report import Table, format_cycles
from ..units import KB
from .common import (
    DEFAULT_ACCESSES,
    FAST_ACCESSES,
    GRANULARITIES,
    SWAP_INTERVALS,
    all_migration_workloads,
)
from .fig11 import simulate

FIGURE_OF_INTERVAL = {1_000: "Fig 12", 10_000: "Fig 13", 100_000: "Fig 14"}


def series(workload: str, interval: int, granularities, n: int) -> list[float]:
    """One grid row (a campaign point): latency per granularity.

    Module-level and list-of-float-valued so a campaign supervisor can
    run it in a worker process and persist it in a run manifest.
    """
    return [
        simulate(workload, MigrationAlgorithm.LIVE, g, interval, n).average_latency
        for g in granularities
    ]


def latency_grid(
    interval: int, n: int, granularities=GRANULARITIES, workloads=None,
    supervisor=None,
) -> dict[str, list[float]]:
    """Per-workload latency series for one swap interval.

    With a supervisor, each workload's series is a campaign point;
    points that exhaust their retries are omitted from the grid (the
    caller reports the gap)."""
    workloads = workloads or all_migration_workloads()
    if supervisor is None:
        return {
            w: series(w, interval, tuple(granularities), n) for w in workloads
        }
    campaign = supervisor.run([
        CampaignTask(f"fig12-14/{interval}/{w}", series,
                     (w, interval, tuple(granularities), n))
        for w in workloads
    ])
    return {
        w: campaign.result(f"fig12-14/{interval}/{w}")
        for w in workloads
        if campaign.by_id[f"fig12-14/{interval}/{w}"].ok
        and campaign.result(f"fig12-14/{interval}/{w}") is not None
    }


def run(fast: bool = True, supervisor=None) -> list[Table]:
    n = FAST_ACCESSES if fast else DEFAULT_ACCESSES
    grans = (4 * KB, 64 * KB, 1024 * KB) if fast else GRANULARITIES
    workloads = all_migration_workloads()[:3] if fast else all_migration_workloads()
    tables = []
    for interval in SWAP_INTERVALS:
        grid = latency_grid(interval, n, grans, workloads, supervisor=supervisor)
        table = Table(
            f"{FIGURE_OF_INTERVAL[interval]} — Live Migration avg latency "
            f"(cycles), interval = {interval}",
            ["workload"] + [f"{g // KB}KB" for g in grans],
        )
        for workload, series_ in grid.items():
            table.add_row(workload, *[format_cycles(v) for v in series_])
        missing = [w for w in workloads if w not in grid]
        if missing:
            table.add_footnote(
                f"PARTIAL: {len(missing)} point(s) exhausted their retry "
                f"budget and are missing: {', '.join(missing)}"
            )
        tables.append(table)
    tables[-1].add_footnote(
        "minima should be lowest at the 1K interval; optimum granularity "
        "varies per workload"
    )
    return tables


if __name__ == "__main__":
    for t in run():
        t.print()
