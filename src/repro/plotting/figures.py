"""Render the paper's figures as SVG files.

    python -m repro.plotting.figures [outdir]

Writes fig4/fig5/fig10/fig12-14/fig15/fig16 SVGs from the fast-subset
data (pass ``fast=False`` at the call sites for full grids).
"""

from __future__ import annotations

import sys
from pathlib import Path

from ..config import MigrationAlgorithm
from ..core.hetero_memory import baseline_latency
from ..cpu.amat import MemoryOrganization
from ..experiments import common
from ..experiments.fig4 import miss_rate_curves
from ..experiments.fig5 import ipc_improvements
from ..experiments.fig10 import PAGE_SIZES
from ..experiments.fig11 import simulate
from ..experiments.fig12_14 import latency_grid
from ..migration.overhead import hardware_bits
from ..power.energy import MemoryEnergyModel
from ..units import GB, KB, MB
from .svg import BarChart, LineChart


def fig4(outdir: Path, n: int) -> None:
    chart = LineChart(
        "Fig 4 — LLC miss rate vs capacity", xlabel="LLC capacity",
        ylabel="miss rate",
    )
    chart.categories = [f"{c // MB}MB" for c in common.FIG4_CAPACITIES]
    for name, rates in miss_rate_curves(n).items():
        chart.add_series(name, rates)
    chart.save(outdir / "fig4_llc_miss_rate.svg")


def fig5(outdir: Path, n: int) -> None:
    chart = BarChart(
        "Fig 5 — IPC improvement over baseline", ylabel="IPC improvement",
    )
    improvements = ipc_improvements(n)
    chart.categories = list(improvements)
    for org, label in (
        (MemoryOrganization.L4_CACHE, "L4 cache"),
        (MemoryOrganization.STATIC_ONPKG, "static on-pkg"),
        (MemoryOrganization.ALL_ONPKG, "all on-pkg"),
    ):
        chart.add_series(label, [improvements[w][org] for w in chart.categories])
    chart.save(outdir / "fig5_ipc.svg")


def fig10(outdir: Path) -> None:
    chart = LineChart(
        "Fig 10 — hardware bits vs macro page size", xlabel="macro page",
        ylabel="bits", log_y=True,
    )
    chart.categories = [f"{p // KB}KB" for p in PAGE_SIZES]
    chart.add_series("total bits", [
        float(hardware_bits(1 * GB, p).total_bits) for p in PAGE_SIZES
    ])
    chart.save(outdir / "fig10_hw_bits.svg")


def fig12_14(outdir: Path, n: int, workloads) -> None:
    grans = (4 * KB, 64 * KB, 1024 * KB)
    for interval, figname in ((1_000, "fig12"), (10_000, "fig13"), (100_000, "fig14")):
        chart = LineChart(
            f"{figname.capitalize()} — Live latency vs granularity "
            f"(interval {interval})",
            xlabel="macro page", ylabel="avg latency (cycles)",
        )
        chart.categories = [f"{g // KB}KB" for g in grans]
        for workload, series in latency_grid(interval, n, grans, workloads).items():
            chart.add_series(workload, series)
        chart.save(outdir / f"{figname}_granularity.svg")


def fig15(outdir: Path, n: int, workloads) -> None:
    chart = LineChart(
        "Fig 15 — latency vs on-package capacity (Live 64KB/1K)",
        xlabel="on-package capacity (paper MB)", ylabel="avg latency (cycles)",
    )
    capacities = (128, 256, 512)
    chart.categories = [f"{mb}MB" for mb in capacities]
    for workload in workloads:
        chart.add_series(workload, [
            simulate(workload, MigrationAlgorithm.LIVE, 64 * KB, 1_000, n, mb)
            .average_latency
            for mb in capacities
        ])
        static = baseline_latency(
            common.migration_config(512), common.migration_trace(workload, n), "static"
        )
        chart.add_series(f"{workload} w/o", [static.average_latency] * len(capacities))
    chart.save(outdir / "fig15_capacity.svg")


def fig16(outdir: Path, n: int, workloads) -> None:
    chart = BarChart(
        "Fig 16 — memory power vs off-package-only",
        ylabel="normalised power",
    )
    model = MemoryEnergyModel()
    pages = (4 * KB, 16 * KB, 64 * KB)
    intervals = (1_000, 10_000, 100_000)
    chart.categories = [f"{p // KB}KB/{i // 1000}K" for p in pages for i in intervals]
    for workload in workloads:
        chart.add_series(workload, [
            model.report(
                simulate(workload, MigrationAlgorithm.LIVE, p, i, n)
            ).normalized
            for p in pages
            for i in intervals
        ])
    chart.save(outdir / "fig16_power.svg")


def refresh_overhead(outdir: Path, n_epochs: int) -> None:
    # deferred import: repro.experiments.refresh pulls the simulator
    from ..experiments.refresh import MODES, points

    chart = BarChart(
        "Refresh — avg latency with tREFI/tRFC scheduling",
        ylabel="avg latency (cycles)",
    )
    rows = points(n_epochs)
    chart.categories = list(MigrationAlgorithm.ALL)
    by_key = {(r["algorithm"], r["mode"]): r["avg_latency"] for r in rows}
    for mode in MODES:
        chart.add_series(
            f"refresh: {mode}",
            [by_key[(alg, mode)] for alg in chart.categories],
        )
    chart.save(outdir / "refresh_overhead.svg")


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    outdir = Path(args[0]) if args else Path("figures")
    outdir.mkdir(parents=True, exist_ok=True)
    n_cpu = 200_000
    n_mig = 300_000
    workloads = ("FT.C", "MG.C", "pgbench")
    fig10(outdir)
    fig4(outdir, n_cpu)
    fig5(outdir, n_cpu)
    fig12_14(outdir, n_mig, workloads)
    fig15(outdir, n_mig, workloads)
    fig16(outdir, n_mig, workloads)
    refresh_overhead(outdir, n_epochs=80)
    print(f"wrote {len(list(outdir.glob('*.svg')))} figures to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
