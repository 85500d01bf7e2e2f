"""Fig 4: LLC miss rate vs capacity (8 MB -> 1 GB), ten NPB workloads.

Shape criterion: each curve flattens once the capacity passes the
workload's working set — the paper's argument that a bigger LLC stops
paying for itself.
"""

from __future__ import annotations

from ..cache.stackdist import StackDistanceProfile
from ..stats.report import Table
from ..units import MB
from ..workloads.npb import NPB_FOOTPRINTS_MB
from .common import CPU_SCALE, FAST_ACCESSES, FIG4_CAPACITIES, npb_trace


def miss_rate_curves(n: int | None = None) -> dict[str, list[float]]:
    """Miss rate of every workload at every Fig 4 capacity (paper units)."""
    n = n or FAST_ACCESSES
    curves: dict[str, list[float]] = {}
    scaled = [max(4096, c // CPU_SCALE) for c in FIG4_CAPACITIES]
    for name in sorted(NPB_FOOTPRINTS_MB):
        trace = npb_trace(name, n)
        profile = StackDistanceProfile(trace.addr)
        curves[name] = profile.miss_rates(scaled)
    return curves


def run(fast: bool = True) -> Table:
    curves = miss_rate_curves(200_000 if fast else None)
    table = Table(
        "Fig 4 — LLC miss rate vs capacity (capacities in paper units, "
        f"simulated at 1/{CPU_SCALE} scale)",
        ["workload"] + [f"{c // MB}MB" for c in FIG4_CAPACITIES],
    )
    for name, rates in curves.items():
        table.add_row(name, *[f"{r:.1%}" for r in rates])
    table.add_footnote("curves should flatten past each workload's working set")
    return table


if __name__ == "__main__":
    run().print()
