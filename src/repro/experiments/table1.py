"""Table I: NPB 3.3 memory footprints.

The paper measures resident footprints of the ten workloads; our models
carry those values as parameters, and this experiment *verifies* the
generated traces actually realise them: the measured unique-page
footprint of each scaled trace must approach the configured (scaled)
footprint.
"""

from __future__ import annotations

from ..stats.report import Table
from ..trace.stats import footprint_bytes
from ..units import MB
from ..workloads.npb import NPB_FOOTPRINTS_MB
from .common import CPU_SCALE, npb_trace


def run(fast: bool = True) -> Table:
    n = 300_000 if fast else 600_000
    table = Table(
        "Table I — NPB 3.3 memory footprints (paper vs generated, scaled 1/%d)"
        % CPU_SCALE,
        ["workload", "paper (MB)", "model target (MB)", "measured (MB)", "coverage"],
    )
    for name, paper_mb in sorted(NPB_FOOTPRINTS_MB.items()):
        target = max(4096, paper_mb * MB // CPU_SCALE)
        trace = npb_trace(name, n)
        measured = footprint_bytes(trace)
        table.add_row(
            name,
            paper_mb,
            f"{target / MB:.1f}",
            f"{measured / MB:.1f}",
            f"{measured / target:.0%}",
        )
    table.add_footnote(
        "coverage < 100% just means the scaled trace did not touch every "
        "page yet; it approaches 100% as the trace grows"
    )
    return table


if __name__ == "__main__":
    run().print()
