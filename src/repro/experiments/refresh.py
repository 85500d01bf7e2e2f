"""Refresh scenario family: the tREFI/tRFC latency tax across designs.

Not a paper figure — the paper's timing model ignores refresh (it cites
Smart Refresh as related work). With real refresh scheduling in both
DRAM models this experiment quantifies the tax: each swap design runs
the same hot/cold trace with refresh disabled, off-package only
(DDR3-style tRFC 160 ns), and both tiers (on-package banks are smaller:
tRFC 60 ns), and reports average latency, the refresh overhead versus
the design's refresh-off row, and the on-package service fraction — the
migration story must survive refresh intact.

The per-design x per-mode grid fans out through the campaign
supervisor (``repro-experiments refresh --jobs N --manifest PATH``
resumes like ``table4``). The simulations take the multi-epoch flush:
the time-warp refresh model commutes with segment boundaries, so the
multi-epoch and per-epoch flushes agree bit-for-bit (see
``tests/test_fused_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

from ..campaign import CampaignTask
from ..config import (
    MigrationAlgorithm,
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from ..core.simulator import EpochSimulator
from ..stats.report import Table
from ..trace.record import TraceChunk, make_chunk
from ..units import KB, MB

#: refresh modes swept per design
MODES = ("none", "offpkg", "both")

SWAP_INTERVAL = 500
FAST_EPOCHS = 80
FULL_EPOCHS = 400


def refresh_config(algorithm: str, mode: str) -> SystemConfig:
    return SystemConfig(
        total_bytes=16 * MB,
        onpkg_bytes=2 * MB,
        offpkg_dram=offpkg_dram_timing(refresh=mode in ("offpkg", "both")),
        onpkg_dram=onpkg_dram_timing(refresh=mode == "both"),
        migration=MigrationConfig(
            macro_page_bytes=64 * KB,
            swap_interval=SWAP_INTERVAL,
            algorithm=algorithm,
        ),
    )


def refresh_trace(n_epochs: int, seed: int = 23) -> TraceChunk:
    """Hot/cold mixture (same shape as the soak traces)."""
    n = n_epochs * SWAP_INTERVAL
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < 0.85
    hot_addr = MB // 2 + rng.integers(0, 3 * MB // 2, n)
    cold_addr = rng.integers(0, 12 * MB, n)
    addr = (np.where(hot, hot_addr, cold_addr) // 64) * 64
    time = np.cumsum(rng.integers(1, 30, n))
    return make_chunk(addr.astype(np.int64), time=time.astype(np.int64))


def point(algorithm: str, mode: str, n_epochs: int) -> dict:
    """One grid point, as a JSON-safe dict (campaign-worker friendly)."""
    sim = EpochSimulator(refresh_config(algorithm, mode))
    result = sim.run(refresh_trace(n_epochs))
    return {
        "algorithm": algorithm,
        "mode": mode,
        "avg_latency": result.average_latency,
        "tail_latency": result.tail_average_latency(),
        "onpkg_fraction": result.onpkg_fraction,
        "swaps": result.swaps_triggered,
    }


def points(n_epochs: int, supervisor=None) -> list[dict]:
    """The full grid, optionally fanned out through a supervisor
    (points that exhaust their retries are omitted; :func:`run` adds a
    partial-results footnote)."""
    grid = [
        (alg, mode) for alg in MigrationAlgorithm.ALL for mode in MODES
    ]
    if supervisor is None:
        return [point(alg, mode, n_epochs) for alg, mode in grid]
    campaign = supervisor.run(
        [
            CampaignTask(f"refresh/{alg}/{mode}", point, (alg, mode, n_epochs))
            for alg, mode in grid
        ]
    )
    return [
        campaign.result(f"refresh/{alg}/{mode}")
        for alg, mode in grid
        if campaign.by_id[f"refresh/{alg}/{mode}"].ok
        and campaign.result(f"refresh/{alg}/{mode}") is not None
    ]


def run(fast: bool = True, supervisor=None) -> Table:
    n_epochs = FAST_EPOCHS if fast else FULL_EPOCHS
    rows = points(n_epochs, supervisor=supervisor)
    base = {
        r["algorithm"]: r["avg_latency"] for r in rows if r["mode"] == "none"
    }
    timing = offpkg_dram_timing(refresh=True)
    table = Table(
        "Refresh — tREFI/tRFC scheduling tax per design",
        ["design", "refresh", "avg latency", "overhead", "on-pkg fraction"],
    )
    for r in rows:
        ref = base.get(r["algorithm"])
        overhead = (
            f"{r['avg_latency'] / ref - 1:+.1%}" if ref else "n/a"
        )
        table.add_row(
            r["algorithm"],
            r["mode"],
            f"{r['avg_latency']:.1f}",
            overhead,
            f"{r['onpkg_fraction']:.1%}",
        )
    table.add_footnote(
        f"tREFI {timing.refresh_interval} cycles; tRFC "
        f"{timing.refresh_cycles} (off-package) / "
        f"{onpkg_dram_timing(refresh=True).refresh_cycles} (on-package) "
        f"cycles; duty cycle "
        f"{timing.refresh_cycles / timing.refresh_interval:.1%} off-package"
    )
    table.add_footnote(
        "the N design's number is dominated by stall windows, and "
        "refresh-stretched copies shift which accesses a stall swallows "
        "— its overhead column reflects that phase sensitivity, not the "
        "refresh tax itself (run with migrate=False for the pure tax: "
        "~+1% off-package, ~+2% both)"
    )
    expected = len(MigrationAlgorithm.ALL) * len(MODES)
    if len(rows) < expected:
        table.add_footnote(
            f"PARTIAL: {expected - len(rows)} grid point(s) exhausted "
            f"their retry budget and are missing"
        )
    return table


if __name__ == "__main__":
    run().print()
