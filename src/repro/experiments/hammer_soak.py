"""Hammer soak: row-disturbance hardening under refresh pressure.

Not a paper figure — an acceptance gate for the disturbance subsystem
(:mod:`repro.ras.disturb`). Each of the three swap designs runs a
hammer workload (the majority of accesses alternate between two
aggressor rows in one off-package bank, forcing a row activation per
access) with tREFI/tRFC refresh enabled in both regions, data-content
tracking on, and two scheduled ``ROW_DISTURB`` bursts. The mitigated
runs must:

* finish with **zero** data violations (shadow-memory verified, plus a
  full final table sweep) and **zero** unmitigated flip bursts — the
  ladder (victim refresh -> throttle/migration bias) keeps up,
* show the mitigation working: at least one victim refresh and at
  least one escalation per design,
* account for every injected hammer burst,
* keep the translation table audit-clean.

A control run with ``mitigate=False`` then proves the detection side:
the same workload lands real victim-row flips and **every** corrupted
sub-block surfaces as a data violation — disturbance never corrupts
silently.

The off-package aggressors never reach the ladder's last rung: only an
on-package escalation pumps RAS predictive retirement. So each design
runs once more with RAS enabled and its aggressor pair in on-package
bank 0. That run must pump at least one frame into retirement, retire
at least one, and lose no data (shadow-verified, plus the final table
sweep).
"""

from __future__ import annotations

import numpy as np

from ..config import (
    MigrationAlgorithm,
    MigrationConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from ..core.simulator import EpochSimulator
from ..errors import ReproError
from ..resilience.faults import FaultEvent, FaultKind, FaultPlan
from ..stats.report import Table, disturb_table, resilience_table
from ..trace.record import TraceChunk, make_chunk
from ..units import KB, MB

SWAP_INTERVAL = 400
FAST_EPOCHS = 50
FULL_EPOCHS = 200

#: fraction of accesses devoted to hammering the aggressor pair
HAMMER_FRACTION = 0.6


def soak_config(algorithm: str, *, mitigate: bool = True) -> SystemConfig:
    """Small geometry, refresh on in both tiers, disturbance armed."""
    return SystemConfig(
        total_bytes=16 * MB,
        onpkg_bytes=2 * MB,
        offpkg_dram=offpkg_dram_timing(refresh=True),
        onpkg_dram=onpkg_dram_timing(refresh=True),
        migration=MigrationConfig(
            macro_page_bytes=64 * KB,
            swap_interval=SWAP_INTERVAL,
            algorithm=algorithm,
        ),
    ).with_disturb(
        enabled=True,
        seed=5,
        act_threshold=24,
        alert_level=0.5,
        act_leak=2.0,
        mitigate=mitigate,
        # the aggressors are also the hottest pages, so the swap policy
        # pulls them on-package within a few epochs (migration as
        # mitigation); a one-refresh budget makes the ladder's throttle
        # rung observable before that happens
        victim_refresh_max=1,
        flips_per_victim=2,
        migration_bias=4.0,
        throttle_cycles=300,
    )


#: concurrent aggressor pairs; one swap per epoch boundary can only
#: dissolve pairs one at a time, so hammering outlives the one-refresh
#: victim budget and the ladder's escalation rungs become observable
N_PAIRS = 4


def hammer_trace(n_epochs: int, seed: int = 13, *,
                 onpkg: bool = False) -> TraceChunk:
    """Off-package aggressor row pairs, strictly alternated within each
    pair (every access is a row activation), over a hot/cold background
    (all reads: a flipped victim sub-block is never healed by a later
    store, so detection accounting is exact). ``onpkg`` hammers one pair
    instead: rows 0 and 1 of on-package bank 0, both resident there from
    boot."""
    if onpkg:
        timing = onpkg_dram_timing()
        pairs = [(0, 8192 * timing.n_channels * timing.n_banks)]
    else:
        timing = offpkg_dram_timing()
        row_stride = 8192 * timing.n_channels * timing.n_banks
        pairs = []
        for k in range(N_PAIRS):
            base = 2 * MB + (5 + 3 * k) * 64 * KB
            pairs.append((base, base + 2 * row_stride))
    aggressors = np.array(pairs, dtype=np.int64)
    n = n_epochs * SWAP_INTERVAL
    rng = np.random.default_rng(seed)
    hot = rng.random(n) < 0.7
    hot_addr = MB // 2 + rng.integers(0, 3 * MB // 2, n)
    cold_addr = rng.integers(0, 12 * MB, n)
    addr = (np.where(hot, hot_addr, cold_addr) // 64) * 64
    ham = rng.random(n) < HAMMER_FRACTION
    seq = np.arange(int(ham.sum()))
    addr[ham] = aggressors[(seq // 2) % len(pairs), seq % 2]
    time = np.cumsum(rng.integers(1, 30, n))
    return make_chunk(addr.astype(np.int64), time=time.astype(np.int64))


def hammer_fault_plan() -> FaultPlan:
    """Two hammer bursts on top of the workload's organic hammering."""
    return FaultPlan(
        events=(
            FaultEvent(epoch=6, kind=FaultKind.ROW_DISTURB, param=0),
            FaultEvent(epoch=18, kind=FaultKind.ROW_DISTURB, param=2),
        ),
        seed=5,
    )


def _run_one(algorithm: str, n_epochs: int, *, mitigate: bool):
    sim = EpochSimulator(
        soak_config(algorithm, mitigate=mitigate), track_data=True
    )
    plan = hammer_fault_plan()
    sim.attach_faults(plan)
    result = sim.run(hammer_trace(n_epochs))
    leftover = sim.shadow.verify_table(sim.table)
    return sim, plan, result, leftover


def run(fast: bool = True) -> list[Table]:
    n_epochs = FAST_EPOCHS if fast else FULL_EPOCHS
    tables: list[Table] = []
    for algorithm in MigrationAlgorithm.ALL:
        sim, plan, result, leftover = _run_one(
            algorithm, n_epochs, mitigate=True
        )
        d = result.disturb

        # ---- hard gates -------------------------------------------------
        if result.data_violations or leftover:
            raise ReproError(
                f"{algorithm}: hammer soak lost data under mitigation — "
                f"{result.data_violations} demand violations, "
                f"{len(leftover)} final-sweep violations"
            )
        if d.flip_bursts:
            raise ReproError(
                f"{algorithm}: {d.flip_bursts} disturbance bursts went "
                f"unmitigated despite mitigate=True"
            )
        if d.hammer_bursts != len(plan):
            raise ReproError(
                f"{algorithm}: {len(plan)} ROW_DISTURB faults scheduled "
                f"but only {d.hammer_bursts} bursts landed"
            )
        if d.victim_refreshes < 1:
            raise ReproError(
                f"{algorithm}: mitigation never fired a victim refresh "
                f"(activation telemetry never crossed its alert level)"
            )
        if d.throttles < 1:
            raise ReproError(
                f"{algorithm}: the ladder never escalated past the "
                f"victim-refresh budget"
            )
        sim.table.audit()
        sim.table.check_invariants()

        t = disturb_table(result)
        t.title = f"Hammer soak ({algorithm}) — disturbance summary"
        t.add_footnote(
            f"refresh enabled in both tiers "
            f"(offpkg tRFC {sim.config.offpkg_dram.refresh_cycles} cy / "
            f"onpkg {sim.config.onpkg_dram.refresh_cycles} cy per "
            f"{sim.config.offpkg_dram.refresh_interval}-cycle tREFI); "
            f"data integrity verified against the shadow memory: "
            f"0 violations"
        )
        tables.append(t)
        rt = resilience_table(result)
        rt.title = f"Hammer soak ({algorithm}) — resilience summary"
        tables.append(rt)

    # ---- unmitigated control: flips land and are always detected -------
    sim, _plan, result, leftover = _run_one(
        MigrationAlgorithm.LIVE, n_epochs, mitigate=False
    )
    d = result.disturb
    if d.flip_cells < 1:
        raise ReproError(
            "control run (mitigate=False) landed no victim flips — the "
            "hammer workload is not exercising the disturbance model"
        )
    reported = result.data_violations + len(leftover)
    if reported < d.flip_cells:
        raise ReproError(
            f"SILENT CORRUPTION: {d.flip_cells} victim sub-blocks "
            f"corrupted but only {reported} surfaced as data violations"
        )
    t = disturb_table(result)
    t.title = "Hammer soak (live, mitigate=False) — detection control"
    t.add_footnote(
        f"all {d.flip_cells} corrupted sub-blocks surfaced as data "
        f"violations ({result.data_violations} at demand reads, "
        f"{len(leftover)} in the final sweep): zero silent corruption"
    )
    tables.append(t)
    tables.append(_retire_rung(n_epochs))
    return tables


def _retire_rung(n_epochs: int) -> Table:
    """The ladder's last rung: on-package escalation pumps RAS
    predictive retirement, and the frames go off-line without data
    loss."""
    t = Table(
        "Hammer soak — on-package aggressors, RAS on (retire rung)",
        ["design", "throttles", "frames pumped for retirement",
         "frames retired", "bytes copied out", "data violations"],
    )
    for algorithm in MigrationAlgorithm.ALL:
        sim = EpochSimulator(
            soak_config(algorithm).with_ras(enabled=True), track_data=True
        )
        result = sim.run(hammer_trace(n_epochs, onpkg=True))
        leftover = sim.shadow.verify_table(sim.table)
        d = result.disturb
        if result.data_violations or leftover:
            raise ReproError(
                f"{algorithm}: retire-rung run lost data — "
                f"{result.data_violations} demand violations, "
                f"{len(leftover)} final-sweep violations"
            )
        if d.retirements_pumped < 1 or result.ras.frames_retired < 1:
            raise ReproError(
                f"{algorithm}: on-package hammering never reached the "
                f"retire rung ({d.retirements_pumped} frames pumped, "
                f"{result.ras.frames_retired} retired)"
            )
        sim.table.audit()
        sim.table.check_invariants()
        t.add_row(
            algorithm, d.throttles, d.retirements_pumped,
            result.ras.frames_retired, sim.engine.retired_bytes, 0,
        )
    t.add_footnote(
        "aggressors on rows 0 and 1 of on-package bank 0; data "
        "integrity verified against the shadow memory and the final "
        "table sweep"
    )
    return t


if __name__ == "__main__":
    for table in run():
        table.print()
