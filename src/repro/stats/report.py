"""Plain-text tables matching the paper's figure/table layouts.

Every benchmark prints through :class:`Table` so regenerated results
line up with the paper's rows and columns for eyeball comparison.
"""

from __future__ import annotations

from ..errors import ReproError


def format_cycles(value: float) -> str:
    """Compact cycle counts (plain below 10k, k/M above)."""
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e4:
        return f"{value / 1e3:.1f}k"
    return f"{value:.1f}"


class Table:
    """A fixed-column text table with a title and optional footnote."""

    def __init__(self, title: str, columns: list[str]):
        if not columns:
            raise ReproError("a table needs columns")
        self.title = title
        self.columns = columns
        self.rows: list[list[str]] = []
        self.footnotes: list[str] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ReproError(
                f"expected {len(self.columns)} cells, got {len(cells)}"
            )
        self.rows.append([str(c) for c in cells])

    def add_footnote(self, text: str) -> None:
        self.footnotes.append(text)

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows))
            if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * max(len(self.title), len(sep))]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.footnotes:
            lines.append(f"  * {note}")
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - deliberate, print-like
        print("\n" + self.render() + "\n")


def resilience_table(result) -> Table:
    """Summarise a run's resilience telemetry as a :class:`Table`.

    Takes a :class:`~repro.core.simulator.SimulationResult`; one row per
    degradation-event kind plus the fault/ECC counters, so fault-campaign
    logs read the same way the paper tables do.
    """
    from ..resilience.degradation import summarize_events

    table = Table(
        "Resilience summary",
        ["metric", "count"],
    )
    table.add_row("faults injected", result.faults_injected)
    table.add_row("dram errors corrected", result.dram_errors_corrected)
    table.add_row("dram errors retried", result.dram_errors_retried)
    table.add_row("dram errors uncorrectable", result.dram_errors_uncorrectable)
    for kind, count in sorted(summarize_events(result.degradation_events).items()):
        table.add_row(f"event: {kind}", count)
    table.add_row("quarantined", "yes" if result.quarantined else "no")
    if result.quarantined:
        table.add_footnote(
            "migration quarantined: run finished in static-mapping mode"
        )
    return table


def campaign_table(report) -> Table:
    """Partial-results summary of a campaign as a :class:`Table`.

    Takes a :class:`~repro.campaign.CampaignReport`; one row per task
    (status, attempts, duration, error), plus a footnote totalling the
    completed/failed/skipped split — so a degraded campaign states
    exactly which points it is missing.
    """
    table = Table(
        "Campaign summary",
        ["task", "status", "attempts", "duration", "error"],
    )
    for outcome in report.outcomes:
        table.add_row(
            outcome.task_id,
            outcome.status,
            outcome.attempts,
            f"{outcome.duration_s:.1f}s",
            (outcome.error or "")[:60],
        )
    table.add_footnote(
        f"{len(report.completed)} completed, {len(report.failed)} failed, "
        f"{len(report.skipped)} skipped (already done)"
    )
    if report.failed:
        table.add_footnote(
            "campaign degraded: results above are PARTIAL — failed tasks "
            "exhausted their retry budget"
        )
    return table


def ras_table(result) -> Table:
    """Summarise a run's RAS telemetry as a :class:`Table`.

    Takes a :class:`~repro.core.simulator.SimulationResult` from a run
    with ``RASConfig(enabled=True)``: CE counters by source, patrol-scrub
    traffic, wear totals, one row per predictive retirement, and the
    on-package capacity / η trajectory (first epoch, every epoch the
    usable-frame count changed, last epoch).
    """
    r = result.ras
    if r is None:
        raise ReproError(
            "result carries no RAS report (run with RASConfig(enabled=True))"
        )
    table = Table("RAS summary", ["metric", "value"])
    table.add_row("on-package frames", r.frames_total)
    table.add_row("frames retired", r.frames_retired)
    table.add_row("frames usable", r.frames_usable)
    table.add_row("spares remaining", f"{r.spares_remaining}/{r.spares_total}")
    table.add_row("CEs (demand)", r.ce_demand)
    table.add_row("CEs (scrub)", r.ce_scrub)
    table.add_row("CEs (burst)", r.ce_burst)
    table.add_row("CE+scrub cycles", format_cycles(r.ce_cycles))
    table.add_row("scrub passes", r.scrub_passes)
    table.add_row("scrub reads", r.scrub_reads)
    table.add_row("wear writes (total)", r.wear_total_writes)
    table.add_row("wear writes (max/page)", r.wear_max_page_writes)
    for ev in r.retirements:
        table.add_row(
            f"retired: frame {ev.slot} -> spare {ev.spare}",
            f"epoch {ev.epoch}",
        )
    if r.retirements_suppressed:
        table.add_row("retirements suppressed", r.retirements_suppressed)
    series = r.capacity_series
    if series:
        shown = [series[0]]
        for prev, cur in zip(series, series[1:]):
            if cur[1] != prev[1]:
                shown.append(cur)
        if shown[-1] is not series[-1]:
            shown.append(series[-1])
        for epoch, usable, cap, eta in shown:
            table.add_row(
                f"capacity @ epoch {epoch}",
                f"{usable} frames / {cap} B / eta {eta:.3f}",
            )
    if r.frames_retired:
        table.add_footnote(
            "capacity degraded gracefully: retired frames shrink the "
            "on-package region; eta is each epoch's on-package service "
            "fraction"
        )
    return table

def tenant_table(result) -> Table:
    """Per-tenant summary of a multi-tenant run as a :class:`Table`.

    Takes a :class:`~repro.core.simulator.SimulationResult` from a
    :class:`~repro.tenancy.MultiTenantSimulator` run: one row per
    tenant with its accesses, on-package hit rate, average latency,
    migration work, and — when the run computed solo baselines — the
    slowdown and noisy-neighbour interference index.
    """
    if not result.tenants:
        raise ReproError(
            "result carries no tenant metrics (run via MultiTenantSimulator)"
        )
    table = Table(
        "Per-tenant summary",
        ["tenant", "accesses", "hit rate", "avg latency", "swaps",
         "migrated", "slowdown", "interference"],
    )
    for tenant_id in sorted(result.tenants):
        m = result.tenants[tenant_id]
        slowdown = m.slowdown
        interference = m.interference_index
        table.add_row(
            f"{tenant_id}:{m.name}",
            m.accesses,
            f"{m.hit_rate:.1%}",
            f"{m.average_latency:.1f}",
            m.swaps_triggered,
            format_cycles(m.migrated_bytes),
            "n/a" if slowdown is None else f"{slowdown:.2f}x",
            "n/a" if interference is None else f"{interference:.1%}",
        )
    if result.swaps_suppressed_qos:
        table.add_footnote(
            f"{result.swaps_suppressed_qos} swap(s) suppressed by the QoS "
            f"capacity policy"
        )
    if any(m.slowdown is None for m in result.tenants.values()):
        table.add_footnote(
            "slowdown/interference need solo baselines "
            "(MultiTenantSimulator(solo_baselines=True))"
        )
    return table


def disturb_table(result) -> Table:
    """Summarise a run's row-disturbance telemetry as a :class:`Table`.

    Takes a :class:`~repro.core.simulator.SimulationResult` from a run
    with ``DisturbConfig(enabled=True)``: activation totals, the
    mitigation-ladder counters (victim refreshes, throttles, escalation
    routes) and any unmitigated flips.
    """
    d = result.disturb
    if d is None:
        raise ReproError(
            "result carries no disturbance report (run with "
            "DisturbConfig(enabled=True))"
        )
    table = Table("Row-disturbance summary", ["metric", "value"])
    table.add_row("row activations", d.activations_total)
    table.add_row("rows tracked (final)", d.rows_tracked)
    table.add_row("hammer bursts injected", d.hammer_bursts)
    table.add_row("alert crossings", d.alerts)
    table.add_row("victim refreshes", d.victim_refreshes)
    table.add_row("victim-refresh cycles", format_cycles(d.victim_refresh_cycles))
    table.add_row("throttles", d.throttles)
    table.add_row("throttle cycles", format_cycles(d.throttle_cycles))
    table.add_row("frames pumped for retirement", d.retirements_pumped)
    table.add_row("pages biased into migration", d.pressure_boosts)
    table.add_row("unmitigated flip bursts", d.flip_bursts)
    table.add_row("victim sub-blocks corrupted", d.flip_cells)
    if d.flip_cells:
        table.add_footnote(
            "corrupted sub-blocks are visible to the data-content shadow "
            "memory: every one surfaces as a data violation, never silently"
        )
    return table

