"""CLI: regenerate any of the paper's tables/figures.

    python -m repro.experiments.runner fig11 --full
    repro-experiments table4
    repro-experiments all --jobs 4 --task-timeout 900 --manifest run.json

Every invocation drives its work through the fault-tolerant
:class:`~repro.campaign.CampaignSupervisor`:

* ``all`` fans whole experiments out as campaign tasks — one crashed or
  hung experiment is retried, then recorded as failed, and the sweep
  continues (nonzero exit code only at the end);
* the grid experiments (``table4``, ``fig12-14``) additionally submit
  their per-workload simulation points through the supervisor;
* ``--jobs 1`` with no ``--task-timeout`` (the default) executes tasks
  inline in submission order — byte-identical to the old serial loop;
* ``--manifest PATH`` persists per-task status so a killed sweep
  resumes by skipping completed tasks (their output is reprinted from
  the manifest, not recomputed).
"""

from __future__ import annotations

import argparse
import sys
import time

from ..campaign import CampaignSupervisor, CampaignTask, RetryPolicy
from . import (
    chaos_soak,
    fig4,
    fig5,
    fig10,
    fig11,
    fig12_14,
    fig15,
    fig16,
    hammer_soak,
    multi_tenant,
    refresh,
    table1,
    table2_3,
    table4,
)

EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2_3.run_table2,
    "table3": table2_3.run_table3,
    "fig4": fig4.run,
    "fig5": fig5.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12-14": fig12_14.run,
    "fig15": fig15.run,
    "fig16": fig16.run,
    "table4": table4.run,
    "chaos-soak": chaos_soak.run,
    "hammer-soak": hammer_soak.run,
    "multi-tenant": multi_tenant.run,
    "refresh": refresh.run,
}

#: experiments whose inner (workload x config) grids fan out through
#: the supervisor when run individually
GRID_EXPERIMENTS = {"table4", "fig12-14", "refresh", "multi-tenant"}


def render_experiment(name: str, fast: bool) -> str:
    """Run one experiment, return its tables rendered exactly as
    :meth:`~repro.stats.report.Table.print` would emit them.

    Module-level so ``all`` campaigns can run it in worker processes;
    the returned string is JSON-serialisable, so a manifest-backed
    sweep reprints completed experiments on resume without recomputing.
    """
    out = EXPERIMENTS[name](fast=fast)
    tables = out if isinstance(out, list) else [out]
    return "".join("\n" + t.render() + "\n\n" for t in tables)


def build_supervisor(args) -> CampaignSupervisor:
    """A supervisor configured from the CLI flags."""
    return CampaignSupervisor(
        jobs=args.jobs,
        task_timeout=args.task_timeout,
        retry=RetryPolicy(max_attempts=args.max_retries + 1),
        manifest_path=args.manifest,
    )


def _run_all(names: list[str], fast: bool, supervisor: CampaignSupervisor) -> int:
    tasks = [CampaignTask(name, render_experiment, (name, fast)) for name in names]
    report = supervisor.run(tasks)
    for name in names:
        outcome = report.by_id[name]
        if outcome.ok and outcome.result is not None:
            sys.stdout.write(outcome.result)
        if outcome.status == "skipped":
            print(f"[{name} skipped — already completed in the manifest]",
                  file=sys.stderr)
        elif outcome.ok:
            print(f"[{name} done in {outcome.duration_s:.1f}s]", file=sys.stderr)
        else:
            print(f"[{name} FAILED after {outcome.attempts} attempt(s): "
                  f"{outcome.error}]", file=sys.stderr)
    if not report.ok:
        report.table().print()
        failed = ", ".join(o.task_id for o in report.failed)
        print(f"[{len(report.failed)}/{len(names)} experiments failed: {failed}]",
              file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (table/figure number) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="full grids and trace lengths (slower; default is a fast subset)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for campaign fan-out (default 1: serial, "
             "byte-identical to the classic runner)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget; a hung task is killed and retried",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1, metavar="K",
        help="retries after a worker crash or timeout, with --jobs > 1 or "
             "--task-timeout (default 1)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="campaign manifest path: enables resume (completed tasks are "
             "skipped on re-invocation)",
    )
    args = parser.parse_args(argv)

    fast = not args.full
    supervisor = build_supervisor(args)  # validates the flags up front
    if args.experiment == "all":
        return _run_all(sorted(EXPERIMENTS), fast, supervisor)

    name = args.experiment
    t0 = time.perf_counter()
    if name in GRID_EXPERIMENTS:
        out = EXPERIMENTS[name](fast=fast, supervisor=supervisor)
    else:
        out = EXPERIMENTS[name](fast=fast)
    for table in out if isinstance(out, list) else [out]:
        table.print()
    print(f"[{name} done in {time.perf_counter() - t0:.1f}s]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
