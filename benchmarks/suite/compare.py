"""A/B two source trees with this benchmark's own code and settings.

From the repository root::

    python3 benchmarks/suite/compare.py PARENT_TREE CHANGE_TREE \\
        --metric accesses_per_s --workload swap-heavy

Each tree is a checkout whose ``src/`` holds the simulator. Both sides run
``child.py`` from this directory, so only the simulator differs. Each of the
10 pairs runs each workload once on each side, alternating which side goes
first, on the held-out seed. A run fails if its child errors or times out,
its table fails ``audit()``, or its digest differs from ``golden.json``.

The claimed (metric, workload) pairing is a gain only when the change wins
at least 9 of the 10 pairs (ties count for neither side) and its median
beats the parent's by more than the parent's interquartile range. Every
other (metric, workload) pairing must not worsen its median by more than
the bound in ``BENCHMARK.json``; where the parent's own spread exceeds that
bound the pairing is "unresolved", unless every change run reads better
than every parent run. On no workload may the change fail more runs than
the parent. The exit code is 0 only if all of this holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import (END_TO_END, GOLDEN_SEEDS, REPO, WORKLOADS, ProbedRunner, check,
                 golden_digest, summary)

SIDES = ("parent", "change")
#: the decision rule counts wins out of 10
PAIRS = 10
#: the held-out seed, so a change is not tuned to the seed it was built on
SEED = GOLDEN_SEEDS[1]


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def gain(parent: list[float], change: list[float], better: str) -> str:
    """Verdict on the claimed pairing; samples are paired by index."""
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    s = summary(parent)
    lead = statistics.median(change) - s["median"]
    if better != "higher":
        lead = -lead
    if wins >= 0.9 * len(parent) and lead > s["q3"] - s["q1"]:
        return "gain"
    return "not met"


def regression(parent: list[float], change: list[float], better: str,
               bound: float) -> str:
    """Verdict on a pairing the change must not make worse."""
    s = summary(parent)
    worse = (statistics.median(change) - s["median"]) / s["median"]
    if better == "higher":
        worse = -worse
    if all(_better(c, p, better) for c in change for p in parent):
        return "ok"
    if (s["q3"] - s["q1"]) / s["median"] > bound:
        return "unresolved"
    return "regressed" if worse > bound else "ok"


def judge(records: dict, policy: dict,
          claim: tuple[str, str]) -> tuple[list[str], bool, bool]:
    """Check every run against ``golden.json``, then give one row per
    workload, whether the claim is met, and whether everything else is
    clean: within bounds, with no more failed runs than the parent.

    ``records[side][workload]`` lists run records in pair order.
    """
    rows, claim_met, clean = [], False, True
    for w in records["parent"]:
        for side in SIDES:
            check(records[side][w], golden_digest(w, SEED, 1.0))
        failed = {side: sum("error" in r for r in records[side][w]) for side in SIDES}
        clean &= failed["change"] <= failed["parent"]
        # only pairs where both sides succeeded are compared
        pairs = [(p, c) for p, c in zip(records["parent"][w], records["change"][w])
                 if "error" not in p and "error" not in c]
        cells = [f"{w:17s}"]
        for name, (_, value) in END_TO_END.items():
            rule = policy[name]
            parent = [value(p) for p, _ in pairs]
            change = [value(c) for _, c in pairs]
            if not pairs:
                verdict = "no runs"
            elif (name, w) == claim:
                verdict = gain(parent, change, rule["better"])
            else:
                verdict = regression(parent, change, rule["better"], rule["bound"])
            if (name, w) == claim:
                claim_met = verdict == "gain"
            else:
                clean &= verdict == "ok"
            medians = (f"{statistics.median(parent):.4g}->{statistics.median(change):.4g}"
                       if pairs else "-")
            cells.append(f"{name} {medians} {verdict}")
        cells.append(f"failed {failed['parent']}/{failed['change']}")
        rows.append("  ".join(cells))
    return rows, claim_met, clean


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--metric", required=True, choices=END_TO_END)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent, args.change)))
    for side, tree in trees.items():
        if not (tree / "src" / "repro").is_dir():
            parser.error(f"{side} tree {tree} has no src/repro")
    policy = {m["name"]: m for m in
              json.loads((REPO / "BENCHMARK.json").read_text())["end_to_end"]}

    records = {side: {w: [] for w in WORKLOADS} for side in SIDES}
    workloads = list(WORKLOADS)
    runner = ProbedRunner()
    for i in range(PAIRS):
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                records[side][w].append(runner(w, SEED, src=trees[side] / "src"))

    print(f"{PAIRS} pairs, seed {SEED}; claim: {args.metric} on {args.workload}")
    rows, claim_met, clean = judge(records, policy, (args.metric, args.workload))
    print("\n".join(rows))
    print(f"claim {'met' if claim_met else 'not met'}; other pairings "
          f"{'within bounds' if clean else 'regressed, unresolved or failed more runs'}")
    return 0 if claim_met and clean else 1


if __name__ == "__main__":
    sys.exit(main())
