"""CI perf-smoke: fail when simulator throughput regresses.

Re-measures every path in ``bench_throughput.measure`` and compares
against the committed ``BENCH_throughput.json`` snapshot (schema 2). A
path that falls more than ``--tolerance`` below its recorded best-of
accesses/sec fails the check.

Raw accesses/sec varies with host speed, so the check also enforces
machine-independent invariants:

* the multi-epoch flush must stay at least ``--min-fused-ratio``
  (default 1.3x) faster than the per-epoch flush on the *same* host — a
  regression that slips under the absolute tolerance on fast hardware
  still trips this;
* the migration-active fused path asserts inside the benchmark that no
  epoch fell back to the per-epoch flush (``stepwise_epochs == 0``), so
  a fusion-coverage regression fails the measurement itself.

Usage::

    python benchmarks/check_throughput.py [--baseline BENCH_throughput.json]
"""

import argparse
import json
import os
import sys

from bench_throughput import measure


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "BENCH_throughput.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional drop vs baseline (default 0.30)")
    parser.add_argument("--min-fused-ratio", type=float, default=1.3,
                        help="required fused/unfused speedup on this host")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    fresh = measure(baseline["accesses"], args.rounds)

    failures = []
    for name, ref in sorted(baseline["paths"].items()):
        ref_aps = ref["accesses_per_sec"]
        now_aps = fresh[name]["accesses_per_sec"]
        floor = ref_aps * (1.0 - args.tolerance)
        if now_aps >= floor:
            status = "ok"
        else:
            status = "REGRESSED"
            failures.append(
                f"{name}: {now_aps / 1e6:.3f} M accesses/s is more than "
                f"{args.tolerance:.0%} below the baseline {ref_aps / 1e6:.3f} M/s"
            )
        print(f"{name:34s} baseline {ref_aps / 1e6:8.3f} M/s   "
              f"now {now_aps / 1e6:8.3f} M/s   {status}")

    ratio = (fresh["epoch_simulator_fused"]["accesses_per_sec"]
             / fresh["epoch_simulator_unfused"]["accesses_per_sec"])
    print(f"{'fused/unfused speedup':34s} {ratio:8.2f}x   "
          f"(required >= {args.min_fused_ratio:.2f}x)")
    if ratio < args.min_fused_ratio:
        failures.append(
            f"fused path is only {ratio:.2f}x the unfused loop "
            f"(required >= {args.min_fused_ratio:.2f}x)"
        )

    if failures:
        print("\nperf-smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf-smoke ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
