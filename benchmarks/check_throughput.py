"""CI perf-smoke: fail when simulator throughput regresses.

Re-measures every path in ``bench_throughput.measure`` and compares
against the committed ``BENCH_throughput.json`` snapshot (schema 2). A
path that falls below its per-path floor — ``--tolerance`` under the
recorded best-of accesses/sec, with wider per-path overrides in
``PATH_TOLERANCE`` for the noisier paths — fails the check.

Raw accesses/sec varies with host speed, so the check also enforces
machine-independent invariants:

* the multi-epoch flush must stay at least ``--min-fused-ratio``
  (default 1.3x) faster than the per-epoch flush on the *same* host — a
  regression that slips under the absolute tolerance on fast hardware
  still trips this;
* the migration-active fused path asserts inside the benchmark that no
  epoch fell back to the per-epoch flush (``stepwise_epochs == 0``), so
  a fusion-coverage regression fails the measurement itself;
* ``sharded_x4``'s absolute floor is only enforced when this host has
  at least as many CPUs as the baseline host (recorded in the
  snapshot's ``reference.host`` block) — sharding buys wall-clock with
  cores, and a smaller host measures overhead, not capability.

Usage::

    python benchmarks/check_throughput.py [--baseline BENCH_throughput.json]
"""

import argparse
import json
import os
import sys

from bench_throughput import host_metadata, measure

#: per-path fractional-drop overrides (default: --tolerance).
#: sharded_x4 rides on process spawn/IPC, the noisiest component in a
#: shared CI runner, so it gets a wider band.
PATH_TOLERANCE = {
    "sharded_x4": 0.50,
}


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

    base_host = baseline.get("reference", {}).get("host", {})
    base_cpus = base_host.get("cpu_count")
    here_cpus = host_metadata()["cpu_count"]
    fewer_cores = (
        base_cpus is not None and here_cpus is not None and here_cpus < base_cpus
    )

    failures = []
    for name, ref in sorted(baseline["paths"].items()):
        ref_aps = ref["accesses_per_sec"]
        now_aps = fresh[name]["accesses_per_sec"]
        tol = PATH_TOLERANCE.get(name, args.tolerance)
        floor = ref_aps * (1.0 - tol)
        if name == "sharded_x4" and fewer_cores:
            status = f"skipped ({here_cpus} < baseline {base_cpus} cpus)"
        elif now_aps >= floor:
            status = "ok"
        else:
            status = "REGRESSED"
            failures.append(
                f"{name}: {now_aps / 1e6:.3f} M accesses/s is more than "
                f"{tol:.0%} below the baseline {ref_aps / 1e6:.3f} M/s"
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
