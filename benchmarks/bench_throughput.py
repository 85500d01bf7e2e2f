"""Simulator throughput — the library's own performance envelope.

Not a paper figure: tracks how many trace accesses per second each
simulation path sustains, so performance regressions in the vectorised
hot loops are caught (per the optimisation-workflow guide: measure,
don't guess).

Two entry points share one workload definition:

* pytest-benchmark tests (``pytest benchmarks/bench_throughput.py
  --benchmark-only``) for interactive profiling;
* ``python benchmarks/bench_throughput.py --out BENCH_throughput.json``
  emits a machine-readable snapshot (best-of-N and median-of-N
  accesses/sec per path, plus host metadata) that
  ``benchmarks/check_throughput.py`` diffs against the committed
  baseline in CI.

Measured paths (schema 2):

* ``fast_dram_model`` — the raw vectorised DRAM device service loop;
* ``epoch_simulator_fused`` — the epoch loop with one multi-epoch
  segmented flush per chunk, on the standard hot/uniform mix
  (migration on);
* ``epoch_simulator_fused_migrating`` — the same under a *drifting* hot
  set that keeps a SwapPlan in flight for most epochs; asserts every
  epoch took the multi-epoch flush (``stepwise_epochs == 0``) so a
  regression to the per-epoch flush fails loudly rather than showing up
  as a silent slowdown;
* ``epoch_simulator_unfused`` — the same loop with a per-epoch flush
  (``fused=False``).
"""

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from repro.config import MigrationConfig, SystemConfig, offpkg_dram_timing
from repro.core.detailed import DetailedSimulator
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.dram.fastmodel import FastDevice
from repro.dram.timing import DramGeometry
from repro.trace.record import make_chunk
from repro.units import KB, MB

#: accesses in the standard throughput workload
N_ACCESSES = 200_000


def _cfg():
    return SystemConfig(
        total_bytes=128 * MB,
        onpkg_bytes=16 * MB,
        migration=MigrationConfig(
            algorithm="live", macro_page_bytes=64 * KB, swap_interval=1_000
        ),
    )


def _trace(n, seed=0):
    rng = np.random.default_rng(seed)
    hot = rng.integers(0, 128 * MB // 4096)
    blocks = np.where(
        rng.random(n) < 0.8,
        (hot + rng.integers(0, 512, n)) % (128 * MB // 4096),
        rng.integers(0, 128 * MB // 4096, n),
    )
    return make_chunk(blocks * 4096, time=np.cumsum(rng.integers(1, 80, n)))


def _trace_migrating(n, seed=0):
    """Hot cluster that drifts every ~2k accesses: the trigger keeps
    firing, so nearly every epoch carries an active SwapPlan."""
    rng = np.random.default_rng(seed)
    n_blocks = 128 * MB // 4096
    drift = (np.arange(n, dtype=np.int64) // 2_000) * 256
    blocks = np.where(
        rng.random(n) < 0.8,
        (drift + rng.integers(0, 512, n)) % n_blocks,
        rng.integers(0, n_blocks, n),
    )
    return make_chunk(blocks * 4096, time=np.cumsum(rng.integers(1, 80, n)))


def _run_fused_migrating(trace):
    res = HeterogeneousMainMemory(_cfg()).run(trace)
    # machine-independent invariants, checked on every measurement: the
    # workload actually migrates, and the fused path covered every epoch
    assert res.swaps_triggered > 0, "migrating benchmark stopped migrating"
    assert res.stepwise_epochs == 0 and res.fused_epochs > 0, (
        "migration-active epochs fell back to the per-epoch flush"
    )
    return res


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_fast_dram_model_throughput(benchmark):
    geo = DramGeometry(offpkg_dram_timing())
    trace = _trace(N_ACCESSES)

    def run():
        dev = FastDevice(geo)
        return dev.service(trace.addr, trace.time)

    lat = benchmark(run)
    assert lat.shape[0] == N_ACCESSES


def test_epoch_simulator_throughput(benchmark):
    trace = _trace(N_ACCESSES)

    def run():
        return HeterogeneousMainMemory(_cfg()).run(trace)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.n_accesses == N_ACCESSES
    # the vectorised path should clear ~100k accesses/sec with margin
    per_access_us = benchmark.stats["mean"] * 1e6 / N_ACCESSES
    assert per_access_us < 10.0


def test_epoch_simulator_fused_migrating_throughput(benchmark):
    trace = _trace_migrating(N_ACCESSES)

    res = benchmark.pedantic(
        lambda: _run_fused_migrating(trace), rounds=3, iterations=1
    )
    assert res.n_accesses == N_ACCESSES


def test_epoch_simulator_unfused_throughput(benchmark):
    trace = _trace(N_ACCESSES)

    def run():
        return HeterogeneousMainMemory(_cfg(), fused=False).run(trace)

    res = benchmark.pedantic(run, rounds=3, iterations=1)
    assert res.n_accesses == N_ACCESSES


def test_detailed_simulator_throughput(benchmark):
    trace = _trace(5_000)

    def run():
        return DetailedSimulator(_cfg()).run(trace)

    res = benchmark.pedantic(run, rounds=2, iterations=1)
    assert res.n_accesses == 5_000


# ---------------------------------------------------------------------------
# JSON snapshot for the CI perf-smoke job
# ---------------------------------------------------------------------------

def _paths(n):
    """(name, callable) per measured simulation path, sharing one trace."""
    trace = _trace(n)
    trace_mig = _trace_migrating(n)
    geo = DramGeometry(offpkg_dram_timing())
    return [
        ("fast_dram_model",
         lambda: FastDevice(geo).service(trace.addr, trace.time)),
        ("epoch_simulator_fused",
         lambda: HeterogeneousMainMemory(_cfg()).run(trace)),
        ("epoch_simulator_fused_migrating",
         lambda: _run_fused_migrating(trace_mig)),
        ("epoch_simulator_unfused",
         lambda: HeterogeneousMainMemory(_cfg(), fused=False).run(trace)),
    ]


def host_metadata():
    """Where the snapshot was taken — raw accesses/sec only compare
    across snapshots with the same (or accounted-for) host."""
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def measure(n=N_ACCESSES, rounds=5):
    """Best-of and median-of ``rounds`` accesses/sec for every path.

    Best-of is the regression gate (least scheduler noise); the median
    is recorded alongside so a snapshot also shows typical throughput.
    """
    out = {}
    for name, fn in _paths(n):
        fn()  # warm-up: imports, allocator, branch caches
        times = sorted(_timed(fn) for _ in range(rounds))
        best = times[0]
        med = statistics.median(times)
        out[name] = {
            "seconds": round(best, 6),
            "accesses_per_sec": round(n / best),
            "median_seconds": round(med, 6),
            "median_accesses_per_sec": round(n / med),
        }
    return out


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_throughput.json",
                        help="where to write the JSON snapshot")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("-n", "--accesses", type=int, default=N_ACCESSES)
    args = parser.parse_args(argv)
    snapshot = {
        "schema": 2,
        "accesses": args.accesses,
        "rounds": args.rounds,
        "reference": {"host": host_metadata()},
        "paths": measure(args.accesses, args.rounds),
    }
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, row in snapshot["paths"].items():
        print(f"{name:34s} {row['accesses_per_sec'] / 1e6:8.3f} M accesses/s "
              f"(median {row['median_accesses_per_sec'] / 1e6:.3f})")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
