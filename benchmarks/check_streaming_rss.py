"""CI perf-smoke: peak memory must scale with the trace, not beyond it.

Runs a pgbench simulation at two lengths (``SHORT`` and ``LONG`` accesses),
each twice in clean subprocesses: once materialized
(``migration_trace`` → ``run``) and once streamed (``migration_stream``
→ ``run_stream``). Each subprocess reports its own peak RSS (``VmHWM``).
Fails when:

* the streamed peak grows by more than ``STREAM_GROWTH_MB`` from the
  short run to the long one — streaming holds O(chunk);
* the materialized peak grows by more than ``TRACE_GROWTH_RATIO`` times
  the growth in trace bytes — the materialized trace is the only
  O(trace) allocation, ``generate`` and ``run`` add O(chunk) on top of
  it;
* at either length the two feedings disagree on access count or on swap
  count beyond 2 % (the equivalence tests pin the numbers; this check
  pins the memory claim).
"""

import json
import subprocess
import sys

_SNIPPET = """
import json
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.experiments.common import migration_config, migration_stream, migration_trace
from repro.trace.stream import aligned_chunk_size

cfg = migration_config(algorithm="live", macro_page_bytes=64 * 1024,
                       swap_interval=10_000)
n = {n}
if {streamed}:
    chunk = aligned_chunk_size(100_000, cfg.migration.swap_interval)
    r = HeterogeneousMainMemory(cfg).run_stream(
        migration_stream("pgbench", n, seed=0, chunk_accesses=chunk))
else:
    r = HeterogeneousMainMemory(cfg).run(migration_trace("pgbench", n, seed=0))
with open("/proc/self/status") as fh:
    kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
print(json.dumps({{
    "rss_mb": int(kb) / 1024,
    "n_accesses": r.n_accesses,
    "swaps": r.swaps_triggered,
}}))
"""

MB = 1 << 20
#: accesses in the short and the long run
SHORT, LONG = 1_000_000, 4_000_000
#: allowed streamed peak-RSS growth from the short run to the long one
STREAM_GROWTH_MB = 8.0
#: allowed materialized peak-RSS growth per byte of trace growth
TRACE_GROWTH_RATIO = 1.25


def _run(n, streamed):
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET.format(n=n, streamed=streamed)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"subprocess failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    from repro.trace.record import TRACE_DTYPE

    runs = {}
    for n in (SHORT, LONG):
        for streamed in (False, True):
            r = runs[n, streamed] = _run(n, streamed)
            print(f"{'streamed' if streamed else 'materialized':12s} "
                  f"n={n:>9,d}  peak RSS {r['rss_mb']:7.1f} MB  "
                  f"({r['n_accesses']} accesses, {r['swaps']} swaps)")

    failures = []
    for n in (SHORT, LONG):
        mat, stream = runs[n, False], runs[n, True]
        if stream["n_accesses"] != mat["n_accesses"]:
            failures.append(f"n={n}: access counts diverged between feedings")
        # streamed stamping draws per-part RNGs, so copy/boundary timing
        # can shift a swap across an epoch edge — allow 2% drift, not more
        if abs(stream["swaps"] - mat["swaps"]) > max(1, mat["swaps"] // 50):
            failures.append(
                f"n={n}: swap counts diverged: materialized {mat['swaps']} "
                f"vs streamed {stream['swaps']}"
            )

    stream_growth = runs[LONG, True]["rss_mb"] - runs[SHORT, True]["rss_mb"]
    mat_growth = runs[LONG, False]["rss_mb"] - runs[SHORT, False]["rss_mb"]
    trace_growth = (LONG - SHORT) * TRACE_DTYPE.itemsize / MB
    mat_limit = TRACE_GROWTH_RATIO * trace_growth
    print(f"streamed growth     {stream_growth:+7.1f} MB "
          f"(allowed <= {STREAM_GROWTH_MB:.1f} MB)")
    print(f"materialized growth {mat_growth:+7.1f} MB "
          f"(allowed <= {mat_limit:.1f} MB = {TRACE_GROWTH_RATIO:.2f} x "
          f"{trace_growth:.1f} MB of trace)")
    if stream_growth > STREAM_GROWTH_MB:
        failures.append(
            f"streamed peak RSS grew {stream_growth:.1f} MB with the trace "
            f"(allowed {STREAM_GROWTH_MB:.1f} MB) — O(chunk) memory regressed"
        )
    if mat_growth > mat_limit:
        failures.append(
            f"materialized peak RSS grew {mat_growth:.1f} MB for "
            f"{trace_growth:.1f} MB of trace (allowed {mat_limit:.1f} MB) — "
            f"generate or run holds O(trace) beyond the trace itself"
        )
    if failures:
        print("\nstreaming-rss check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nstreaming-rss ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
