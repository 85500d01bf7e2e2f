"""One benchmark run in a fresh interpreter.

``run.py`` starts this script once per (rep, workload), with ``PYTHONPATH``
naming the ``src`` tree under test. It sets up one workload, times one
simulation (the first in its process, which is what one
``repro-experiments`` cell pays), audits the translation table and prints
one JSON record as its last line of output. With ``--trace-out`` it also
times every layer's entry points (see ``spans.py``) and writes the spans
to that file when it ends.

By hand, from the repository root::

    PYTHONPATH=src python benchmarks/suite/child.py --workload swap-heavy --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass

from spans import ROOT, Tracer

KB = 1 << 10
MB = 1 << 20

#: streamed workloads are fed in windows of this many accesses (a whole
#: number of 1 K-access epochs, so streaming changes no simulated number)
STREAM_CHUNK = 100_000


@dataclass(frozen=True)
class Workload:
    """One benchmark input on the scaled Table III system
    (``migration_config()``: 128 MB total, 16 MB on-package)."""

    trace: str          # synthetic trace model, by registry name
    algorithm: str      # swap design: N / N-1 / live
    page_bytes: int     # macro page (migration granularity)
    epoch: int          # accesses per epoch (swap_interval)
    accesses: int
    #: run_stream over SyntheticWorkload.stream; otherwise run() over a
    #: trace materialised during set-up
    streamed: bool
    track_data: bool = False


# Each workload loads one layer and bypasses another, so a change to one
# layer shows on one workload and is predicted to move nothing on another
# (README.md has the layer -> workload map).
WORKLOADS = {
    # a swap fires in ~2955 of 3000 epochs against a 32 K-row table: the
    # control path (observe/swap/table snapshot) does most of the work
    "swap-heavy": Workload("pgbench", "live", 4 * KB, 1_000, 3_000_000, streamed=True),
    # ~37 swaps in 60 epochs: the control path is bypassed and the DRAM
    # device core plus the flush dominate; generation sits in set-up
    "dram-bound": Workload("MG.C", "live", 1 * MB, 100_000, 6_000_000, streamed=False),
    # the paper's stall-dominated Fig 11 point: stall windows bunch
    # arrivals, the queue cap binds and every segmented flush replays
    # per epoch; ~80 % of swap evaluations are suppressed as busy
    "stall-n": Workload("FT.C", "N", 256 * KB, 1_000, 3_000_000, streamed=True),
    # track_data forces the stepwise reference loop (service_chunk) and
    # the shadow memory on a 30 %-write mix; no other workload runs them
    "stepwise-tracked": Workload(
        "SPECjbb", "N-1", 64 * KB, 1_000, 1_200_000, streamed=True, track_data=True
    ),
}

#: SimulationResult fields a correct run reproduces exactly. The
#: fused/stepwise epoch counters are left out, so a change to the epoch
#: loop alone keeps every digest.
DIGEST_FIELDS = (
    "n_accesses", "total_latency", "onpkg_accesses", "offpkg_accesses",
    "swaps_triggered", "swaps_suppressed_busy", "swaps_suppressed_cold",
    "swaps_suppressed_qos", "migrated_bytes", "cross_boundary_migrated_bytes",
    "onpkg_row_hit_rate", "offpkg_row_hit_rate", "duration_cycles",
    "data_violations", "epoch_latency",
)


def digest(result) -> str:
    fields = {name: getattr(result, name) for name in DIGEST_FIELDS}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    """This process's own peak resident set. ``ru_maxrss`` would also count
    the parent's peak, which the exec'd child inherits as a floor."""
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    return int(kb) / 1024


def n_accesses(workload: Workload, scale: float) -> int:
    """Trace length at ``scale``: a whole number of epochs, at least one."""
    return max(1, round(workload.accesses * scale / workload.epoch)) * workload.epoch


def run(name: str, seed: int, *, spawn_t: float, scale: float = 1.0,
        fused: bool = True, tracer: Tracer | None = None) -> dict:
    """Set up ``name``, time one simulation, return the run's record.

    ``setup_s`` counts from ``spawn_t`` (a ``time.monotonic()`` reading)
    to the simulator being ready to run.
    """
    from repro import HeterogeneousMainMemory
    from repro.experiments.common import migration_config, scaled_footprint
    from repro.workloads.registry import get_workload

    w = WORKLOADS[name]
    n = n_accesses(w, scale)
    cfg = migration_config(
        algorithm=w.algorithm, macro_page_bytes=w.page_bytes, swap_interval=w.epoch
    )
    model = get_workload(w.trace, scaled_footprint(w.trace, cfg.onpkg_bytes))
    system = HeterogeneousMainMemory(cfg, fused=fused, track_data=w.track_data)
    if w.streamed:
        trace = model.stream(n, seed, chunk_accesses=STREAM_CHUNK)
        simulate = system.run_stream
    else:
        trace = model.generate(n, seed)
        simulate = system.run
    ready = time.monotonic()
    with tracer.span(ROOT) if tracer else nullcontext():
        t0 = time.perf_counter()
        result = simulate(trace)
        run_s = time.perf_counter() - t0
    system.table.audit()
    return {
        "accesses": result.n_accesses,
        "setup_s": ready - spawn_t,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest(result),
        "average_latency": result.average_latency,
        "onpkg_fraction": result.onpkg_fraction,
        "onpkg_row_hit_rate": result.onpkg_row_hit_rate,
        "offpkg_row_hit_rate": result.offpkg_row_hit_rate,
        "swaps_triggered": result.swaps_triggered,
        "swaps_suppressed_busy": result.swaps_suppressed_busy,
        "fused_epochs": result.fused_epochs,
        "stepwise_epochs": result.stepwise_epochs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of the workload's accesses to run")
    parser.add_argument("--unfused", action="store_true",
                        help="force the stepwise reference epoch loop")
    parser.add_argument("--spawn-t", type=float, default=time.monotonic(),
                        help="time.monotonic() when the parent started this "
                             "process (default: now)")
    parser.add_argument("--trace-out", help="time every layer; write spans here")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    record = run(args.workload, args.seed, scale=args.scale,
                 fused=not args.unfused, tracer=tracer, spawn_t=args.spawn_t)
    if tracer:
        tracer.dump(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
