"""The repository benchmark: four workloads, fresh-process runs, per-layer tracing.

From the repository root::

    python3 benchmarks/suite/run.py                          # all workloads, 10 reps
    python3 benchmarks/suite/run.py --workload swap-heavy --seed 3 --seconds 25 --trace 0
    python3 benchmarks/suite/run.py --quick                  # 1/20 of the accesses, 2 reps
    python3 benchmarks/suite/run.py --regen-golden           # re-pin golden.json

Every (rep, workload) pair runs as its own fresh interpreter (``child.py``),
one at a time, single-threaded; the workload order reverses on odd reps,
so a slow stretch of the host hits every workload alike. Each run's
simulated result is checked against the digest pinned in ``golden.json``
for its seed, or, for a seed without one ("unpinned"), against the other
runs of the same seed; a run also fails if its child errors, times out or
its translation table fails ``audit()``. With ``--trace 1`` one traced run
per workload follows the timed reps and gives the per-layer numbers.
Host times are scaled to a reference host speed by a fixed probe timed
between runs (README.md, "Host speed").

The report prints every metric with its unit, median, quartiles and sample
count, and ``--out`` receives ``results.json`` (with host metadata) plus
one ``spans-<workload>.jsonl`` per traced run. With a single workload the
last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from child import WORKLOADS
from spans import LAYERS, ROOT as ROOT_SPAN, load, self_times

SUITE = Path(__file__).resolve().parent
REPO = SUITE.parents[1]
SRC = REPO / "src"
GOLDEN = SUITE / "golden.json"
#: seed 0 is the development seed, seed 1 is held out
GOLDEN_SEEDS = (0, 1)

#: with --seconds, the fewest reps a run takes, whatever the budget
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
QUICK_SCALE = 1 / 20
#: the load is one single-threaded process at a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: median ProbedRunner.probe() time on the reference host
PROBE_REF_S = 0.43

#: end-to-end metrics: name -> (unit, value from one untraced run's record).
#: Host times are scaled to reference host speed by the probe taken
#: around the run; the shared host drifts by up to ~30 % over minutes,
#: and the probe takes most of that drift out (README.md, "Host speed").
END_TO_END = {
    "accesses_per_s": (
        "accesses/s",
        lambda r: r["accesses"] / r["run_s"] * r["probe_s"] / PROBE_REF_S,
    ),
    "setup_s": ("s", lambda r: r["setup_s"] * PROBE_REF_S / r["probe_s"]),
    "peak_rss_mb": ("MB", lambda r: r["peak_rss_mb"]),
}
#: the same runs as plain wall-clock numbers, reported beside them
WALL_CLOCK = {
    "wall_accesses_per_s": ("accesses/s", lambda r: r["accesses"] / r["run_s"]),
    "wall_setup_s": ("s", lambda r: r["setup_s"]),
    "probe_s": ("s", lambda r: r["probe_s"]),
}


def child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    # every tree compiles its bytecode once and then imports from the
    # cache, so set-up time does not depend on who ran there before
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(workload: str, seed: int, *, src: Path = SRC, scale: float = 1.0,
              fused: bool = True, trace_out: Path | None = None) -> dict:
    """One fresh interpreter; returns its record, or ``{"error": ...}``."""
    cmd = [sys.executable, str(SUITE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--scale", repr(scale)]
    if not fused:
        cmd.append("--unfused")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    cmd += ["--spawn-t", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(src), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {last}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def more_reps(rep: int, started: float, args) -> bool:
    if args.seconds is None:
        return rep < args.reps
    # time budget: at least MIN_REPS, then stop before a rep would overrun
    elapsed = time.monotonic() - started
    return rep < MIN_REPS or elapsed + elapsed / rep <= args.seconds


class ProbedRunner:
    """Runs children one at a time with a host-speed probe between
    consecutive runs; each record gets the mean of the two probes around it.

    The probe is a fixed mix of the simulator's two kinds of work: numpy
    passes over multi-MB arrays and a Python loop of small-array calls. It
    runs in this process, so it adds nothing to a child's peak RSS.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 64, 4_000_000).astype(np.uint8)
        self._values = rng.integers(0, 1 << 40, 4_000_000)
        self._small = [rng.integers(0, 1 << 15, 1_000) for _ in range(64)]
        self._last = self.probe()

    def probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            x = np.take(self._values, np.argsort(self._keys, kind="stable"))
            np.cumsum(x, out=x)
            np.maximum.accumulate(x, out=x)
        for i in range(3_000):
            a = self._small[i % 64]
            np.unique(a)
            np.flatnonzero(a > 100)
        return time.perf_counter() - t0

    def __call__(self, workload: str, seed: int, **kwargs) -> dict:
        record = run_child(workload, seed, **kwargs)
        now = self.probe()
        record["probe_s"] = (self._last + now) / 2
        self._last = now
        return record


def timed_runs(workloads: list[str], args) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    runner = ProbedRunner()
    started = time.monotonic()
    rep = 0
    while more_reps(rep, started, args):
        for w in workloads if rep % 2 == 0 else workloads[::-1]:
            runs[w].append(runner(w, args.seed, scale=args.scale))
        rep += 1
    return runs


def golden_digest(workload: str, seed: int, scale: float) -> str | None:
    if scale != 1.0 or not GOLDEN.exists():
        return None
    return json.loads(GOLDEN.read_text()).get(str(seed), {}).get(workload)


def check(records: list[dict], pinned: str | None) -> None:
    """Mark as failed each run whose digest is not the golden one (or, when
    unpinned, not the one most runs of this seed agree on)."""
    digests = Counter(r["digest"] for r in records if "error" not in r)
    if not digests:
        return
    expected = pinned or digests.most_common(1)[0][0]
    for r in records:
        if "error" not in r and r["digest"] != expected:
            r["error"] = ("digest differs from golden.json" if pinned
                          else "digest differs between runs of one seed")


def summary(values: list[float]) -> dict:
    """Median, quartiles (as statistics.quantiles(n=4) gives them), count
    and the samples themselves, in run order."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def layer_metrics(spans: list[dict], traced: dict, untraced_run_s: float) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit)."""
    own = self_times(spans)
    root = next(s for s in spans if s["name"] == ROOT_SPAN)
    total = root["end"] - root["start"]
    out = {}
    for layer in LAYERS:
        ids = [s["id"] for s in spans if s["name"] == layer]
        self_s = sum((own[i] for i in ids), 0.0)
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (self_s / total, "ratio")
        out[f"{layer}.calls"] = (len(ids), "count")
    # a segmented flush that replays per epoch shows as nested service() calls
    segmented = [s["id"] for s in spans if s["fn"] == "FastDevice.service_segmented"]
    nested = Counter(s["parent"] for s in spans if s["fn"] == "FastDevice.service")
    replayed = sum(1 for i in segmented if nested[i] >= 2)
    out["dram.replay_share"] = (replayed / len(segmented) if segmented else 0.0, "ratio")
    out["dram.onpkg_row_hit_rate"] = (traced["onpkg_row_hit_rate"], "ratio")
    out["dram.offpkg_row_hit_rate"] = (traced["offpkg_row_hit_rate"], "ratio")
    evaluations = out["migration.swap.calls"][0]
    out["migration.swap_yield"] = (
        traced["swaps_triggered"] / evaluations if evaluations else 0.0, "ratio")
    out["migration.suppressed_busy_share"] = (
        traced["swaps_suppressed_busy"] / evaluations if evaluations else 0.0, "ratio")
    epochs = traced["fused_epochs"] + traced["stepwise_epochs"]
    out["core.fused_epoch_share"] = (traced["fused_epochs"] / epochs, "ratio")
    out["trace.overhead"] = (traced["run_s"] / untraced_run_s, "ratio")
    out["trace.unattributed_share"] = (own[root["id"]] / total, "ratio")
    out["sim_avg_latency_cycles"] = (traced["average_latency"], "cycles")
    out["sim_onpkg_fraction"] = (traced["onpkg_fraction"], "ratio")
    return out


def measure_workload(w: str, timed: list[dict], args, out_dir: Path) -> dict:
    """Check one workload's runs (plus its traced run) and reduce them."""
    traced = None
    ok = [r for r in timed if "error" not in r]
    if args.trace and ok:
        spans_path = out_dir / f"spans-{w}.jsonl"
        traced = run_child(w, args.seed, scale=args.scale, trace_out=spans_path)
    pinned = golden_digest(w, args.seed, args.scale)
    check(timed + ([traced] if traced else []), pinned)
    ok = [r for r in timed if "error" not in r]
    report = {
        "pinned": pinned is not None,
        "attempted": len(timed) + (traced is not None),
        "errors": [r["error"] for r in timed + [traced] if r and "error" in r],
        "end_to_end": {},
        "wall_clock": {},
        "per_layer": {},
    }
    if ok:
        report["digest"] = ok[0]["digest"]
        for name, (unit, value) in END_TO_END.items():
            report["end_to_end"][name] = {"unit": unit, **summary([value(r) for r in ok])}
        for name, (unit, value) in WALL_CLOCK.items():
            report["wall_clock"][name] = {"unit": unit, **summary([value(r) for r in ok])}
    if ok and traced and "error" not in traced:
        untraced = statistics.median(r["run_s"] for r in ok)
        layers = layer_metrics(load(spans_path), traced, untraced)
        report["per_layer"] = {k: {"unit": u, "value": v} for k, (v, u) in layers.items()}
    report["failed"] = len(report["errors"])
    return report


def host_metadata() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def print_report(results: dict) -> None:
    for w, rep in results["workloads"].items():
        state = "pinned" if rep["pinned"] else "unpinned"
        print(f"\n{w}: seed {results['seed']} ({state}), {rep['attempted']} runs, "
              f"{rep['failed']} failed")
        for err in rep["errors"]:
            print(f"  FAILED: {err}")
        print(f"  {'metric':36s} {'unit':>10s} {'median':>14s} {'q1':>14s} {'q3':>14s}  n")
        for name, m in {**rep["end_to_end"], **rep["wall_clock"]}.items():
            print(f"  {name:36s} {m['unit']:>10s} {m['median']:14.6g} "
                  f"{m['q1']:14.6g} {m['q3']:14.6g}  {m['n']}")
        for name, m in rep["per_layer"].items():
            print(f"  {name:36s} {m['unit']:>10s} {m['value']:14.6g} "
                  f"{'':14s} {'':14s}  1")


def regen_golden() -> int:
    """Pin seed digests, after checking each fused workload against the
    stepwise reference loop; writes nothing on any mismatch or error."""
    golden: dict[str, dict[str, str]] = {}
    for seed in GOLDEN_SEEDS:
        golden[str(seed)] = {}
        for w, spec in WORKLOADS.items():
            runs = [run_child(w, seed)]
            if not spec.track_data:  # track_data always runs the stepwise loop
                runs.append(run_child(w, seed, fused=False))
            errors = [r["error"] for r in runs if "error" in r]
            if errors or len({r["digest"] for r in runs}) != 1:
                print(f"{w} seed {seed}: "
                      f"{errors or 'fused and stepwise digests differ'}; "
                      f"{GOLDEN.name} not written", file=sys.stderr)
                return 1
            golden[str(seed)][w] = runs[0]["digest"]
            print(f"{w} seed {seed}: {runs[0]['digest']}")
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS), dest="workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, help="timed reps per workload "
                        "(default 10, or 2 with --quick)")
    parser.add_argument("--seconds", type=float,
                        help="instead of --reps: run reps for about this long "
                             f"(at least {MIN_REPS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: one traced run per workload after the timed reps")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of each workload's accesses")
    parser.add_argument("--out", type=Path, default=SUITE / "results",
                        help="directory for results.json and spans-*.jsonl")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.reps is None:
        args.reps = 2 if args.quick else 10
    args.scale = QUICK_SCALE if args.quick else 1.0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no simulator source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.regen_golden:
        return regen_golden()
    args.out.mkdir(parents=True, exist_ok=True)
    timed = timed_runs(args.workloads, args)
    results = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "host": host_metadata(),
        "workloads": {w: measure_workload(w, timed[w], args, args.out)
                      for w in args.workloads},
    }
    (args.out / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    print_report(results)
    reports = results["workloads"].values()
    if any(not rep["end_to_end"] for rep in reports):
        print("no run of a workload succeeded", file=sys.stderr)
    correct = all(rep["failed"] == 0 and rep["end_to_end"] for rep in reports)
    if len(args.workloads) == 1:
        # printed even when every run failed: then it says so, with no metrics
        rep = results["workloads"][args.workloads[0]]
        if args.trace:
            metrics = rep["per_layer"]
        else:
            metrics = {k: {"value": m["median"], "unit": m["unit"]}
                       for k, m in rep["end_to_end"].items()}
        print(json.dumps({
            "correct": correct,
            "attempted": rep["attempted"],
            "failed": rep["failed"],
            "metrics": metrics,
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
