"""Bring your own workload: define a model, persist traces, simulate.

Shows the full user path: compose access-pattern primitives into a
:class:`SyntheticWorkload`, save the generated trace in the binary trace
format (so expensive generation happens once), reload it in chunks, and
evaluate the memory system on it — including the power bill.

Run:  python examples/custom_workload.py
"""

import tempfile
from pathlib import Path

import repro
from repro.power.energy import MemoryEnergyModel
from repro.trace.io import TraceReader, TraceWriter
from repro.trace.stats import compute_stats
from repro.units import KB, MB
from repro.workloads.base import PatternSpec, PhaseSpec, SyntheticWorkload

# A key-value store: hot index (zipf over scattered clusters), value log
# appends (stream), and compaction sweeps (strided), with the hot index
# drifting as keys churn.
kv_store = SyntheticWorkload(
    name="kvstore",
    footprint_bytes=96 * MB,
    phases=(
        PhaseSpec(PatternSpec("zipf", {"alpha": 1.4, "spread_blocks": 32}),
                  weight=2.0, drift=0.05),
        PhaseSpec(PatternSpec("stream", {"stride_blocks": 1}), weight=0.7),
        PhaseSpec(PatternSpec("stream", {"stride_blocks": 64}), weight=0.3),
    ),
    write_fraction=0.40,
    cycles_per_access=70.0,
    n_cpus=4,
)


def main() -> None:
    trace = kv_store.generate(300_000, seed=7)
    print("generated:", compute_stats(trace).describe())

    # persist + reload in chunks (the format streams, nothing is resident)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kvstore.rptrace"
        with TraceWriter(path) as writer:
            writer.write(trace)
        print(f"trace file: {path.stat().st_size >> 20} MB on disk")

        cfg = repro.SystemConfig(
            total_bytes=512 * MB,
            onpkg_bytes=64 * MB,
            migration=repro.MigrationConfig(
                algorithm="live", macro_page_bytes=256 * KB, swap_interval=2_000
            ),
        )
        system = repro.HeterogeneousMainMemory(cfg)
        from repro.core.simulator import SimulationResult

        result = SimulationResult()
        for chunk in TraceReader(path, chunk_records=64_000):
            system.run_into(chunk, result)

    static = repro.baseline_latency(cfg, trace, "static")
    print(f"\nlatency: {result.average_latency:.1f} cycles/access with migration "
          f"vs {static.average_latency:.1f} static "
          f"({result.onpkg_fraction:.0%} on-package, {result.swaps_triggered} swaps)")

    report = MemoryEnergyModel(cfg.power).report(result)
    print(f"memory energy: {report.total_pj / 1e6:.1f} µJ "
          f"({report.migration_energy_pj / report.total_pj:.0%} spent on migration), "
          f"{report.normalized:.2f}x the off-package-only system")


if __name__ == "__main__":
    main()
