"""Shared experiment presets: scaled geometry and per-process trace cache.

The paper's trace study runs trillions of accesses against 4 GB of
memory with 512 MB on-package. A laptop-scale Python run keeps every
*ratio* intact and shrinks absolute sizes by ``MIGRATION_SCALE``:

* memory geometry: 4 GB / ``SCALE`` total, 512 MB / ``SCALE`` on-package
  (the 12.5% on-package ratio of Table III is preserved);
* workload footprints: each workload keeps its paper
  footprint-to-on-package ratio;
* macro page sizes and the 4 KB sub-block stay at paper values (they are
  the experiment variables);
* access counts shrink from trillions to millions — results are reported
  both as full-run and converged-tail averages.

EXPERIMENTS.md records the exact factors next to each result.
"""

from __future__ import annotations

from functools import lru_cache

from ..config import SystemConfig, scaled_config
from ..trace.record import TraceChunk
from ..units import GB, KB, MB
from ..workloads.registry import MIGRATION_STUDY_WORKLOADS, generate_trace

#: divide the paper's 4 GB / 512 MB geometry by this
MIGRATION_SCALE = 32

#: paper footprint / 512 MB on-package, per migration-study workload
FOOTPRINT_RATIO: dict[str, float] = {
    "FT.C": 10.0,       # 5147 MB
    "MG.C": 6.7,        # 3426 MB
    "pgbench": 5.0,     # > 2 GB
    "indexer": 4.5,     # > 2 GB
    "SPECjbb": 6.0,     # 3 GB
    "SPEC2006": 5.6,    # 2.87 GB mixture
}

#: the granularity axis of Figs 11-14
GRANULARITIES = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB)

#: the swap-interval axis (accesses per epoch)
SWAP_INTERVALS = (1_000, 10_000, 100_000)

#: default trace length per workload (accesses)
DEFAULT_ACCESSES = 1_200_000
#: trace length of the ``fast`` presets
FAST_ACCESSES = 400_000


def migration_config(onpkg_paper_mb: int = 512, **migration_kwargs) -> SystemConfig:
    """The scaled Table III system.

    ``onpkg_paper_mb`` is the paper-units on-package capacity (Fig 15
    sweeps 128/256/512 MB); it is divided by ``MIGRATION_SCALE`` like
    everything else.
    """
    cfg = scaled_config(MIGRATION_SCALE)
    cfg = SystemConfig(
        total_bytes=cfg.total_bytes,
        onpkg_bytes=onpkg_paper_mb * MB // MIGRATION_SCALE,
    )
    if migration_kwargs:
        cfg = cfg.with_migration(**migration_kwargs)
    return cfg


def scaled_footprint(workload: str, onpkg_bytes: int | None = None) -> int:
    """This workload's footprint in the scaled geometry.

    Capped just below the total memory size: the paper's FT.C/DC.B
    footprints nominally exceed the 4 GB trace-study memory too — the
    resident set must fit, minus the reserved Ω macro page.
    """
    if onpkg_bytes is None:
        onpkg_bytes = 512 * MB // MIGRATION_SCALE
    total = 4 * GB // MIGRATION_SCALE
    ratio = FOOTPRINT_RATIO.get(workload, 5.0)
    footprint = min(int(onpkg_bytes * ratio), total - 4 * MB)
    # round to a whole number of 4 KB blocks
    return max(4096, footprint // 4096 * 4096)


@lru_cache(maxsize=32)
def _migration_trace(
    workload: str, n: int, seed: int, onpkg_bytes: int | None
) -> TraceChunk:
    return generate_trace(
        workload, n, seed, footprint_bytes=scaled_footprint(workload, onpkg_bytes)
    )


def migration_trace(
    workload: str, n: int, seed: int = 0, onpkg_bytes: int | None = None
) -> TraceChunk:
    """Cached scaled trace for one migration-study workload.

    The cache is per process and keyed positionally, so ``f(w, n)`` and
    ``f(w, n, seed=0)`` return the same object.
    """
    return _migration_trace(workload, n, seed, onpkg_bytes)


def migration_stream(
    workload: str,
    n: int,
    seed: int = 0,
    onpkg_bytes: int | None = None,
    *,
    chunk_accesses: int,
):
    """Streamed scaled trace for one migration-study workload.

    Unlike :func:`migration_trace` this never materializes the full
    trace (and never touches its cache): chunks are generated on
    demand with O(``chunk_accesses`` + phase) memory, for feeding
    :meth:`repro.core.simulator.EpochSimulator.run_stream` on very
    long runs. Pick ``chunk_accesses`` as a
    multiple of the simulator's ``swap_interval``
    (:func:`repro.trace.stream.aligned_chunk_size`) so chunk boundaries
    coincide with epoch boundaries.

    ``SPEC2006`` is a multiprogrammed mixture without a generator-side
    stream; it falls back to chunk views over the materialized mixture
    (O(trace) memory, same consumer protocol).
    """
    from ..trace.stream import iter_chunks
    from ..workloads.registry import get_workload

    footprint = scaled_footprint(workload, onpkg_bytes)
    if workload == "SPEC2006":
        trace = migration_trace(workload, n, seed, onpkg_bytes)
        return iter_chunks(trace, chunk_accesses)
    wl = get_workload(workload, footprint_bytes=footprint)
    return wl.stream(n, seed, chunk_accesses=chunk_accesses)


# ---------------------------------------------------------------------------
# Section II (Simics-style) presets: Fig 4 / Fig 5
# ---------------------------------------------------------------------------

#: divide the paper's capacities (8 MB L3, 1 GB on-package, Table I
#: footprints) by this for the cache/IPC study
CPU_SCALE = 64

#: Fig 4's x-axis in paper units (bytes); scaled by CPU_SCALE when run
FIG4_CAPACITIES = (8 * MB, 16 * MB, 32 * MB, 64 * MB, 128 * MB,
                   256 * MB, 512 * MB, 1 * GB)

#: the paper's on-package capacity for Section II (1 GB)
SECTION2_ONPKG = 1 * GB


@lru_cache(maxsize=16)
def _npb_trace(workload: str, n: int, seed: int) -> TraceChunk:
    from ..workloads.npb import NPB_FOOTPRINTS_MB

    footprint = max(4096, NPB_FOOTPRINTS_MB[workload] * MB // CPU_SCALE)
    return generate_trace(workload, n, seed, footprint_bytes=footprint)


def npb_trace(workload: str, n: int, seed: int = 0) -> TraceChunk:
    """Cached scaled NPB trace for the Fig 4/5 study (per process, like
    :func:`migration_trace`)."""
    return _npb_trace(workload, n, seed)


def all_migration_workloads() -> tuple[str, ...]:
    return MIGRATION_STUDY_WORKLOADS
