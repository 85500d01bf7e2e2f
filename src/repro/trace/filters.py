"""Trace transformations: windows, downsampling, multiprogrammed merges.

``interleave`` is how the paper's *SPEC2006 Mixture* workload is formed:
four single-program traces (gcc, mcf, perl, zeusmp) merged by timestamp
into one multiprogrammed stream, each given a disjoint address slice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TraceError
from .record import TRACE_DTYPE, TraceChunk


def concat(chunks: Sequence[TraceChunk]) -> TraceChunk:
    """Concatenate already time-ordered chunks into one."""
    if not chunks:
        return TraceChunk(np.empty(0, dtype=TRACE_DTYPE), validate=False)
    out = TraceChunk(np.concatenate([c.records for c in chunks]))
    return out


def time_window(chunk: TraceChunk, start: int, end: int) -> TraceChunk:
    """Records with ``start <= time < end`` (binary search — O(log n))."""
    if end < start:
        raise TraceError(f"empty window [{start}, {end})")
    lo = int(np.searchsorted(chunk.time, start, side="left"))
    hi = int(np.searchsorted(chunk.time, end, side="left"))
    return chunk[lo:hi]


def downsample(chunk: TraceChunk, keep_every: int) -> TraceChunk:
    """Keep every ``keep_every``-th record (systematic sampling)."""
    if keep_every <= 0:
        raise TraceError("keep_every must be positive")
    return chunk[::keep_every]


def interleave(
    chunks: Sequence[TraceChunk],
    *,
    cpu_ids: Sequence[int] | None = None,
    offsets: Sequence[int] | None = None,
) -> TraceChunk:
    """Merge per-program traces into one multiprogrammed trace.

    Parameters
    ----------
    chunks:
        One trace per program, each time-ordered.
    cpu_ids:
        CPU id to stamp on each program's records (defaults to 0,1,2,...).
    offsets:
        Byte offset added to each program's addresses so their footprints
        occupy disjoint regions (defaults to 0 for all — caller's choice).

    Records are merged by timestamp with a stable sort, so simultaneous
    accesses keep program order.
    """
    if not chunks:
        return TraceChunk(np.empty(0, dtype=TRACE_DTYPE), validate=False)
    if cpu_ids is None:
        cpu_ids = list(range(len(chunks)))
    if offsets is None:
        offsets = [0] * len(chunks)
    if not (len(chunks) == len(cpu_ids) == len(offsets)):
        raise TraceError("chunks, cpu_ids and offsets must have equal length")

    parts = []
    for chunk, cpu, off in zip(chunks, cpu_ids, offsets):
        # detach before stamping cpu/addr — the caller's chunk must
        # survive unmodified
        rec = chunk.records.copy()  # repro-lint: disable=hot-path-copy
        rec["cpu"] = cpu
        rec["addr"] += off
        parts.append(rec)
    merged = np.concatenate(parts)
    merged = merged[np.argsort(merged["time"], kind="stable")]
    return TraceChunk(merged)
