"""Trace record layout.

One record per main-memory access (post-LLC, as in the paper's
trace-based methodology): 48-bit physical address, CPU id, cycle
timestamp, and read/write flag.
"""

from __future__ import annotations

import numpy as np

from ..errors import TraceError

#: read/write flag values
READ: int = 0
WRITE: int = 1

#: structured dtype of one access record
TRACE_DTYPE = np.dtype(
    [
        ("addr", np.int64),   # physical byte address
        ("cpu", np.int16),    # originating core
        ("time", np.int64),   # core-cycle timestamp
        ("rw", np.int8),      # READ or WRITE
    ]
)


class TraceChunk:
    """A contiguous, time-ordered slice of a memory trace.

    Thin wrapper over a structured numpy array providing validation and
    convenient field views (views, not copies).
    """

    __slots__ = ("records",)

    def __init__(self, records: np.ndarray, *, validate: bool = True):
        if records.dtype != TRACE_DTYPE:
            raise TraceError(f"expected dtype {TRACE_DTYPE}, got {records.dtype}")
        self.records = records
        if validate:
            self.validate()

    # -- field views ------------------------------------------------------
    @property
    def addr(self) -> np.ndarray:
        return self.records["addr"]

    @property
    def cpu(self) -> np.ndarray:
        return self.records["cpu"]

    @property
    def time(self) -> np.ndarray:
        return self.records["time"]

    @property
    def rw(self) -> np.ndarray:
        return self.records["rw"]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, key) -> "TraceChunk":
        """Sub-chunk by slice or mask (never a scalar index).

        Aliasing contract: a **slice** key returns a zero-copy *view*
        over the same records — mutating the parent's records mutates
        the slice and vice versa (this is what makes the epoch loop
        allocation-free). Mask / fancy-index keys return a fresh copy
        (plain numpy semantics). A caller that intends to mutate a
        sliced chunk must take an explicit ``.copy()`` first.
        """
        if isinstance(key, (int, np.integer)):
            raise TraceError("index a TraceChunk with slices/masks, not scalars")
        return TraceChunk(self.records[key], validate=False)

    def __eq__(self, other) -> bool:
        return isinstance(other, TraceChunk) and np.array_equal(self.records, other.records)

    def validate(self) -> None:
        """Check invariants: addresses non-negative, time non-decreasing,
        rw flags in {READ, WRITE}."""
        r = self.records
        if len(r) == 0:
            return
        if r["addr"].min() < 0:
            raise TraceError("negative physical address in trace")
        t = r["time"]
        if np.any(t[1:] < t[:-1]):
            raise TraceError("trace timestamps are not non-decreasing")
        bad = (r["rw"] != READ) & (r["rw"] != WRITE)
        if bad.any():
            raise TraceError("rw flag must be READ(0) or WRITE(1)")

    def copy(self) -> "TraceChunk":
        return TraceChunk(self.records.copy(), validate=False)

    def __repr__(self) -> str:
        n = len(self)
        if n == 0:
            return "TraceChunk(empty)"
        return (
            f"TraceChunk(n={n}, time=[{self.time[0]}..{self.time[-1]}], "
            f"writes={int((self.rw == WRITE).sum())})"
        )


def make_chunk(addr, time=None, cpu=0, rw=READ, *, validate: bool = True) -> TraceChunk:
    """Build a :class:`TraceChunk` from field arrays (broadcasting scalars).

    ``time`` defaults to ``arange(n)`` — one access per cycle.
    """
    addr = np.asarray(addr, dtype=np.int64)
    n = addr.shape[0]
    records = np.empty(n, dtype=TRACE_DTYPE)
    records["addr"] = addr
    records["time"] = np.arange(n, dtype=np.int64) if time is None else np.asarray(time, dtype=np.int64)
    records["cpu"] = np.broadcast_to(np.asarray(cpu, dtype=np.int16), (n,))
    records["rw"] = np.broadcast_to(np.asarray(rw, dtype=np.int8), (n,))
    return TraceChunk(records, validate=validate)
