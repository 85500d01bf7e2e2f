"""Reference for :meth:`repro.workloads.base.SyntheticWorkload.generate`.

This is ``generate`` as it stood before it wrote into preallocated
records: the phase parts are concatenated, and every stamping stream is
drawn for the whole trace in one call. It lives under ``tests/`` only,
as the oracle ``test_generate_differential.py`` compares
the blocked implementation against; no library code path uses it.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.trace.record import READ, WRITE, TraceChunk, make_chunk
from repro.workloads import generators as g
from repro.workloads.base import SyntheticWorkload, rotate_permutation


def reference_generate(
    self: SyntheticWorkload, n: int, seed: int = 0, *, start_time: int = 0
) -> TraceChunk:
    """Produce ``n`` accesses as a validated :class:`TraceChunk`."""
    # zlib.crc32 is stable across processes (str hash() is salted)
    rng = np.random.default_rng(zlib.crc32(self.name.encode()) ^ seed)
    perm = g.make_hot_permutation(self.footprint_bytes, rng)

    parts: list[np.ndarray] = []
    for phase, k in self._part_sizes(n):
        parts.append(phase.pattern.generate(k, self.footprint_bytes, rng, perm))
        if phase.drift > 0:
            perm = rotate_permutation(perm, phase.drift, rng)

    addr = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    # bursty arrivals: post-LLC miss streams come in clusters (MLP,
    # row-buffer runs) separated by compute gaps. A burst access is a
    # few cycles after its predecessor; the long-gap mean is chosen so
    # the overall mean gap equals cycles_per_access.
    in_burst = rng.random(n) < self.burst_fraction
    long_mean = max(
        1.0,
        (self.cycles_per_access - self.burst_fraction * self.burst_gap)
        / max(1e-9, 1.0 - self.burst_fraction),
    )
    gaps = np.where(
        in_burst,
        rng.geometric(1.0 / self.burst_gap, size=n),
        rng.geometric(1.0 / long_mean, size=n),
    ).astype(np.int64)
    time = start_time + np.cumsum(gaps)
    cpu = (np.arange(n, dtype=np.int64) + rng.integers(0, self.n_cpus, size=n)) % self.n_cpus
    rw = np.where(rng.random(n) < self.write_fraction, WRITE, READ)
    return make_chunk(addr, time=time, cpu=cpu.astype(np.int16), rw=rw.astype(np.int8))
