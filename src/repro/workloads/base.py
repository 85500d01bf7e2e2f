"""Workload model framework.

A :class:`SyntheticWorkload` is a footprint, a read/write mix, an access
arrival rate, and a cycle of *phases*. Each phase emits addresses from
one pattern primitive; between phases the zipf hot set *drifts* (a
fraction of the popularity permutation is reshuffled). Hot-set drift is
what makes dynamic migration matter: a static mapping captures only the
initial hot pages, while the migration controller follows the drift.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError
from ..trace.record import READ, TRACE_DTYPE, WRITE, TraceChunk
from . import generators as g

#: accesses per block in which :meth:`SyntheticWorkload.generate` draws
#: its stamping streams (the size of its per-stream temporaries)
STAMP_BLOCK = 1 << 16


#: name prefix of the thread on which :meth:`SyntheticWorkload.stream`
#: builds phase parts ahead
PRODUCER_NAME = "workload-stream"


def _fill(out: np.ndarray, draw) -> None:
    """Write ``draw(a, b)`` into ``out[a:b]``, one block at a time."""
    n = out.shape[0]
    for a in range(0, n, STAMP_BLOCK):
        b = min(a + STAMP_BLOCK, n)
        out[a:b] = draw(a, b)


@dataclass(frozen=True)
class PatternSpec:
    """One access-pattern primitive plus its parameters."""

    kind: str     # zipf | stream | stream_hot | random | chase | cluster | txn
    params: dict = field(default_factory=dict)

    _KINDS = ("zipf", "stream", "stream_hot", "random", "chase", "cluster", "txn")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise WorkloadError(f"unknown pattern kind {self.kind!r}")

    def generate(
        self,
        n: int,
        footprint: int,
        rng: np.random.Generator,
        permutation: np.ndarray,
    ) -> np.ndarray:
        if self.kind == "zipf":
            return g.zipf_hot(n, footprint, rng, permutation=permutation, **self.params)
        if self.kind == "stream":
            return g.sequential_stream(n, footprint, rng, **self.params)
        if self.kind == "stream_hot":
            return g.stream_with_hot(n, footprint, rng, permutation=permutation, **self.params)
        if self.kind == "random":
            return g.uniform_random(n, footprint, rng)
        if self.kind == "chase":
            return g.pointer_chase(n, footprint, rng, **self.params)
        if self.kind == "cluster":
            return g.gaussian_cluster(n, footprint, rng, **self.params)
        if self.kind == "txn":
            return g.transactional(n, footprint, rng, **self.params)
        raise WorkloadError(f"unknown pattern kind {self.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class PhaseSpec:
    """A phase: a weighted pattern within the workload's phase cycle."""

    pattern: PatternSpec
    weight: float = 1.0
    #: fraction of the hot-set permutation reshuffled when this phase ends
    drift: float = 0.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError("phase weight must be positive")
        if not 0.0 <= self.drift <= 1.0:
            raise WorkloadError("drift must be in [0, 1]")


def rotate_permutation(perm: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Reshuffle a random ``fraction`` of a permutation's positions."""
    if fraction <= 0.0:
        return perm
    n = perm.shape[0]
    k = max(2, int(n * min(fraction, 1.0)))
    idx = rng.choice(n, size=k, replace=False)
    out = perm.copy()
    out[idx] = perm[idx[rng.permutation(k)]]
    return out


@dataclass(frozen=True)
class SyntheticWorkload:
    """A named, reproducible synthetic memory workload.

    Parameters
    ----------
    name:
        Registry name (e.g. ``"FT.C"``).
    footprint_bytes:
        Total touched memory (Table I / Table III values by default).
    phases:
        The phase cycle; repeated until ``n`` accesses are produced.
    write_fraction:
        Probability an access is a WRITE.
    cycles_per_access:
        Mean inter-arrival gap in core cycles (memory intensity).
    phase_len:
        Accesses per phase instance.
    n_cpus:
        Cores issuing accesses (stamped round-robin with jitter).
    """

    name: str
    footprint_bytes: int
    phases: tuple[PhaseSpec, ...]
    write_fraction: float = 0.25
    cycles_per_access: float = 20.0
    phase_len: int = 200_000
    n_cpus: int = 4
    #: fraction of accesses arriving in back-to-back bursts
    burst_fraction: float = 0.85
    #: mean intra-burst gap (cycles)
    burst_gap: float = 3.0

    def __post_init__(self) -> None:
        if not self.phases:
            raise WorkloadError(f"{self.name}: needs at least one phase")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError("write_fraction must be in [0, 1]")
        if self.cycles_per_access <= 0 or self.phase_len <= 0 or self.n_cpus <= 0:
            raise WorkloadError("rates and sizes must be positive")
        if not 0.0 <= self.burst_fraction < 1.0 or self.burst_gap < 1.0:
            raise WorkloadError("burst_fraction must be in [0,1) and burst_gap >= 1")
        if self.cycles_per_access <= self.burst_fraction * self.burst_gap:
            raise WorkloadError("cycles_per_access too small for the burst model")

    def _part_sizes(self, n: int):
        """The deterministic phase-part decomposition of an ``n``-access
        run — shared by :meth:`generate` and :meth:`stream` so both walk
        the phase cycle (and drift the hot set) identically."""
        weights = np.array([p.weight for p in self.phases], dtype=float)
        weights /= weights.sum()
        produced = 0
        phase_i = 0
        while produced < n:
            phase = self.phases[phase_i % len(self.phases)]
            k = min(self.phase_len, n - produced)
            # phases share the cycle proportionally to weight
            k = max(1, int(round(k * weights[phase_i % len(self.phases)] * len(self.phases))))
            k = min(k, n - produced)
            yield phase, k
            produced += k
            phase_i += 1

    def generate(self, n: int, seed: int = 0, *, start_time: int = 0) -> TraceChunk:
        """Produce ``n`` accesses as a validated :class:`TraceChunk`.

        Writes into one preallocated record array: memory above the
        trace is O(``phase_len`` + :data:`STAMP_BLOCK`).
        """
        if n < 0:
            raise WorkloadError("n must be non-negative")
        # zlib.crc32 is stable across processes (str hash() is salted)
        rng = np.random.default_rng(zlib.crc32(self.name.encode()) ^ seed)
        perm = g.make_hot_permutation(self.footprint_bytes, rng)

        records = np.empty(n, dtype=TRACE_DTYPE)
        off = 0
        for phase, k in self._part_sizes(n):
            records["addr"][off:off + k] = phase.pattern.generate(
                k, self.footprint_bytes, rng, perm
            )
            off += k
            if phase.drift > 0:
                perm = rotate_permutation(perm, phase.drift, rng)

        # bursty arrivals: post-LLC miss streams come in clusters (MLP,
        # row-buffer runs) separated by compute gaps. A burst access is a
        # few cycles after its predecessor; the long-gap mean is chosen so
        # the overall mean gap equals cycles_per_access. Each stamping
        # stream is drawn over the whole trace before the next (that
        # order fixes the output), in blocks that bound the temporaries.
        # The rw field is drawn last, so until then it holds the 0/1
        # in-burst flags.
        in_burst = records["rw"]
        _fill(in_burst, lambda a, b: rng.random(b - a) < self.burst_fraction)
        time = records["time"]
        _fill(time, lambda a, b: rng.geometric(1.0 / self.burst_gap, size=b - a))
        long_p = 1.0 / self._long_gap_mean()
        _fill(time, lambda a, b: np.where(
            in_burst[a:b] != 0, time[a:b], rng.geometric(long_p, size=b - a)
        ))
        # gaps -> times: each block's running sum starts from the time the
        # previous block (already written) ended on
        _fill(time, lambda a, b: np.cumsum(time[a:b]) + (time[a - 1] if a else start_time))
        _fill(records["cpu"], lambda a, b: (
            np.arange(a, b, dtype=np.int64) + rng.integers(0, self.n_cpus, size=b - a)
        ) % self.n_cpus)
        _fill(records["rw"], lambda a, b: np.where(
            rng.random(b - a) < self.write_fraction, WRITE, READ
        ))
        return TraceChunk(records)

    def _long_gap_mean(self) -> float:
        return max(
            1.0,
            (self.cycles_per_access - self.burst_fraction * self.burst_gap)
            / max(1e-9, 1.0 - self.burst_fraction),
        )

    def _stamp_part(
        self,
        addr: np.ndarray,
        part_index: int,
        offset: int,
        t_start: int,
        base_seed: int,
    ) -> TraceChunk:
        """Stamp one phase part with times/cpus/rw from a part-derived RNG,
        writing every field straight into one record array."""
        k = addr.shape[0]
        srng = np.random.default_rng((base_seed, part_index))
        records = np.empty(k, dtype=TRACE_DTYPE)
        records["addr"] = addr
        del addr
        in_burst = srng.random(k) < self.burst_fraction
        gaps = srng.geometric(1.0 / self.burst_gap, size=k)
        np.copyto(gaps, srng.geometric(1.0 / self._long_gap_mean(), size=k), where=~in_burst)
        del in_burst
        np.cumsum(gaps, out=gaps)
        gaps += t_start
        records["time"] = gaps
        del gaps
        cpu = np.arange(offset, offset + k, dtype=np.int64)
        cpu += srng.integers(0, self.n_cpus, size=k)
        cpu %= self.n_cpus
        records["cpu"] = cpu
        del cpu
        # the comparison's True/False store as WRITE (1) / READ (0)
        records["rw"] = srng.random(k) < self.write_fraction
        return TraceChunk(records, validate=False)

    def stream(
        self,
        n: int,
        seed: int = 0,
        *,
        chunk_accesses: int | None = None,
        start_time: int = 0,
    ):
        """Yield ``n`` accesses as :class:`TraceChunk` windows without
        ever materializing the full trace (peak memory is
        O(``chunk_accesses`` + three of the run's largest phase parts),
        independent of ``n``).

        Generation runs ahead on a producer thread: whenever the consumer
        takes a part, the thread is handed the next parts in order until
        the parts handed over but not yet taken hold at least as many
        accesses as the largest part of the run. Uniform parts (FT.C)
        thus stay exactly one part ahead; uneven ones (pgbench's txn,
        stream and zipf) queue up to a phase cycle, so the small parts do
        not leave the consumer waiting for a whole large part to start.
        numpy's draws and elementwise passes release the GIL, so the two
        overlap on two cores. The overlap pays only where a second core
        is free; pinned to one CPU the two contend for it, at no
        measurable cost: the stall-n benchmark workload (FT.C) read
        2.95 M accesses/s with the thread against 2.88 M for a sequential
        build (medians of 10 alternating runs, overlapping spreads, on
        one core of a shared 2-CPU x86-64 Xeon host), and pinned
        swap-heavy (pgbench) read 1.22 M with this lookahead against
        1.19 M one part ahead (20 alternating runs). Only that
        thread touches the address RNG, the hot-set permutation and the
        stamping RNGs; the consumer receives finished chunks, so the
        records are the same as a sequential build's. The thread starts
        at the first ``next()``, not when ``stream`` is called. When the
        stream is exhausted or closed (a garbage-collected stream is
        closed), the queued builds that have not started are cancelled
        and the thread is joined after the one in progress. A
        :class:`WorkloadError` raised while building part *k* re-raises
        at the consumer's ``next()`` for part *k*, after parts 0..k-1.

        The *address* sequence is bit-identical to :meth:`generate`
        (same address RNG, same phase-part walk, same hot-set drift).
        The time/cpu/rw stamps come from per-part derived RNGs instead
        of the tail of the shared stream — :meth:`generate` draws its
        stamping arrays for the whole trace *after* all addresses, which
        would force O(n) memory — so stamps differ from :meth:`generate`
        but are **chunk-size invariant**: the yielded content depends
        only on ``(n, seed, start_time)``, never on ``chunk_accesses``.

        ``chunk_accesses`` should be a multiple of the simulator's
        ``swap_interval`` (see :func:`repro.trace.stream.aligned_chunk_size`)
        so chunk boundaries coincide with epoch boundaries; ``None``
        yields natural phase-part-sized chunks.
        """
        from ..trace.stream import rechunk

        if n < 0:
            raise WorkloadError("n must be non-negative")

        def parts():
            base_seed = zlib.crc32(self.name.encode()) ^ seed
            rng = np.random.default_rng(base_seed)
            perm = g.make_hot_permutation(self.footprint_bytes, rng)
            offset = 0
            t_cursor = start_time
            for part_index, (phase, k) in enumerate(self._part_sizes(n)):
                # the addresses go straight into the call, so they are
                # freed once copied into the records, before the stamping
                # draws; drift draws from rng, stamping from its own RNG,
                # so drifting after stamping changes no output
                chunk = self._stamp_part(
                    phase.pattern.generate(k, self.footprint_bytes, rng, perm),
                    part_index, offset, t_cursor, base_seed,
                )
                if phase.drift > 0:
                    perm = rotate_permutation(perm, phase.drift, rng)
                offset += k
                t_cursor = int(chunk.time[-1])
                yield chunk

        def ahead():
            # imported at the first next(): a run that never streams does
            # not pay for concurrent.futures (and the logging it loads)
            from collections import deque
            from concurrent.futures import ThreadPoolExecutor

            # the producer thread builds parts() in order, submitted while
            # the parts not yet taken hold fewer accesses than the largest
            # part. The refill comes before the yield, so the thread works
            # while the consumer does (refilled after it, stall-n lost a
            # third of its throughput). Leaving (exhausted, closed or
            # failed) cancels the queued builds and joins the thread after
            # the one in progress
            source = parts()
            sizes = (k for _, k in self._part_sizes(n))
            largest = max((k for _, k in self._part_sizes(n)), default=0)
            pending = deque()  # (future, accesses) per part not yet taken
            producer = ThreadPoolExecutor(1, thread_name_prefix=PRODUCER_NAME)

            def refill():
                while sum(k for _, k in pending) < largest and (k := next(sizes, 0)):
                    pending.append((producer.submit(next, source), k))

            try:
                refill()
                while pending:
                    chunk = pending.popleft()[0].result()
                    refill()
                    yield chunk
            finally:
                producer.shutdown(cancel_futures=True)

        if chunk_accesses is None:
            return ahead()
        return rechunk(ahead(), chunk_accesses)
