"""Reference for the access-pattern primitives and per-part stamping.

These are :mod:`repro.workloads.generators`' primitives and
``SyntheticWorkload._stamp_part`` as they stood before generation worked
in place: every step allocates a fresh array. They live under ``tests/``
only, as the oracle ``test_generators_differential.py`` compares the
in-place primitives against bit for bit (outputs and RNG state), and as
the parts of :func:`reference_stream`, a sequential stream with no
producer thread. No library code path uses them.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import WorkloadError
from repro.trace.record import READ, WRITE, TraceChunk, make_chunk
from repro.trace.stream import rechunk
from repro.workloads.base import PatternSpec, SyntheticWorkload, rotate_permutation

#: granularity at which patterns select locations; accesses then get a
#: random cache-line offset inside the block so row-buffer behaviour is
#: realistic without the pattern arrays being huge.
BLOCK = 4096
LINE = 64


def _check(n: int, footprint: int) -> int:
    if n < 0:
        raise WorkloadError("n must be non-negative")
    if footprint < BLOCK:
        raise WorkloadError(f"footprint {footprint} smaller than one {BLOCK}B block")
    return footprint // BLOCK


def _to_bytes(blocks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Blocks -> byte addresses with a random line offset inside the block."""
    lines = rng.integers(0, BLOCK // LINE, size=blocks.shape[0])
    return blocks * BLOCK + lines * LINE


def zipf_hot(
    n: int,
    footprint: int,
    rng: np.random.Generator,
    *,
    alpha: float = 1.1,
    permutation: np.ndarray | None = None,
    spread_blocks: int = 1,
) -> np.ndarray:
    """Zipf-distributed block popularity over the footprint.

    ``permutation`` maps popularity rank -> block id; pass a stable
    permutation to keep the *same* hot set across calls, or a fresh one
    to rotate it. Hot blocks are scattered across the address space (not
    clustered at low addresses) so a static lowest-addresses-on-package
    mapping gains little — matching the paper's motivation for dynamic
    migration.
    """
    n_blocks = _check(n, footprint)
    if alpha <= 1.0:
        raise WorkloadError("zipf alpha must be > 1")
    if spread_blocks <= 0 or spread_blocks > n_blocks:
        raise WorkloadError("spread_blocks must be in [1, n_blocks]")
    ranks = rng.zipf(alpha, size=n) - 1
    if spread_blocks > 1:
        # zipf over *groups* of spread_blocks, uniform inside the group:
        # page-level heat without single-block (single-DRAM-row) hotspots
        np.minimum(ranks, n_blocks // spread_blocks - 1, out=ranks)
        ranks = ranks * spread_blocks + rng.integers(0, spread_blocks, size=n)
    np.minimum(ranks, n_blocks - 1, out=ranks)
    if permutation is None:
        permutation = rng.permutation(n_blocks)
    elif permutation.shape[0] != n_blocks:
        raise WorkloadError("permutation length must equal block count")
    return _to_bytes(permutation[ranks], rng)


def make_hot_permutation(
    footprint: int, rng: np.random.Generator, cluster_blocks: int = 64
) -> np.ndarray:
    """A rank->block permutation usable with :func:`zipf_hot`.

    Permutes *clusters* of ``cluster_blocks`` (default 256 KB) rather
    than single blocks: hot data in real programs is spatially clustered
    (arrays, tables, heap arenas), so adjacent popularity ranks map to
    adjacent blocks within a randomly-placed cluster. Without this,
    hotness is uniform at every macro-page granularity and page-level
    migration has nothing to chase. Clusters themselves land anywhere in
    the address space, so a static lowest-addresses mapping still cannot
    capture the hot set.
    """
    n_blocks = footprint // BLOCK
    if n_blocks <= cluster_blocks:
        return rng.permutation(n_blocks)
    n_clusters = n_blocks // cluster_blocks
    cluster_perm = rng.permutation(n_clusters)
    ranks = np.arange(n_clusters * cluster_blocks, dtype=np.int64)
    perm = cluster_perm[ranks // cluster_blocks] * cluster_blocks + ranks % cluster_blocks
    tail = np.arange(n_clusters * cluster_blocks, n_blocks, dtype=np.int64)
    return np.concatenate([perm, tail])


def sequential_stream(
    n: int,
    footprint: int,
    rng: np.random.Generator,
    *,
    start_block: int | None = None,
    stride_blocks: int = 1,
) -> np.ndarray:
    """Wrap-around streaming walk (unit or strided), e.g. FFT sweeps.

    ``start_block`` defaults to a random position: a sweep that restarts
    at address 0 every phase would hand the lowest addresses artificial
    heat, which a static lowest-addresses-on-package mapping would then
    capture — a bias real workloads don't have.
    """
    n_blocks = _check(n, footprint)
    if stride_blocks == 0:
        raise WorkloadError("stride must be non-zero")
    if start_block is None:
        start_block = int(rng.integers(0, n_blocks))
    idx = (start_block + stride_blocks * np.arange(n, dtype=np.int64)) % n_blocks
    return _to_bytes(idx, rng)


def stream_with_hot(
    n: int,
    footprint: int,
    rng: np.random.Generator,
    *,
    permutation: np.ndarray,
    stride_blocks: int = 1,
    start_block: int | None = None,
    hot_weight: float = 0.4,
    hot_fraction: float = 0.1,
    alpha: float = 1.1,
) -> np.ndarray:
    """A streaming sweep interleaved with touches to a persistent hot set.

    The hot set is the first ``hot_fraction`` of the popularity
    permutation — scattered across the address space and stable across
    phases. Interleaving puts the hot-set reuse distances at roughly the
    hot-set size: bigger than an L2/L3 but within a GB-class L4 — the
    FT-style behaviour Section II's L4-vs-static comparison hinges on.
    """
    n_blocks = _check(n, footprint)
    if not 0.0 < hot_weight < 1.0 or not 0.0 < hot_fraction <= 1.0:
        raise WorkloadError("hot_weight in (0,1) and hot_fraction in (0,1] required")
    hot_blocks = max(1, int(n_blocks * hot_fraction))
    if start_block is None:
        start_block = int(rng.integers(0, n_blocks))
    is_hot = rng.random(n) < hot_weight
    # the stream advances only on stream accesses
    stream_steps = np.cumsum(~is_hot) - 1
    stream_idx = (start_block + stride_blocks * stream_steps) % n_blocks
    if alpha > 1.0:
        ranks = np.minimum(rng.zipf(alpha, size=n) - 1, hot_blocks - 1)
    else:
        # alpha <= 1: uniform over the hot set — reuse distances then sit
        # at the hot-set size (the L4 catchment zone) instead of collapsing
        # onto a few ultra-hot lines the L1/L2 already capture
        ranks = rng.integers(0, hot_blocks, size=n)
    hot_idx = permutation[ranks]
    addrs = _to_bytes(np.where(is_hot, hot_idx, stream_idx), rng)
    # hot data (tables, twiddle factors) is reused at *line* granularity:
    # restrict each hot block to a few deterministic lines so line-level
    # reuse survives even in short scaled traces
    lines_per_block = BLOCK // LINE
    hot_line = (hot_idx * 7 + rng.integers(0, 4, size=n)) % lines_per_block
    hot_addr = hot_idx * BLOCK + hot_line * LINE
    return np.where(is_hot, hot_addr, addrs)


def uniform_random(n: int, footprint: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random blocks — the locality-free worst case (mcf-like)."""
    n_blocks = _check(n, footprint)
    return _to_bytes(rng.integers(0, n_blocks, size=n), rng)


def pointer_chase(
    n: int,
    footprint: int,
    rng: np.random.Generator,
    *,
    jump_scale_blocks: int = 1024,
) -> np.ndarray:
    """A random walk with heavy-tailed jumps — linked-structure traversal.

    Produces short runs of nearby accesses punctuated by long jumps
    (gcc/mcf-style pointer chasing) without a per-access Python loop:
    the walk is a cumulative sum of i.i.d. two-sided Pareto-ish steps.
    """
    n_blocks = _check(n, footprint)
    signs = rng.choice(np.array([-1, 1]), size=n)
    magnitude = np.rint(jump_scale_blocks / rng.pareto(1.5, size=n).clip(min=0.05)).astype(np.int64)
    steps = signs * np.minimum(magnitude, n_blocks)
    walk = (rng.integers(0, n_blocks) + np.cumsum(steps)) % n_blocks
    return _to_bytes(walk, rng)


def gaussian_cluster(
    n: int,
    footprint: int,
    rng: np.random.Generator,
    *,
    center_block: int,
    sigma_blocks: float,
) -> np.ndarray:
    """Accesses clustered around a centre — a grid level in multigrid."""
    n_blocks = _check(n, footprint)
    blocks = np.rint(rng.normal(center_block, sigma_blocks, size=n)).astype(np.int64) % n_blocks
    return _to_bytes(blocks, rng)


def transactional(
    n: int,
    footprint: int,
    rng: np.random.Generator,
    *,
    n_partitions: int = 16,
    partition_alpha: float = 1.3,
    intra_alpha: float = 1.2,
    rotate_partitions: bool = False,
) -> np.ndarray:
    """OLTP-style accesses: pick a partition (warehouse/table) by zipf,
    then a zipf-hot block inside it — SPECjbb/pgbench-style.

    ``rotate_partitions`` re-draws which partitions are hot on every
    call (phase): warehouse churn. A migration controller then has to
    chase the hot set instead of locking onto it once.
    """
    n_blocks = _check(n, footprint)
    if n_partitions <= 0 or n_partitions > n_blocks:
        raise WorkloadError("invalid partition count")
    part = np.minimum(rng.zipf(partition_alpha, size=n) - 1, n_partitions - 1)
    # scatter hot partitions across the address space — popularity rank
    # must not correlate with address, or a static lowest-addresses
    # mapping would trivially capture the hot set
    if rotate_partitions:
        part = rng.permutation(n_partitions)[part]
    else:
        part = (part * 2654435761) % n_partitions
    blocks_per_part = n_blocks // n_partitions
    local = np.minimum(rng.zipf(intra_alpha, size=n) - 1, blocks_per_part - 1)
    # scatter hot blocks within each partition deterministically
    local = (local * 2654435761) % blocks_per_part
    blocks = part * blocks_per_part + local
    # index/tuple reuse is line-dense: restrict each block to a few
    # deterministic lines so reuse survives at line granularity
    lines_per_block = BLOCK // LINE
    line = (blocks * 7 + rng.integers(0, 4, size=n)) % lines_per_block
    return blocks * BLOCK + line * LINE


def _stamp_part(
    self,
    addr: np.ndarray,
    part_index: int,
    offset: int,
    t_start: int,
    base_seed: int,
) -> TraceChunk:
    """Stamp one phase part with times/cpus/rw from a part-derived RNG."""
    k = addr.shape[0]
    srng = np.random.default_rng((base_seed, part_index))
    in_burst = srng.random(k) < self.burst_fraction
    gaps = np.where(
        in_burst,
        srng.geometric(1.0 / self.burst_gap, size=k),
        srng.geometric(1.0 / self._long_gap_mean(), size=k),
    ).astype(np.int64)
    time = t_start + np.cumsum(gaps)
    cpu = (
        np.arange(offset, offset + k, dtype=np.int64)
        + srng.integers(0, self.n_cpus, size=k)
    ) % self.n_cpus
    rw = np.where(srng.random(k) < self.write_fraction, WRITE, READ)
    return make_chunk(
        addr, time=time, cpu=cpu.astype(np.int16), rw=rw.astype(np.int8),
        validate=False,
    )


def generate_pattern(
    spec: PatternSpec,
    n: int,
    footprint: int,
    rng: np.random.Generator,
    permutation: np.ndarray,
) -> np.ndarray:
    """:meth:`PatternSpec.generate`, dispatched to the reference primitives."""
    if spec.kind == "zipf":
        return zipf_hot(n, footprint, rng, permutation=permutation, **spec.params)
    if spec.kind == "stream":
        return sequential_stream(n, footprint, rng, **spec.params)
    if spec.kind == "stream_hot":
        return stream_with_hot(n, footprint, rng, permutation=permutation, **spec.params)
    if spec.kind == "random":
        return uniform_random(n, footprint, rng)
    if spec.kind == "chase":
        return pointer_chase(n, footprint, rng, **spec.params)
    if spec.kind == "cluster":
        return gaussian_cluster(n, footprint, rng, **spec.params)
    return transactional(n, footprint, rng, **spec.params)


def reference_stream(
    wl: SyntheticWorkload,
    n: int,
    seed: int = 0,
    *,
    chunk_accesses: int | None = None,
    start_time: int = 0,
):
    """:meth:`SyntheticWorkload.stream` built sequentially, in the
    consumer's thread, from the reference primitives."""

    def parts():
        base_seed = zlib.crc32(wl.name.encode()) ^ seed
        rng = np.random.default_rng(base_seed)
        perm = make_hot_permutation(wl.footprint_bytes, rng)
        offset = 0
        t_cursor = start_time
        for part_index, (phase, k) in enumerate(wl._part_sizes(n)):
            addr = generate_pattern(phase.pattern, k, wl.footprint_bytes, rng, perm)
            if phase.drift > 0:
                perm = rotate_permutation(perm, phase.drift, rng)
            chunk = _stamp_part(wl, addr, part_index, offset, t_cursor, base_seed)
            offset += k
            t_cursor = int(chunk.time[-1])
            yield chunk

    if chunk_accesses is None:
        return parts()
    return rechunk(parts(), chunk_accesses)
