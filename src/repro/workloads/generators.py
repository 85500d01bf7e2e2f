"""Vectorised access-pattern primitives.

Each primitive returns an array of *byte addresses* inside
``[0, footprint)``. They are combined by :mod:`repro.workloads.base`
into phased workload models. All primitives draw from a caller-supplied
``numpy.random.Generator`` so workloads are reproducible by seed.

The primitives work in place: each arithmetic step writes into an array
the primitive already owns, and each temporary is dropped before the
next draw, so a streamed run can build the coming phase parts beside
the chunk being simulated without doubling its peak memory. Their output
and the draws they consume are pinned, bit for bit, to the allocating
versions kept in ``tests/generators_reference.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError

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
    """Blocks -> byte addresses with a random line offset inside the block.

    Consumes ``blocks``: an int64 array is overwritten with the result.
    """
    lines = rng.integers(0, BLOCK // LINE, size=blocks.shape[0])
    lines *= LINE
    addrs = blocks.astype(np.int64, copy=False)
    addrs *= BLOCK
    addrs += lines
    return addrs


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
    ranks = rng.zipf(alpha, size=n)
    ranks -= 1
    if spread_blocks > 1:
        # zipf over *groups* of spread_blocks, uniform inside the group:
        # page-level heat without single-block (single-DRAM-row) hotspots
        np.minimum(ranks, n_blocks // spread_blocks - 1, out=ranks)
        ranks *= spread_blocks
        ranks += rng.integers(0, spread_blocks, size=n)
    np.minimum(ranks, n_blocks - 1, out=ranks)
    if permutation is None:
        permutation = rng.permutation(n_blocks)
    elif permutation.shape[0] != n_blocks:
        raise WorkloadError("permutation length must equal block count")
    blocks = permutation[ranks]
    del ranks
    return _to_bytes(blocks, rng)


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
    blocks = np.cumsum(~is_hot, dtype=np.int64)
    blocks -= 1
    blocks *= stride_blocks
    blocks += start_block
    blocks %= n_blocks
    if alpha > 1.0:
        ranks = rng.zipf(alpha, size=n)
        ranks -= 1
        np.minimum(ranks, hot_blocks - 1, out=ranks)
    else:
        # alpha <= 1: uniform over the hot set — reuse distances then sit
        # at the hot-set size (the L4 catchment zone) instead of collapsing
        # onto a few ultra-hot lines the L1/L2 already capture
        ranks = rng.integers(0, hot_blocks, size=n)
    hot_idx = permutation[ranks]
    del ranks
    np.copyto(blocks, hot_idx, where=is_hot)
    addrs = _to_bytes(blocks, rng)
    # hot data (tables, twiddle factors) is reused at *line* granularity:
    # restrict each hot block to a few deterministic lines so line-level
    # reuse survives even in short scaled traces
    hot_addr = hot_idx * 7
    hot_addr += rng.integers(0, 4, size=n)
    hot_addr %= BLOCK // LINE
    hot_addr *= LINE
    hot_idx *= BLOCK
    hot_addr += hot_idx
    np.copyto(addrs, hot_addr, where=is_hot)
    return addrs


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
    part = rng.zipf(partition_alpha, size=n)
    part -= 1
    np.minimum(part, n_partitions - 1, out=part)
    # scatter hot partitions across the address space — popularity rank
    # must not correlate with address, or a static lowest-addresses
    # mapping would trivially capture the hot set
    if rotate_partitions:
        part = rng.permutation(n_partitions)[part]
    else:
        part *= 2654435761
        part %= n_partitions
    blocks_per_part = n_blocks // n_partitions
    local = rng.zipf(intra_alpha, size=n)
    local -= 1
    np.minimum(local, blocks_per_part - 1, out=local)
    # scatter hot blocks within each partition deterministically
    local *= 2654435761
    local %= blocks_per_part
    blocks = part  # in place: the partition's first block, then the block
    blocks *= blocks_per_part
    blocks += local
    del local
    # index/tuple reuse is line-dense: restrict each block to a few
    # deterministic lines so reuse survives at line granularity
    line = blocks * 7
    line += rng.integers(0, 4, size=n)
    line %= BLOCK // LINE
    line *= LINE
    blocks *= BLOCK
    blocks += line
    return blocks


def mix(
    n: int,
    rng: np.random.Generator,
    parts: list[tuple[float, np.ndarray]],
) -> np.ndarray:
    """Interleave pre-generated address streams with given weights.

    ``parts`` is ``[(weight, addresses), ...]``; each stream must have at
    least the number of records its weight implies. Selection is random
    per access, preserving each stream's internal order.
    """
    if not parts:
        raise WorkloadError("mix needs at least one part")
    weights = np.array([w for w, _ in parts], dtype=float)
    if (weights <= 0).any():
        raise WorkloadError("mix weights must be positive")
    weights /= weights.sum()
    choice = rng.choice(len(parts), size=n, p=weights)
    out = np.empty(n, dtype=np.int64)
    for i, (_, addrs) in enumerate(parts):
        mask = choice == i
        k = int(mask.sum())
        if k > addrs.shape[0]:
            raise WorkloadError(f"mix part {i} too short: needs {k}, has {addrs.shape[0]}")
        out[mask] = addrs[:k]
    return out
