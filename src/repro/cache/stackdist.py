"""Mattson LRU stack-distance analysis.

One pass over a reference stream yields, for every access, the number of
*distinct* lines touched since the previous access to the same line (the
LRU stack distance; cold misses get distance infinity). A fully
associative LRU cache of C lines then misses exactly the accesses with
distance >= C — so a single profile prices **every** capacity at once.
That inclusion property is what Fig 4's 8 MB -> 1 GB sweep and the
hierarchy's level filtering are built on.

Implementation: classic offline algorithm — a Fenwick (binary indexed)
tree over access positions counts surviving "last occurrences" between
an access and the previous touch of its line. O(n log n), with the inner
loop kept tight (plain ints, no numpy scalar overhead).
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

#: distance assigned to cold (first-touch) accesses
COLD = np.iinfo(np.int64).max


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """Per-access LRU stack distances of a line-granular reference stream."""
    lines = np.asarray(lines, dtype=np.int64)
    n = lines.shape[0]
    dist = np.empty(n, dtype=np.int64)
    if n == 0:
        return dist

    # compress line ids to 0..u-1
    _, inv = np.unique(lines, return_inverse=True)
    last = {}  # compressed line -> last position
    tree = [0] * (n + 1)  # Fenwick over positions, 1-based

    def bit_add(i: int, v: int) -> None:
        i += 1
        while i <= n:
            tree[i] += v
            i += i & (-i)

    def bit_sum(i: int) -> int:  # prefix sum of [0, i]
        i += 1
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    inv_list = inv.tolist()  # plain ints: ~3x faster inner loop
    out = dist  # local alias
    total_marks = 0
    for pos, line in enumerate(inv_list):
        prev = last.get(line)
        if prev is None:
            out[pos] = COLD
        else:
            # distinct lines touched strictly after prev: marks in (prev, pos)
            out[pos] = total_marks - bit_sum(prev)
            bit_add(prev, -1)
            total_marks -= 1
        bit_add(pos, 1)
        total_marks += 1
        last[line] = pos
    return dist


class StackDistanceProfile:
    """A computed profile with capacity queries.

    Parameters
    ----------
    addresses:
        Byte addresses of the reference stream.
    line_bytes:
        Cache line size used to form the line stream.
    """

    def __init__(self, addresses: np.ndarray, line_bytes: int = 64):
        if line_bytes <= 0:
            raise SimulationError("line_bytes must be positive")
        self.line_bytes = line_bytes
        self.lines = np.asarray(addresses, dtype=np.int64) // line_bytes
        self.distances = stack_distances(self.lines)
        self.n = self.lines.shape[0]

    def miss_count(self, capacity_bytes: int) -> int:
        """Misses of a fully associative LRU cache of this capacity."""
        c_lines = max(1, capacity_bytes // self.line_bytes)
        return int((self.distances >= c_lines).sum())

    def miss_rate(self, capacity_bytes: int) -> float:
        return self.miss_count(capacity_bytes) / self.n if self.n else 0.0

    def miss_mask(self, capacity_bytes: int) -> np.ndarray:
        """Boolean mask of the accesses that miss at this capacity —
        i.e. the post-cache (filtered) reference stream."""
        c_lines = max(1, capacity_bytes // self.line_bytes)
        return self.distances >= c_lines

    def miss_rates(self, capacities_bytes: list[int]) -> list[float]:
        """Miss rate at each capacity — one sort instead of k scans."""
        if self.n == 0:
            return [0.0 for _ in capacities_bytes]
        sorted_d = np.sort(self.distances)
        out = []
        for c in capacities_bytes:
            c_lines = max(1, c // self.line_bytes)
            idx = np.searchsorted(sorted_d, c_lines, side="left")
            out.append((self.n - int(idx)) / self.n)
        return out
