"""Vectorised DRAM model: per-bank FIFO queue + open-page row hits.

For each bank the departure time of request *i* obeys the Lindley-style
recursion ``D_i = max(a_i, D_{i-1}) + s_i`` with service time ``s_i``
(row hit or conflict, decided in arrival order against the previous
request's row). Writing ``S_i = cumsum(s)`` gives

    ``D_i = S_i + cummax_{j<=i}(a_j - S_{j-1})``

which is one sort, one cumsum and one running maximum — no Python-level
per-access loop. A fused multi-segment call
(:meth:`FastDevice.service_segmented`) stays exact when the finite-queue
carry cap binds at a segment boundary: a second pass over the same
sorted arrays restarts the recursion per (queue, segment) group and
threads the capped carry between groups. The FIFO order (instead of
FR-FCFS's hit-first reordering) slightly *underestimates* row-hit rates
under load;
``tests/test_dram.py::TestDeviceCrossValidation`` bounds the
disagreement against the event-driven reference.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .refresh import RefreshSchedule
from .timing import DramGeometry

_INT64_MAX = int(np.iinfo(np.int64).max)


def _cummax_restarted(t: np.ndarray, labels: np.ndarray, label_max: int) -> np.ndarray:
    """Running max of ``t`` in place, restarted wherever ``labels`` changes.

    ``labels`` is non-decreasing and non-negative. Each label's values are
    offset by ``label * BIG`` (``BIG`` = the span of ``t``), so a plain
    cummax cannot leak across a restart, and the offset is removed after.
    Raises :class:`SimulationError` where an offset value would not fit
    int64, instead of returning wrapped values. Returns the offset array,
    a free buffer for the caller.
    """
    hi = int(t.max())
    big = hi - int(t.min()) + 1
    if max(hi, 0) + label_max * big > _INT64_MAX:
        raise SimulationError(
            f"arrival span {big} too wide for one vectorised pass over "
            f"{label_max + 1} restarts; split the call"
        )
    shift = np.multiply(labels, np.int64(big), dtype=np.int64)
    t += shift
    np.maximum.accumulate(t, out=t)
    t -= shift
    return shift


class FastDevice:
    """Vectorised open-page FIFO DRAM region model."""

    def __init__(self, geometry: DramGeometry):
        self.geometry = geometry
        self.row_hits = 0
        self.row_conflicts = 0
        #: with refresh enabled, the whole recursion (including the
        #: persistent ``_ready`` carry) runs on the warp's useful clock;
        #: wall latencies are recovered at the end of each pass
        self._refresh = RefreshSchedule.from_timing(geometry.timing)
        # persistent per-queue state so successive chunks continue seamlessly
        nq = geometry.n_queues
        self._open_row = np.full(nq, -1, dtype=np.int64)
        self._ready = np.zeros(nq, dtype=np.int64)

    def reset(self) -> None:
        self._open_row[:] = -1
        self._ready[:] = 0
        self.row_hits = 0
        self.row_conflicts = 0

    def service(self, addr: np.ndarray, arrivals: np.ndarray) -> np.ndarray:
        """Per-access latency (cycles), aligned with the input order."""
        addr = np.asarray(addr, dtype=np.int64)
        arrivals = np.asarray(arrivals, dtype=np.int64)
        if addr.shape != arrivals.shape:
            raise SimulationError("addr and arrivals must align")
        n = addr.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if np.any(arrivals[1:] < arrivals[:-1]):
            raise SimulationError("arrivals must be non-decreasing")
        return self._service_core(addr, arrivals, None)

    def service_segmented(
        self, addr: np.ndarray, arrivals: np.ndarray, seg_starts: np.ndarray
    ) -> np.ndarray:
        """Many consecutive :meth:`service` calls fused into one.

        Semantically **bit-identical** to calling ``service`` once per
        segment ``[seg_starts[i], seg_starts[i+1])`` in order (the fused
        epoch loop's contract). ``arrivals`` must be non-decreasing
        across the whole call; unlike :meth:`service` this is not
        re-checked (the epoch loop already checks time order once per
        chunk). The sequential path carries ``min(depart, arrival + cap)``
        per queue across each segment boundary, while one Lindley pass
        propagates the uncapped departure. Where the cap binds at an
        interior boundary, :meth:`_exact_group_waits` finishes the call
        exactly from the already sorted arrays.
        """
        addr = np.asarray(addr, dtype=np.int64)
        arrivals = np.asarray(arrivals, dtype=np.int64)
        if addr.shape != arrivals.shape:
            raise SimulationError("addr and arrivals must align")
        n = addr.shape[0]
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        seg_starts = np.asarray(seg_starts, dtype=np.int64)
        if seg_starts.size == 0 or seg_starts[0] != 0:
            raise SimulationError("seg_starts must begin with 0")
        if seg_starts.size == 1:
            return self.service(addr, arrivals)
        seg_of = np.repeat(
            np.arange(seg_starts.size, dtype=np.int64),
            np.diff(np.concatenate([seg_starts, [n]])),
        )
        return self._service_core(addr, arrivals, seg_of)

    def _service_core(self, addr, arrivals, seg_of) -> np.ndarray:
        """The vectorised service pass over validated non-empty inputs.

        With ``seg_of`` (per-access segment id), the result equals one
        sequential call per segment (see :meth:`service_segmented`).
        """
        n = addr.shape[0]
        timing = self.geometry.timing
        wall_arrivals = None
        if self._refresh is not None:
            # run the whole recursion on the useful clock: refresh
            # windows vanish from the timeline, so a request queued or
            # mid-service across a tREFI boundary is suspended for tRFC
            # exactly like the event-driven Bank model. The warp is a
            # pure function of global time, so it commutes with segment
            # boundaries and the fused-exactness contract is unchanged.
            wall_arrivals = arrivals  # repro-domain: wall_cycles - pre-warp instants
            arrivals = self._refresh.useful_np(arrivals)
        queues, rows = self.geometry.queues_and_rows(addr)

        # Every full-width temporary here is a fresh multi-MB allocation
        # (page-fault pass included), so freed buffers are recycled via
        # np.take(..., out=...) / ufunc out= below.

        # group by queue, stable so within-queue order == arrival order;
        # queue ids are tiny, and stable argsort is a radix sort whose
        # cost scales with key width — cast to the narrowest dtype
        nq = self.geometry.n_queues
        if nq <= 1 << 8:
            sort_key = queues.astype(np.uint8)
        elif nq <= 1 << 16:
            sort_key = queues.astype(np.uint16)
        else:
            sort_key = queues
        order = np.argsort(sort_key, kind="stable")
        q_sorted = np.take(sort_key, order)  # narrow gathers + comparisons
        rows_sorted = np.take(rows, order)
        arr_sorted = np.take(arrivals, order, out=queues)  # queues buffer free

        # row hit iff same row as previous request in the same queue;
        # the first request of a queue compares against persistent state
        first_of_queue = np.empty(n, dtype=bool)
        first_of_queue[0] = True
        np.not_equal(q_sorted[1:], q_sorted[:-1], out=first_of_queue[1:])
        # at most n_queues segment starts -> integer indexing beats
        # re-scanning the boolean mask at every use
        f_idx = np.flatnonzero(first_of_queue)
        q_first = q_sorted[f_idx]
        hit = np.empty(n, dtype=bool)
        hit[0] = False
        np.equal(rows_sorted[1:], rows_sorted[:-1], out=hit[1:])
        hit[f_idx] = rows_sorted[f_idx] == self._open_row[q_first]

        service = np.empty(n, dtype=np.int64)
        service[:] = timing.miss_cycles
        if timing.hit_cycles != timing.miss_cycles:
            service[hit] = timing.hit_cycles

        # Lindley per queue, vectorised across the whole sorted array by
        # restarting the cumsum/cummax at queue boundaries.
        # segment-local inclusive cumsum: subtract, from the global cumsum,
        # its value just before each segment start (forward-filled — valid
        # because cumsum is non-decreasing so a running max forward-fills)
        cs = np.cumsum(service, out=rows)  # rows buffer free after the gather
        base_ff = np.empty(n, dtype=np.int64)
        base_ff[:] = np.int64(np.iinfo(np.int64).min)
        base_ff[f_idx] = cs[f_idx] - service[f_idx]
        np.maximum.accumulate(base_ff, out=base_ff)
        S = np.subtract(cs, base_ff, out=cs)  # inclusive segment-local cumsum

        # t_i = a_i - S_{i-1}; for segment starts S_{i-1} (local) = 0 but the
        # queue may still be busy from an earlier chunk -> fold persistent
        # readiness in by treating it as a virtual arrival floor
        # (at those entries S - service == 0, so the floor applies directly)
        t = np.subtract(arr_sorted, S, out=base_ff)  # base_ff buffer free
        t += service
        t[f_idx] = np.maximum(arr_sorted[f_idx], self._ready[q_first])
        # segmented cummax: reset the running max at each queue start;
        # q_sorted itself is a valid sorted restart label
        shift = _cummax_restarted(t, q_sorted, int(q_sorted[-1]))
        run = t
        depart = np.add(S, run, out=shift)  # shift buffer free
        latency_sorted = np.subtract(depart, arr_sorted, out=S)  # S buffer free
        cap = timing.max_queue_wait

        # persisted per queue: last row, and the backlog carried into the
        # next call, bounded by the finite-queue proxy so an overload
        # episode cannot grow the queue without limit
        l_idx = np.empty_like(f_idx)
        l_idx[:-1] = f_idx[1:] - 1
        l_idx[-1] = n - 1
        carried = None
        if seg_of is not None:
            # at a segment boundary the sequential path carries
            # min(depart, arrival + cap) into the next segment while the
            # pass above propagates the uncapped departure — they agree
            # unless the cap binds at the last access of a queue *inside*
            # an interior boundary (latency_sorted is still uncapped here)
            seg_sorted = np.take(seg_of, order, out=run)  # run buffer free
            boundary = np.empty(n, dtype=bool)
            np.not_equal(seg_sorted[1:], seg_sorted[:-1], out=boundary[:-1])
            # bool a & ~b == a > b, without materialising ~b
            np.greater(boundary[:-1], first_of_queue[1:], out=boundary[:-1])
            b_idx = np.flatnonzero(boundary[:-1])
            if b_idx.size and bool((latency_sorted[b_idx] > cap).any()):
                # (queue, segment) group starts, in the now unused mask
                group_start = first_of_queue
                group_start[1:] |= boundary[:-1]
                carried = self._exact_group_waits(
                    service, arr_sorted, group_start, f_idx, q_first, latency_sorted
                )
        if carried is None:
            carried = np.minimum(depart[l_idx], arr_sorted[l_idx] + cap)

        # finite-queue backpressure proxy: cap the reported queuing wait
        np.minimum(latency_sorted, service + cap, out=latency_sorted)
        self._open_row[q_first] = rows_sorted[l_idx]
        self._ready[q_first] = carried

        nh = int(np.count_nonzero(hit))
        self.row_hits += nh
        self.row_conflicts += n - nh

        latency = np.empty(n, dtype=np.int64)
        latency[order] = latency_sorted
        if wall_arrivals is not None:
            # useful-domain departure -> wall clock: every refresh
            # window overlapped by the wait or the service shows up in
            # the reported latency
            latency += arrivals  # = useful-domain departures, input order
            latency = self._refresh.wall_np(latency)
            latency -= wall_arrivals
        return latency

    def _exact_group_waits(  # repro-domain: arr_sorted=useful_cycles
        self, service, arr_sorted, group_start, f_idx, q_first, out
    ) -> np.ndarray:
        """Uncapped waits of a fused call whose carry cap binds, into ``out``.

        The inputs are the queue-sorted arrays of :meth:`_service_core`;
        a group is one queue's accesses within one segment. Per group,
        with summed service ``A``, group-local inclusive cumsum ``S`` and
        the idle-queue Lindley run ``run`` (the running max of
        ``a_j - S_{j-1}`` restarted at the group), carry-in ``x`` gives
        departures ``S + max(run, x)`` and the capped carry-out
        ``min(max(x + A, B), C)`` with ``B = A + run_last`` and
        ``C = a_last + cap``. A loop over group rank within each queue
        (at most the number of segments), vectorised across queues,
        threads ``x`` from the queue's persisted readiness. Returns the
        carry-out of each queue's last group, aligned with ``q_first``.
        """
        n = service.shape[0]
        cap = self.geometry.timing.max_queue_wait
        g_idx = np.flatnonzero(group_start)
        n_groups = g_idx.size
        g_len = np.diff(g_idx, append=n)
        g_last = g_idx + g_len - 1

        S = np.cumsum(service)
        S -= np.repeat(S[g_idx] - service[g_idx], g_len)
        run = np.subtract(arr_sorted, S, out=out)
        run += service  # a_j - S_{j-1}, and a_j itself at each group start
        labels = np.repeat(np.arange(n_groups, dtype=np.int64), g_len)
        _cummax_restarted(run, labels, n_groups - 1)
        A = S[g_last]
        B = A + run[g_last]  # repro-domain: useful_cycles - idle-queue departure
        C = arr_sorted[g_last] + cap  # repro-domain: useful_cycles

        # the groups of one queue as a row, padded with the identity
        # carry map (A = 0, B = -inf, C = +inf) out to the longest row
        q_start = np.searchsorted(g_idx, f_idx)  # each queue's first group
        q_pos = np.repeat(np.arange(q_start.size), np.diff(q_start, append=n_groups))
        rank = np.arange(n_groups) - q_start[q_pos]
        shape = (q_start.size, int(rank.max()) + 1)
        A_pad = np.zeros(shape, dtype=np.int64)
        B_pad = np.full(shape, np.iinfo(np.int64).min, dtype=np.int64)
        C_pad = np.full(shape, _INT64_MAX, dtype=np.int64)
        A_pad[q_pos, rank] = A
        B_pad[q_pos, rank] = B
        C_pad[q_pos, rank] = C
        x_pad = np.empty(shape, dtype=np.int64)
        carry = self._ready[q_first]  # repro-domain: useful_cycles
        for r in range(shape[1]):
            x_pad[:, r] = carry
            carry = np.minimum(np.maximum(carry + A_pad[:, r], B_pad[:, r]), C_pad[:, r])

        x = np.repeat(x_pad[q_pos, rank], g_len)
        np.maximum(run, x, out=run)
        run += S  # departures
        run -= arr_sorted
        return carry

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_conflicts
        return self.row_hits / total if total else 0.0
