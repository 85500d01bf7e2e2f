"""Live data-content shadow memory for the runtime simulator.

:mod:`repro.analysis.protocol` checks the swap protocol *statically*
against a symbolic versioned memory. This module is the same model made
*live*: a :class:`ShadowMemory` mirrors every macro page's data as
per-4KB-sub-block ``(page, write_generation)`` cells, the epoch loop
feeds it every routed demand access, and the migration
engine feeds it every copy its plans perform — at the cycle the copy
lands, so a read that races a half-landed fill is checked against what
the machine location *actually holds at that time*.

The model is deliberately identical to the checker's ``_Machine``:

* locations are ``("slot", i)`` / ``("mach", p)`` / ``("buf", 0)``;
* a copy first kills any write-forwarding link through its destination,
  then lands its sub-blocks;
* a fully-landed copy opens a forwarding link — the on-chip controller
  re-sends stores that hit the source of a still-uncommitted copy — and
  all of a plan's links die when the plan completes;
* a write bumps the page/sub-block generation and lands at the access's
  resolved location (plus any live forwarding link from it);
* a read is checked against the expected ``(page, generation)``; a
  mismatch is recorded as a :class:`DataViolation` (never raised — the
  harness asserts on the collected list).

Timing: :meth:`ShadowMemory.feed` only buffers an epoch's routed
accesses; :meth:`ShadowMemory.process` resolves the whole buffer and the
engine's time-ordered op queue in one vectorised pass. Each queued op is
placed before the first buffered access with an equal-or-later timestamp
(``times >= ready`` is how the controller serves a landed sub-block, so
an op with ``time <= access_time`` has landed), never before its
*floor* — the number of accesses already buffered when it was scheduled,
since an op scheduled after an access cannot have landed before it — and
never before an op queued ahead of it. Ops later than the buffer stay
queued. Every other method resolves the buffer first, so state read
between passes is always current. Accesses to the reserved page Ω (and
to RAS spares) carry no architectural data and are ignored.

The shadow is pure bookkeeping: it never influences routing, timing or
any simulated number, and it reads no serviced latency, so DRAM service
still flushes once per chunk. ``EpochSimulator(track_data=True)`` wires
it in; the default leaves every code path byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..migration.table import Location, TranslationTable


@dataclass(frozen=True)
class DataViolation:
    """One demand read that returned something other than the last write."""

    time: int
    page: int
    subblock: int
    location: Location
    #: what the resolved location held: (page, generation), or None (garbage)
    found: tuple[int, int] | None
    #: the (page, generation) the read should have returned
    expected: tuple[int, int]

    def format(self) -> str:
        holds = (
            "garbage"
            if self.found is None
            else f"page {self.found[0]} g{self.found[1]}"
        )
        return (
            f"t={self.time}: read page {self.page} sub-block {self.subblock} "
            f"resolved to {self.location} holding {holds}, expected "
            f"page {self.page} g{self.expected[1]}"
        )


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(lo[k], hi[k])`` for every k (empty if lo >= hi)."""
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    if not total:
        return np.zeros(0, dtype=np.int64)
    starts = np.cumsum(counts) - counts
    return np.repeat(lo - starts, counts) + np.arange(total, dtype=np.int64)


class ShadowMemory:
    """Versioned data-content mirror of the whole machine memory.

    Cells are two flat arrays, page and generation, indexed by
    ``location_index * n_subblocks + subblock``: slots first, then
    ``("mach", p)``, then ``("buf", 0)``. Page −1 is garbage.
    """

    def __init__(self, table: TranslationTable):
        self.amap = table.amap
        n_sb = self.n_subblocks = self.amap.subblocks_per_page
        n_pages = self.amap.n_total_pages
        self._n_slots = table.n_slots
        self._buf_index = table.n_slots + n_pages
        n_locs = self._buf_index + 1
        #: the table's dataless pages (Ω and any RAS spares), as a mask
        self._dead = np.zeros(n_pages, dtype=bool)
        self._dead[sorted(table.dataless_pages)] = True
        #: per-cell (page, generation); page -1 = garbage
        self._page = np.full(n_locs * n_sb, -1, dtype=np.int64)
        self._gen = np.zeros(n_locs * n_sb, dtype=np.int64)
        #: locations the model has touched (the checkpoint's ``contents``)
        self._held = np.zeros(n_locs, dtype=bool)
        #: page * n_subblocks + subblock -> last written generation
        self._generation = np.zeros(n_pages * n_sb, dtype=np.int64)
        self.violations: list[DataViolation] = []
        self.reads = 0
        self.writes = 0
        #: live write-forwarding links as (src, dst) location indices
        self._links: list[tuple[int, int]] = []
        #: engine ops: (time, kind, payload, floor); kinds are "copy"
        #: (src, dst, subblocks|None), "link" (src, dst), "close" ()
        self._ops: list[tuple[int, str, tuple, int]] = []
        #: fed-but-unresolved access arrays, and how many accesses they hold
        self._buffer: list[tuple] = []
        self._buffered = 0
        for page in np.flatnonzero(~self._dead).tolist():
            idx = self._index(table.location(page))
            self._page[idx * n_sb:(idx + 1) * n_sb] = page
            self._held[idx] = True

    # ------------------------------------------------------------------
    # locations
    # ------------------------------------------------------------------
    def _index(self, loc: Location) -> int:
        kind, i = loc
        if kind == "slot":
            return i
        if kind == "mach":
            return self._n_slots + i
        return self._buf_index

    def _location(self, idx: int) -> Location:
        if idx < self._n_slots:
            return ("slot", idx)
        if idx < self._buf_index:
            return ("mach", idx - self._n_slots)
        return ("buf", 0)

    def _cell(self, loc: Location, sb):
        """Flat cell index of ``loc``'s sub-block(s) ``sb``; marks it held."""
        idx = self._index(loc)
        self._held[idx] = True
        return idx * self.n_subblocks + sb

    @property
    def generation(self) -> dict[tuple[int, int], int]:
        """(page, subblock) -> last written generation, written cells only."""
        self.process()
        keys = np.flatnonzero(self._generation)
        pages, sbs = np.divmod(keys, self.n_subblocks)
        return dict(zip(
            zip(pages.tolist(), sbs.tolist()), self._generation[keys].tolist()
        ))

    # ------------------------------------------------------------------
    # memory primitives (identical semantics to analysis.protocol._Machine)
    # ------------------------------------------------------------------
    def apply_copy(
        self,
        src: Location,
        dst: Location,
        subblocks: tuple[int, ...] | None = None,
    ) -> None:
        """One engine copy lands (whole page, or the given sub-blocks)."""
        self.process()
        self._copy(src, dst, subblocks)

    def _copy(self, src: Location, dst: Location, subblocks) -> None:
        s, d = self._index(src), self._index(dst)
        # the first byte landing at dst kills any older copy stream
        # through that location
        self._links = [link for link in self._links if d not in link]
        sbs = (
            np.arange(self.n_subblocks) if subblocks is None
            else np.asarray(subblocks, dtype=np.int64)
        )
        src_cells, dst_cells = self._cell(src, sbs), self._cell(dst, sbs)
        self._page[dst_cells] = self._page[src_cells]
        self._gen[dst_cells] = self._gen[src_cells]

    def corrupt(
        self, loc: Location, subblocks: tuple[int, ...], time: int | None = None
    ) -> int:
        """Physical bit flips land at ``loc`` (row-disturbance model).

        The named sub-blocks become garbage, exactly like the checker's
        torn-copy residue: the next demand read resolving there — or the
        final :meth:`verify_table` sweep — records a
        :class:`DataViolation`. Engine ops landed by ``time`` are
        flushed first so the flips hit what the location holds *then*.
        Returns the number of cells newly corrupted (already-garbage
        cells don't recount).
        """
        self.flush(time)
        hit = 0
        for cell in self._cell(loc, np.array(subblocks, dtype=np.int64)).tolist():
            if self._page[cell] >= 0:
                self._page[cell] = -1
                self._gen[cell] = 0
                hit += 1
        return hit

    def scrub_page(self, page: int, loc: Location) -> None:
        """Hypervisor scrub on tenant release: overwrite ``page`` in place.

        Models the zero-fill a hypervisor performs before re-assigning a
        freed page window: every sub-block gets a *new* write generation
        landed at the page's resolved location, so a later tenant reading
        the recycled window sees hypervisor-initialised content, not the
        departed tenant's residue. Skipping the scrub leaves the old
        cells in place — and because they still carry a matching
        ``(page, generation)``, the shadow alone cannot see the leak;
        that cross-tenant flow is what the tenancy isolation oracle
        exists to catch.
        """
        self.process()
        n_sb = self.n_subblocks
        gens = self._generation[page * n_sb:(page + 1) * n_sb]
        gens += 1
        cells = self._cell(loc, np.arange(n_sb))
        self._page[cells] = page
        self._gen[cells] = gens

    # ------------------------------------------------------------------
    # engine-side op queue
    # ------------------------------------------------------------------
    def schedule(self, time: int, kind: str, payload: tuple) -> None:
        """Queue an op to apply before any later-fed access at ``>= time``.

        The op's floor is the number of accesses buffered now: it lands
        after every one of them, whatever its time. Ops are applied in
        queue order (the engine walks each plan forward, and a new plan
        only schedules once the previous one's window has closed).
        """
        self._ops.append((int(time), kind, payload, self._buffered))

    def _apply(self, kind: str, payload: tuple) -> None:
        if kind == "copy":
            self._copy(*payload)
        elif kind == "link":
            src, dst = payload
            self._links.append((self._index(src), self._index(dst)))
        else:
            self._links.clear()

    def flush(self, until: int | None = None) -> None:
        """Apply every queued op with ``time <= until`` (None: all)."""
        self.process()
        ops = self._ops
        k = 0
        while k < len(ops) and (until is None or ops[k][0] <= until):
            self._apply(ops[k][1], ops[k][2])
            k += 1
        del ops[:k]

    def drop_pending(self) -> None:
        """Cancel not-yet-landed ops (quarantine quiesces the copy engine)."""
        self.process()
        self._ops.clear()
        self._links.clear()

    # ------------------------------------------------------------------
    # controller-side demand stream
    # ------------------------------------------------------------------
    def feed(self, times, pages, subblocks, on, machine, writes) -> None:
        """Buffer one time-ordered run of routed accesses.

        All six arguments are parallel per-access arrays; ``on`` and
        ``machine`` are the controller's resolution (timeline and fill
        refinements already applied) at the *original* access times. The
        arrays are kept by reference until :meth:`process`, so the
        caller must not overwrite them before then.
        """
        self._buffer.append((times, pages, subblocks, on, machine, writes))
        self._buffered += len(times)

    def process(self) -> None:
        """Check/record every buffered access in one vectorised pass.

        The queued ops that land inside the buffer get sequence numbers
        between the accesses; writes, forwarded writes and copies become
        value events on cells; one sort by (cell, sequence) gives each
        read the last value its cell held before it. Afterwards
        :attr:`violations`, :attr:`reads` and :attr:`writes` are
        complete and the buffer holds no array.
        """
        buffer, n = self._buffer, self._buffered
        self._buffer, self._buffered = [], 0
        if n:
            self._resolve(*(
                c[0] if len(c) == 1 else np.concatenate(c) for c in zip(*buffer)
            ))

    def _resolve(self, times, pages, subblocks, on, machine, writes) -> None:
        n_sb = self.n_subblocks
        writes = writes.astype(bool, copy=False)
        taken, pos = self._take_ops(times)
        n, m = len(times), len(taken)
        span = n + m + 1  # sequence numbers lie in [0, n + m)
        # op j goes just before access pos[j], after the ops ahead of it
        op_seq = pos + np.arange(m)
        seq = np.arange(n) + np.cumsum(np.bincount(pos, minlength=n))

        # Ω and RAS spares carry no data
        dead = self._dead[pages]
        if dead.any():
            live = np.flatnonzero(~dead)
            times, pages, subblocks, on, machine, writes, seq = (
                a[live] for a in (times, pages, subblocks, on, machine, writes, seq)
            )
        loc = np.where(on, machine, machine + self._n_slots)
        cell = loc * n_sb + subblocks
        self._held[loc] = True
        expected = self._expected_generations(pages * n_sb + subblocks, writes)
        intervals, copy_src, copy_dst, copy_seq = self._walk_ops(
            taken, op_seq.tolist(), span
        )

        # value events: writes and forwarded writes carry a literal value;
        # a copy takes its source cell's value as of its sequence number
        # (the cell's pre-pass value unless an event lands there earlier)
        w = np.flatnonzero(writes)
        fwd_from, fwd_dst = self._forwards(w, loc, seq, intervals, span)
        lit = np.concatenate([w, fwd_from])
        ev_cell = np.concatenate(
            [cell[w], fwd_dst * n_sb + subblocks[fwd_from], copy_dst]
        )
        ev_key = ev_cell * span + np.concatenate([seq[lit], copy_seq])
        ev_page = np.concatenate([pages[lit], self._page[copy_src]])
        ev_gen = np.concatenate([expected[lit], self._gen[copy_src]])

        # one sort orders the value events and the reads by (cell, seq);
        # events sharing a key carry the same value (a write and its
        # forward to the same cell, or duplicate links), so any order
        # among them is as good as a stable one
        r = np.flatnonzero(~writes)
        n_ev = len(ev_key)
        merged = np.argsort(np.concatenate([ev_key, cell[r] * span + seq[r]]))
        is_ev = merged < n_ev
        order = merged[is_ev]
        # sorted events, plus a trailing sentinel that index -1 hits
        ev_key = ev_key[order]
        ev_cell = np.append(ev_cell[order], -1)

        # each copy reads its source cell's last earlier event, if any;
        # chains (slot -> buf -> mach) resolve by pointer jumping
        ref = np.searchsorted(ev_key, copy_src * span + copy_seq) - 1
        has_ref = ev_cell[ref] == copy_src
        rank = np.empty_like(order)
        rank[order] = np.arange(n_ev)
        ptr = np.arange(n_ev)
        ptr[rank[len(lit):][has_ref]] = ref[has_ref]
        while True:
            nxt = ptr[ptr]
            if np.array_equal(nxt, ptr):
                break
            ptr = nxt
        ev_page = np.append(ev_page[order][ptr], 0)
        ev_gen = np.append(ev_gen[order][ptr], 0)

        # reads, in (cell, seq) order: the cell's last value event
        # before the read, else its pre-pass value
        rs = r[merged[~is_ev] - n_ev]
        at = (np.cumsum(is_ev) - 1)[~is_ev]
        r_cell = cell[rs]
        hit = ev_cell[at] == r_cell
        found_page = np.where(hit, ev_page[at], self._page[r_cell])
        found_gen = np.where(hit, ev_gen[at], self._gen[r_cell])
        bad = np.flatnonzero((found_page != pages[rs]) | (found_gen != expected[rs]))
        bad = bad[np.argsort(rs[bad])]  # access order
        for a, fp, fg in zip(
            rs[bad].tolist(), found_page[bad].tolist(), found_gen[bad].tolist()
        ):
            self.violations.append(
                DataViolation(
                    time=int(times[a]), page=int(pages[a]),
                    subblock=int(subblocks[a]),
                    location=self._location(int(loc[a])),
                    found=None if fp < 0 else (fp, fg),
                    expected=(int(pages[a]), int(expected[a])),
                )
            )
        self.reads += len(r)
        self.writes += len(w)

        # write-back: each cell keeps its last event
        final = np.flatnonzero(ev_cell[1:] != ev_cell[:-1])  # sentinel last
        self._page[ev_cell[final]] = ev_page[final]
        self._gen[ev_cell[final]] = ev_gen[final]

    def _take_ops(self, times) -> tuple[list, np.ndarray]:
        """Dequeue the ops that land among the buffered accesses.

        Op j lands before the first access at ``>= time`` that is at or
        past its floor, and never before the op queued ahead of it; the
        rest stay queued with their floors reset (the buffer is done).
        Returns the taken ops and, per op, the access it lands before.
        """
        n, last = len(times), int(times[-1])
        ops = self._ops
        m = 0
        while m < len(ops) and ops[m][0] <= last and ops[m][3] < n:
            m += 1
        taken, self._ops = ops[:m], [(t, k, p, 0) for t, k, p, _ in ops[m:]]
        pos = np.maximum(
            np.searchsorted(times, np.array([op[0] for op in taken], np.int64)),
            np.array([op[3] for op in taken], dtype=np.int64),
        )
        return taken, np.maximum.accumulate(pos)

    def _expected_generations(self, key, writes) -> np.ndarray:
        """Per access, the generation its (page, sub-block) ``key`` holds
        once the access is done: the prior one plus the writes so far.
        The last access of each key leaves its count in _generation."""
        # stable by key: the composite is unique, so quicksort suffices
        order = np.argsort(key * len(key) + np.arange(len(key)))
        key, writes = key[order], writes[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        starts = np.flatnonzero(first)
        counts = np.cumsum(writes, dtype=np.int64)
        counts -= np.repeat(
            counts[starts] - writes[starts], np.diff(starts, append=len(key))
        )
        gen = self._generation[key] + counts
        tail = np.empty_like(first)  # the last access of each key
        tail[:-1] = first[1:]
        tail[-1:] = True
        self._generation[key[tail]] = gen[tail]
        expected = np.empty_like(gen)
        expected[order] = gen
        return expected

    def _walk_ops(self, taken: list, op_seq: list[int], span: int):
        """Walk the (short) list of taken ops in queue order.

        Returns every forwarding link's live interval as ``(src, dst,
        opened, killed)`` location indices and sequence numbers — a copy
        to either end of a link, or a close, kills it; links still live
        get ``killed = span`` and stay in ``_links`` — and the copy
        events as flat arrays of source cell, destination cell and
        sequence number.
        """
        n_sb = self.n_subblocks
        links = [(s, d, -1) for s, d in self._links]
        intervals: list[tuple[int, int, int, int]] = []
        src_locs: list[int] = []
        dst_locs: list[int] = []
        seqs: list[int] = []
        sbs: list[int] = []
        touched: list[int] = []
        every_sb = range(n_sb)
        for (_, kind, payload, _), s in zip(taken, op_seq):
            if kind == "copy":
                src, dst = self._index(payload[0]), self._index(payload[1])
                keep = []
                for link in links:
                    if dst in link[:2]:
                        intervals.append((*link, s))
                    else:
                        keep.append(link)
                links = keep
                touched += (src, dst)
                landed = every_sb if payload[2] is None else payload[2]
                src_locs += [src] * len(landed)
                dst_locs += [dst] * len(landed)
                seqs += [s] * len(landed)
                sbs += landed
            elif kind == "link":
                links.append((self._index(payload[0]), self._index(payload[1]), s))
            else:
                intervals += [(*link, s) for link in links]
                links = []
        intervals += [(*link, span) for link in links]
        self._links = [(a, b) for a, b, _ in links]
        self._held[touched] = True
        sbs = np.array(sbs, dtype=np.int64)
        return (
            intervals,
            np.array(src_locs, dtype=np.int64) * n_sb + sbs,
            np.array(dst_locs, dtype=np.int64) * n_sb + sbs,
            np.array(seqs, dtype=np.int64),
        )

    def _forwards(self, w, loc, seq, intervals, span):
        """Writes ``w`` at a link's source inside its live interval,
        forwarded to its destination: (write index, destination)."""
        none = np.zeros(0, dtype=np.int64)
        if not intervals or not len(w):
            return none, none
        iv = np.array(intervals, dtype=np.int64)
        wkey = loc[w] * span + seq[w]
        by_key = np.argsort(wkey)  # unique keys
        wkey = wkey[by_key]
        lo = np.searchsorted(wkey, iv[:, 0] * span + iv[:, 2], side="right")
        hi = np.searchsorted(wkey, iv[:, 0] * span + iv[:, 3], side="left")
        dst = np.repeat(iv[:, 1], np.maximum(hi - lo, 0))
        self._held[dst] = True
        return w[by_key[_ranges(lo, hi)]], dst

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def verify_table(self, table: TranslationTable) -> list[DataViolation]:
        """Final sweep: every page/sub-block the table can resolve must
        hold its last-written generation. Flushes all pending ops first;
        returns the violations found (without recording them)."""
        self.flush()
        bad: list[DataViolation] = []
        for page in np.flatnonzero(~self._dead).tolist():
            for sb in range(self.n_subblocks):
                loc = table.location(page, sb)
                cell = self._cell(loc, sb)
                gen = int(self._generation[page * self.n_subblocks + sb])
                found = self._found(cell)
                if found != (page, gen):
                    bad.append(
                        DataViolation(
                            time=-1, page=page, subblock=sb, location=loc,
                            found=found, expected=(page, gen),
                        )
                    )
        return bad

    def _found(self, cell: int) -> tuple[int, int] | None:
        page = int(self._page[cell])
        return None if page < 0 else (page, int(self._gen[cell]))

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        self.process()
        n_sb = self.n_subblocks
        held = np.flatnonzero(self._held)
        rows = zip(
            held.tolist(),
            self._page.reshape(-1, n_sb)[held].tolist(),
            self._gen.reshape(-1, n_sb)[held].tolist(),
        )
        return {
            "contents": {
                self._location(idx): [
                    None if p < 0 else (p, g) for p, g in zip(pages, gens)
                ]
                for idx, pages, gens in rows
            },
            "generation": self.generation,
            "violations": list(self.violations),
            "reads": self.reads,
            "writes": self.writes,
            "links": [
                [self._location(s), self._location(d)] for s, d in self._links
            ],
            "ops": [(t, kind, payload) for t, kind, payload, _ in self._ops],
        }

    def load_state_dict(self, state: dict) -> None:
        n_sb = self.n_subblocks
        self._buffer, self._buffered = [], 0
        self._page[:] = -1
        self._gen[:] = 0
        self._held[:] = False
        for loc, cells in state["contents"].items():
            for sb, value in enumerate(cells):
                cell = self._cell(loc, sb)
                if value is not None:
                    self._page[cell], self._gen[cell] = value
        self._generation[:] = 0
        for (page, sb), gen in state["generation"].items():
            self._generation[page * n_sb + sb] = gen
        self.violations = list(state["violations"])
        self.reads = state["reads"]
        self.writes = state["writes"]
        self._links = [
            (self._index(src), self._index(dst)) for src, dst in state["links"]
        ]
        self._ops = [(t, kind, payload, 0) for t, kind, payload in state["ops"]]

    #: construction-time geometry, pickled as is; the cells travel in
    #: the compact :meth:`state_dict` form
    _GEOMETRY = (
        "amap", "n_subblocks", "_n_slots", "_buf_index", "_dead",
    )

    def __getstate__(self) -> tuple[dict, dict]:
        # the held locations only, not the dense cell arrays: a tracked
        # checkpoint is a third the size
        geometry = {key: self.__dict__[key] for key in self._GEOMETRY}
        return geometry, self.state_dict()

    def __setstate__(self, state: tuple[dict, dict]) -> None:
        geometry, snapshot = state
        self.__dict__.update(geometry)
        n_locs = self._buf_index + 1
        n_cells = n_locs * self.n_subblocks
        # load_state_dict overwrites every element
        self._page = np.empty(n_cells, dtype=np.int64)
        self._gen = np.empty(n_cells, dtype=np.int64)
        self._held = np.empty(n_locs, dtype=bool)
        self._generation = np.empty(
            self.amap.n_total_pages * self.n_subblocks, dtype=np.int64
        )
        self.load_state_dict(snapshot)
