"""Data-content shadow memory: what every machine location holds.

A :class:`ShadowMemory` mirrors every macro page's data as
per-4KB-sub-block ``(page, write_generation)`` cells. In the runtime
simulator the epoch loop feeds it every routed demand access, and the
migration engine feeds it every copy its plans perform — at the cycle
the copy lands, so a read that races a half-landed fill is checked
against what the machine location *actually holds at that time*.
:mod:`repro.analysis.protocol` checks the swap protocol *statically*
with the same class: it replays every interleaving of a plan's copies,
links, writes and reads through a copy of one pre-plan shadow
(``tests/test_shadow_differential.py`` pins that replay path to the
scalar reference). The model:

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
accesses; :meth:`ShadowMemory.process` checks the whole buffer in one
sequential compiled pass (``shadow_pass`` in ``dram/fifo_kernel.c``,
loaded by :mod:`repro.dram.kernel`), which applies the engine's
time-ordered op queue between the accesses. That pass is the only code
that applies an engine op or an access to the cells:
:meth:`~ShadowMemory.flush` and :meth:`~ShadowMemory.apply_copy` run it
with no access, and :meth:`~ShadowMemory.verify_table` with only reads.
Each queued op is
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

from ..dram.kernel import shadow_pass
from ..migration.table import Location, TranslationTable

#: engine op kinds, in the order ``shadow_pass`` numbers them
_OP_KINDS = ("copy", "link", "close")
#: the access times and packed accesses of a pass that only applies ops
_NO_ACCESSES = (np.empty(0, dtype=np.int64), np.empty((5, 0), dtype=np.int64))


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


class ShadowMemory:
    """Versioned data-content mirror of the whole machine memory.

    Cells are one ``(page, generation)`` row each, indexed by
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
        self._cells = np.zeros((n_locs * n_sb, 2), dtype=np.int64)
        self._cells[:, 0] = -1
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
            self._cells[idx * n_sb:(idx + 1) * n_sb, 0] = page
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
    # direct memory updates
    # ------------------------------------------------------------------
    def apply_copy(
        self,
        src: Location,
        dst: Location,
        subblocks: tuple[int, ...] | None = None,
    ) -> None:
        """One engine copy lands now (whole page, or the given
        sub-blocks), ahead of every still-queued op."""
        self.process()
        self._pass([(0, "copy", (src, dst, subblocks), 0)], [0], *_NO_ACCESSES)

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
            if self._cells[cell, 0] >= 0:
                self._cells[cell] = (-1, 0)
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
        self._cells[cells, 0] = page
        self._cells[cells, 1] = gens

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

    def flush(self, until: int | None = None) -> None:
        """Apply every queued op with ``time <= until`` (None: all), in
        one pass with no access."""
        self.process()
        ops = self._ops
        k = 0
        while k < len(ops) and (until is None or ops[k][0] <= until):
            k += 1
        taken, self._ops = ops[:k], ops[k:]
        self._pass(taken, [0] * k, *_NO_ACCESSES)

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
        """Check/record every buffered access in one compiled pass.

        The pass (``shadow_pass`` in ``dram/fifo_kernel.c``) walks the
        buffer in access order and applies each queued op that lands
        inside it just before the access it lands before. Afterwards
        :attr:`violations`, :attr:`reads` and :attr:`writes` are
        complete and the buffer holds no array.
        """
        buffer, n = self._buffer, self._buffered
        self._buffer, self._buffered = [], 0
        if n:
            times, *columns = zip(*buffer)
            times = times[0] if len(times) == 1 else np.concatenate(times)
            accesses = np.empty((5, n), dtype=np.int64)
            for field, parts in enumerate(columns):
                np.concatenate(parts, out=accesses[field])
            bad, (n_reads, n_writes) = self._pass(
                *self._take_ops(times), times, accesses
            )
            self.violations += bad
            self.reads += n_reads
            self.writes += n_writes

    def _pass(self, ops, before, times, accesses):
        """Run ``shadow_pass`` over the accesses, whose ``(page,
        subblock, on, machine, write)`` are the rows of ``accesses``, op
        ``ops[j]`` landing just
        before access ``before[j]`` (after the last one if that is the
        access count). Returns the reads' violations and ``(reads,
        writes)``; the caller decides whether to record them."""
        rows, landed = [], []
        for (_, kind, payload, _), at in zip(ops, before):
            ends = [self._index(loc) for loc in payload[:2]] or [0, 0]
            sbs = ()
            if kind == "copy":
                sbs = range(self.n_subblocks) if payload[2] is None else payload[2]
                landed += sbs
            rows.append((at, _OP_KINDS.index(kind), *ends, len(sbs)))
        bad, counts, self._links = shadow_pass(
            accesses, rows, landed, self._links,
            (self._n_slots, self._dead, self._cells, self._held, self._generation),
        )
        violations = []
        for a, fp, fg, eg in bad.tolist():
            page, subblock, on, machine, _ = accesses[:, a].tolist()
            violations.append(DataViolation(
                time=int(times[a]), page=page, subblock=subblock,
                location=("slot" if on else "mach", machine),
                found=None if fp < 0 else (fp, fg), expected=(page, eg),
            ))
        return violations, counts

    def _take_ops(self, times) -> tuple[list, list[int]]:
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
        return taken, np.maximum.accumulate(pos).tolist()

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def verify_table(self, table: TranslationTable) -> list[DataViolation]:
        """Final sweep: every page/sub-block the table can resolve must
        hold its last-written generation. Flushes all pending ops first;
        returns the violations found (without recording them).

        The sweep is one batch of reads, page-major, through the same
        pass as the demand stream, at ``time=-1``."""
        self.flush()
        n_sb = self.n_subblocks
        pages = np.repeat(np.flatnonzero(~self._dead), n_sb)
        subblocks = np.tile(np.arange(n_sb), len(pages) // n_sb)
        routes = [
            table.resolve(p, sb) for p, sb in zip(pages.tolist(), subblocks.tolist())
        ]
        accesses = np.zeros((5, len(pages)), dtype=np.int64)  # reads
        accesses[0], accesses[1] = pages, subblocks
        accesses[2:4] = np.array(routes, dtype=np.int64).reshape(-1, 2).T
        return self._pass([], [], np.full(len(pages), -1), accesses)[0]

    # ------------------------------------------------------------------
    # copies and checkpoint support
    # ------------------------------------------------------------------
    def __copy__(self) -> "ShadowMemory":
        """An independent shadow in this one's state, sharing only the
        geometry (the protocol checker starts each replay from one)."""
        self.process()
        twin = object.__new__(ShadowMemory)
        twin.__dict__.update(self.__dict__)
        for key in ("_cells", "_held", "_generation"):
            twin.__dict__[key] = self.__dict__[key].copy()
        twin.violations, twin._links = list(self.violations), list(self._links)
        twin._ops, twin._buffer = list(self._ops), []
        return twin

    def state_dict(self) -> dict:
        self.process()
        n_sb = self.n_subblocks
        held = np.flatnonzero(self._held)
        cells = self._cells.reshape(-1, n_sb, 2)[held]
        rows = zip(held.tolist(), cells[..., 0].tolist(), cells[..., 1].tolist())
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
        self._cells[:] = (-1, 0)
        self._held[:] = False
        for loc, cells in state["contents"].items():
            for sb, value in enumerate(cells):
                cell = self._cell(loc, sb)
                if value is not None:
                    self._cells[cell] = value
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
        self._cells = np.empty((n_cells, 2), dtype=np.int64)
        self._held = np.empty(n_locs, dtype=bool)
        self._generation = np.empty(
            self.amap.n_total_pages * self.n_subblocks, dtype=np.int64
        )
        self.load_state_dict(snapshot)
