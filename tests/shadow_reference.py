"""Scalar reference for :class:`repro.datamodel.ShadowMemory`.

Every access and every queued engine op is applied one at a time, in
time order, by plain Python: the loop the simulator's shadow runs as one
compiled pass per chunk (``shadow_pass`` in ``dram/fifo_kernel.c``). It
lives under ``tests/`` only, as the oracle ``test_shadow_differential.py``
drives side by side with :class:`~repro.datamodel.ShadowMemory`; no
simulator code path uses it.

Its ``process`` takes the chunk arrays directly (the simulator's class
splits that into ``feed`` + ``process()``), and its op queue holds plain
``(time, kind, payload)`` triples, which is also the checkpoint schema.
"""

from __future__ import annotations

from collections import deque

from repro.datamodel.shadow import DataViolation, Location
from repro.migration.table import TranslationTable


class ReferenceShadowMemory:
    """The per-access scalar shadow: one Python step per access and op."""

    def __init__(self, table: TranslationTable):
        self.amap = table.amap
        self.n_subblocks = self.amap.subblocks_per_page
        self.ghost = self.amap.ghost_page
        #: pages outside the data address space: Ω plus any RAS spare
        #: pages (a spare's machine frame is reached through the retired
        #: page it re-homes, never through its own physical-page id)
        self._dead = frozenset(table.reserved_pages) | {self.ghost}
        #: location -> per-sub-block (page, generation) or None (garbage)
        self.contents: dict[Location, list[tuple[int, int] | None]] = {}
        #: (page, subblock) -> last written generation (absent = 0)
        self.generation: dict[tuple[int, int], int] = {}
        self.violations: list[DataViolation] = []
        self.reads = 0
        self.writes = 0
        #: live write-forwarding links as [src, dst] pairs
        self._links: list[list[Location]] = []
        #: time-ordered engine ops: (time, kind, payload); kinds are
        #: "copy" (src, dst, subblocks|None), "link" (src, dst), "close" ()
        self._ops: deque[tuple[int, str, tuple]] = deque()
        for page in range(self.amap.n_total_pages):
            if page in self._dead:
                continue
            on, machine = table.resolve(page)
            loc: Location = ("slot", machine) if on else ("mach", machine)
            self.contents[loc] = [(page, 0)] * self.n_subblocks

    # ------------------------------------------------------------------
    # memory primitives (identical semantics to analysis.protocol._Machine)
    # ------------------------------------------------------------------
    def _cells(self, loc: Location) -> list[tuple[int, int] | None]:
        cells = self.contents.get(loc)
        if cells is None:
            cells = [None] * self.n_subblocks
            self.contents[loc] = cells
        return cells

    def apply_copy(
        self,
        src: Location,
        dst: Location,
        subblocks: tuple[int, ...] | None = None,
    ) -> None:
        """One engine copy lands (whole page, or the given sub-blocks)."""
        # the first byte landing at dst kills any older copy stream
        # through that location
        self._links = [
            link for link in self._links if dst not in (link[0], link[1])
        ]
        src_cells, dst_cells = self._cells(src), self._cells(dst)
        for sb in subblocks if subblocks is not None else range(self.n_subblocks):
            dst_cells[sb] = src_cells[sb]

    def open_link(self, src: Location, dst: Location) -> None:
        """A copy fully landed: forward later stores at src into dst."""
        self._links.append([src, dst])

    def corrupt(
        self, loc: Location, subblocks: tuple[int, ...], time: int | None = None
    ) -> int:
        """Physical bit flips land at ``loc`` (row-disturbance model).

        The named sub-blocks become garbage (``None``), exactly like the
        checker's torn-copy residue: the next demand read resolving
        there — or the final :meth:`verify_table` sweep — records a
        :class:`DataViolation`. Engine ops landed by ``time`` are
        flushed first so the flips hit what the location holds *then*.
        Returns the number of cells newly corrupted (already-garbage
        cells don't recount).
        """
        self.flush(time)
        cells = self._cells(loc)
        hit = 0
        for sb in subblocks:
            if cells[sb] is not None:
                cells[sb] = None
                hit += 1
        return hit

    def close_links(self) -> None:
        """A plan completed: its table updates are live, copies stop."""
        self._links.clear()

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
        cells = self._cells(loc)
        for sb in range(self.n_subblocks):
            gen = self.generation.get((page, sb), 0) + 1
            self.generation[(page, sb)] = gen
            cells[sb] = (page, gen)

    # ------------------------------------------------------------------
    # engine-side op queue
    # ------------------------------------------------------------------
    def schedule(self, time: int, kind: str, payload: tuple) -> None:
        """Queue an op to apply before any access at ``>= time``.

        Ops must be scheduled in non-decreasing time order (the engine
        walks each plan forward, and a new plan only schedules once the
        previous one's window has closed).
        """
        self._ops.append((int(time), kind, payload))

    def _apply(self, kind: str, payload: tuple) -> None:
        if kind == "copy":
            self.apply_copy(*payload)
        elif kind == "link":
            self.open_link(*payload)
        else:
            self.close_links()

    def flush(self, until: int | None = None) -> None:
        """Apply every queued op with ``time <= until`` (None: all)."""
        ops = self._ops
        while ops and (until is None or ops[0][0] <= until):
            _, kind, payload = ops.popleft()
            self._apply(kind, payload)

    def drop_pending(self) -> None:
        """Cancel not-yet-landed ops (quarantine quiesces the copy engine)."""
        self._ops.clear()
        self.close_links()

    # ------------------------------------------------------------------
    # controller-side demand stream
    # ------------------------------------------------------------------
    def process(self, times, pages, subblocks, on, machine, writes) -> None:
        """Check/record one time-ordered chunk of routed accesses.

        All six arguments are parallel per-access arrays; ``on`` and
        ``machine`` are the controller's resolution (timeline and fill
        refinements already applied) at the *original* access times.
        """
        ops = self._ops
        it = zip(
            times.tolist(), pages.tolist(), subblocks.tolist(),
            on.tolist(), machine.tolist(), writes.tolist(),
        )
        for t, page, sb, on_pkg, m, write in it:
            while ops and ops[0][0] <= t:
                _, kind, payload = ops.popleft()
                self._apply(kind, payload)
            if page in self._dead:
                continue
            loc: Location = ("slot", m) if on_pkg else ("mach", m)
            if write:
                self.writes += 1
                gen = self.generation.get((page, sb), 0) + 1
                self.generation[(page, sb)] = gen
                self._cells(loc)[sb] = (page, gen)
                for src, dst in self._links:
                    if src == loc:
                        self._cells(dst)[sb] = (page, gen)
            else:
                self.reads += 1
                cell = self._cells(loc)[sb]
                expected = (page, self.generation.get((page, sb), 0))
                if cell != expected:
                    self.violations.append(
                        DataViolation(
                            time=t, page=page, subblock=sb, location=loc,
                            found=cell, expected=expected,
                        )
                    )

    # ------------------------------------------------------------------
    # end-of-run verification
    # ------------------------------------------------------------------
    def verify_table(self, table: TranslationTable) -> list[DataViolation]:
        """Final sweep: every page/sub-block the table can resolve must
        hold its last-written generation. Flushes all pending ops first;
        returns the violations found (without recording them)."""
        self.flush()
        bad: list[DataViolation] = []
        for page in range(self.amap.n_total_pages):
            if page in self._dead:
                continue
            for sb in range(self.n_subblocks):
                on, machine = table.resolve(page, sb)
                loc: Location = ("slot", machine) if on else ("mach", machine)
                cell = self._cells(loc)[sb]
                expected = (page, self.generation.get((page, sb), 0))
                if cell != expected:
                    bad.append(
                        DataViolation(
                            time=-1, page=page, subblock=sb, location=loc,
                            found=cell, expected=expected,
                        )
                    )
        return bad

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "contents": {loc: list(cells) for loc, cells in self.contents.items()},
            "generation": dict(self.generation),
            "violations": list(self.violations),
            "reads": self.reads,
            "writes": self.writes,
            "links": [list(link) for link in self._links],
            "ops": list(self._ops),
        }

    def load_state_dict(self, state: dict) -> None:
        self.contents = {
            loc: list(cells) for loc, cells in state["contents"].items()
        }
        self.generation = dict(state["generation"])
        self.violations = list(state["violations"])
        self.reads = state["reads"]
        self.writes = state["writes"]
        self._links = [list(link) for link in state["links"]]
        self._ops = deque(state["ops"])
