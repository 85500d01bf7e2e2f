"""Fig 3: the heterogeneity-aware on-chip memory controller.

The pipeline order change is the architectural point: **address
translation comes first** (physical -> machine via the migration layer's
table), then the access routes to the on-package or off-package region,
and each region runs its own transaction scheduling — the two regions'
optimisations are independent. The optional migration controller
rewrites the table at run time; this module consumes its routing
timeline, fill state and stall windows to price every access at its
own timestamp.

Every translated access pays the table's 2-cycle RAM/CAM lookup
(Section III-B).
"""

from __future__ import annotations

import numpy as np

from ..address import AddressMap
from ..config import SystemConfig
from ..dram.latency import LatencyModel
from ..migration.engine import ActiveMigration
from ..migration.overhead import translation_cycles
from ..migration.table import TranslationTable
from ..trace.record import TraceChunk
from ..units import log2_exact

#: ``seg_starts`` of a one-epoch flush (read-only: shared by every caller)
ONE_EPOCH = np.zeros(1, dtype=np.int64)
ONE_EPOCH.flags.writeable = False


class HeterogeneousController:
    """Translate-first, split-schedule memory controller."""

    def __init__(self, config: SystemConfig, *,
                 translation_overhead: bool = True):
        self.config = config
        self.amap: AddressMap = config.address_map()
        self.onpkg_model = LatencyModel(
            config.latency, config.onpkg_dram, onpkg=True
        )
        self.offpkg_model = LatencyModel(
            config.latency, config.offpkg_dram, onpkg=False
        )
        self._sb_shift = log2_exact(self.amap.subblock_bytes)
        #: per-access table lookup cost; static (no-migration) systems
        #: decode regions from MSBs for free
        self._translation = (
            translation_cycles(
                config.migration.os_assisted,
                hw_cycles=config.migration.hw_translation_cycles,
            )
            if translation_overhead
            else 0
        )

    # ------------------------------------------------------------------
    def resolve_into(
        self,
        pages: np.ndarray,
        times: np.ndarray,
        subblocks: np.ndarray | None,
        table: TranslationTable,
        active: ActiveMigration | None,
        on_out: np.ndarray,
        machine_out: np.ndarray,
    ) -> None:
        """Per-access ``(on_package, machine_page)`` honouring in-flight swaps.

        Writes into the caller's output views — this is what lets the
        epoch loop resolve straight into preallocated whole-flush
        buffers. ``subblocks`` may be ``None`` when ``active`` carries no
        fill in flight.
        """
        if pages.size and pages.min() < 0:
            table.resolve_many(pages)  # raises the domain-specific error
        try:
            # single-pass gathers straight into the caller's buffers;
            # upper bounds are still checked (mode='raise'), but the
            # temporary copies of resolve_many are skipped on this
            # per-epoch hot path (np.take would *wrap* negative pages,
            # hence the explicit check above)
            np.take(table.onpkg, pages, out=on_out)
            np.take(table.machine_of, pages, out=machine_out)
        except IndexError:
            table.resolve_many(pages)  # raises the domain-specific error
            raise
        if active is None:
            return

        for j, page in enumerate(active.pages.tolist()):
            mask = pages == page
            if not mask.any():
                continue
            row = np.searchsorted(active.times, times[mask], side="right") - 1
            on_out[mask] = active.onpkg[row, j]
            machine_out[mask] = active.machine[row, j]

        fill = active.fill
        if fill is not None:
            mask = (pages == fill.page) & (times >= fill.start) & (times < fill.end)
            if mask.any():
                ready = fill.available_at(subblocks[mask])
                served_on = times[mask] >= ready
                on_out[mask] = served_on
                machine_out[mask] = np.where(served_on, fill.slot, fill.old_machine)

    def migration_windows(
        self,
        active: ActiveMigration,
        times: np.ndarray,
        on: np.ndarray,
        extra: np.ndarray,
    ) -> np.ndarray | None:
        """Charge the in-flight migration's cycles into ``extra`` (in place).

        N design: execution halts while the swap copies data, so an
        access inside the stall window waits for its end; returns that
        window's mask (the caller issues those accesses at
        ``active.end``), or None when nothing stalled. Other designs: the
        background copy traffic shares the DDR channel, so off-package
        accesses inside the copy window pay ``interference_cycles``.
        """
        if active.stall:
            stalled = (times >= active.start) & (times < active.end)
            if not stalled.any():
                return None
            extra[stalled] = active.end - times[stalled]
            return stalled
        window = ~on
        window &= times >= active.start
        window &= times < active.end
        extra[window] = self.config.migration.interference_cycles
        return None

    def service_chunk(
        self,
        chunk: TraceChunk,
        table: TranslationTable,
        active: ActiveMigration | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Latency of each access in a time-ordered chunk, as one epoch.

        Returns ``(latencies, onpkg_mask, machine_page)``. The chunk must
        not start before previously serviced chunks (device state is
        persistent).

        The simulator composes :meth:`resolve_into`,
        :meth:`migration_windows` and :meth:`service_resolved` itself;
        this one-call composition is the reference the controller tests
        check them against, and the ``memctrl.service_chunk`` entry point
        the benchmark suite's tracer hooks.
        """
        n = len(chunk)
        pages = self.amap.page_of(chunk.addr)
        offsets = self.amap.offset_of(chunk.addr)
        times = chunk.time
        on = np.empty(n, dtype=bool)
        machine = np.empty(n, dtype=np.int64)
        self.resolve_into(
            pages, times, offsets >> self._sb_shift, table, active, on, machine
        )
        extra = np.zeros(n, dtype=np.int64)
        if active is not None:
            stalled = self.migration_windows(active, times, on, extra)
            if stalled is not None:
                times = np.where(stalled, active.end, times)  # issue after the stall
        latency = self.service_resolved(on, machine, offsets, times, ONE_EPOCH, extra)
        return latency, on, machine

    def service_resolved(
        self,
        on: np.ndarray,
        machine: np.ndarray,
        offsets: np.ndarray,
        times: np.ndarray,
        seg_starts: np.ndarray,
        extra: np.ndarray,
    ) -> np.ndarray:
        """Flush resolved accesses through each region's device.

        ``seg_starts`` are the epoch boundaries (global indices into the
        flush, starting at 0). Each region takes one
        :meth:`FastDevice.service_segmented` call, bit-identical to a
        ``service()`` call per segment. ``times`` are
        effective arrival times (stalls applied), non-decreasing as
        ``service_segmented`` requires; ``extra`` carries the
        per-access stall + interference cycles of
        :meth:`migration_windows`. Translation overhead is applied here.
        """
        n = on.shape[0]
        n_on = int(np.count_nonzero(on))
        latency = np.empty(n, dtype=np.int64)
        for model, count, onpkg in (
            (self.onpkg_model, n_on, True),
            (self.offpkg_model, n - n_on, False),
        ):
            if count == 0:
                continue
            if count == n:
                # single-region flush: no select/gather/scatter round-trip
                sel, segs = slice(None), seg_starts
            else:
                sel = np.flatnonzero(on if onpkg else ~on)
                segs = np.searchsorted(sel, seg_starts)
                segs = segs[segs < count]
            dev = model.device
            local = self.amap.local_address(machine[sel], offsets[sel], onpkg)
            lat = dev.service_segmented(local, times[sel], segs)
            lat += model.path_overhead
            latency[sel] = lat
        latency += self._translation
        latency += extra
        return latency
