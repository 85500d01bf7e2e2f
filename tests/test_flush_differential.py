"""The compiled two-region flush against the numpy composition it replaced.

``HeterogeneousController.service_resolved`` is one call of the compiled
``flush_regions`` (``dram/fifo_kernel.c``): region select, region-local
address, queue and row decode, refresh warp, the FIFO recursion with its
per-region segment carry, and the latency sum. ``tests/flush_reference.py``
keeps the per-region numpy composition as the oracle, here run over
``ReferenceFastDevice`` (``tests/fastmodel_reference.py``), so no compiled
code serves the oracle's side. Both sides must agree on every latency and
on both devices' state after every call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DramTiming, SystemConfig
from repro.errors import SimulationError
from repro.memctrl.heterogeneous import HeterogeneousController
from repro.units import MB

from .fastmodel_reference import ReferenceFastDevice
from .flush_reference import reference_flush

_INT64_MAX = int(np.iinfo(np.int64).max)


def _controllers(on_timing: DramTiming, off_timing: DramTiming):
    """A kernel-served controller and its numpy-served twin: 64 pages of
    1 MB, the first 8 on package."""
    cfg = SystemConfig(
        total_bytes=64 * MB, onpkg_bytes=8 * MB,
        onpkg_dram=on_timing, offpkg_dram=off_timing,
    )
    kernel, oracle = HeterogeneousController(cfg), HeterogeneousController(cfg)
    for model in (oracle.onpkg_model, oracle.offpkg_model):
        model.device = ReferenceFastDevice(model.device.geometry)
    return kernel, oracle


def _devices(ctrl):
    return ctrl.onpkg_model.device, ctrl.offpkg_model.device


def _state(ctrl):
    return [
        (d.row_hits, d.row_conflicts, d._open_row.tolist(), d._ready.tolist())
        for d in _devices(ctrl)
    ]


@st.composite
def timings(draw, cap, refresh_cycles):
    """A small region, refreshing or not, with queue cap ``cap``."""
    return DramTiming(
        n_channels=draw(st.sampled_from([1, 2])),
        # 3 banks take the division path of the queue decode
        n_banks=draw(st.sampled_from([3, 4])),
        max_queue_wait=cap,
        refresh_interval=3000 if draw(st.booleans()) else 0,
        refresh_cycles=refresh_cycles,
    )


@st.composite
def flushes(draw, amap, last):
    """One flush's resolved accesses, times from ``last`` on."""
    n = draw(st.integers(0, 150))
    mix = draw(st.sampled_from(["mixed", "all on", "all off"]))
    if mix == "mixed":
        on = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        on = np.full(n, mix == "all on")
    # a few pages and rows per region, so queues collide and rows hit
    slot = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64)
    machine = np.where(on, slot, amap.n_onpkg_pages + slot)
    rows = np.array(draw(st.lists(st.integers(0, 47), min_size=n, max_size=n)), dtype=np.int64)
    offsets = rows * 8192 + 64 * np.array(
        draw(st.lists(st.integers(0, 127), min_size=n, max_size=n)), dtype=np.int64
    )
    gaps = draw(st.lists(st.integers(0, 120), min_size=n, max_size=n))
    times = last + np.cumsum(gaps, dtype=np.int64)
    extra = np.array(draw(st.lists(st.integers(0, 500), min_size=n, max_size=n)), dtype=np.int64)
    # cuts may repeat (a segment empty overall) or reach n (empty at the end)
    cuts = draw(st.lists(st.integers(0, n), max_size=30))
    seg_starts = np.array([0, *sorted(cuts)], dtype=np.int64)
    return on, machine, offsets, times, seg_starts, extra


class TestFlushOracle:
    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        # 1 binds at nearly every boundary, 30 at loaded ones, 1 << 30 never
        cap=st.sampled_from([1, 30, 300, 1 << 30]),
    )
    def test_flush_equals_numpy_composition(self, data, cap):
        # the regions refresh with different tRFC
        kernel, oracle = _controllers(
            data.draw(timings(cap, 200)), data.draw(timings(cap, 350))
        )
        last = 0
        for _ in range(data.draw(st.integers(1, 3))):  # each call continues the state
            args = data.draw(flushes(kernel.amap, last))
            got = kernel.service_resolved(*args)
            want = reference_flush(oracle, *args)
            np.testing.assert_array_equal(got, want)
            assert _state(kernel) == _state(oracle)
            if args[3].size:
                last = int(args[3][-1])

    def test_segment_empty_in_one_region_keeps_the_other_carry(self):
        # cap 1: every carry binds. Segment 1 holds only on-package
        # accesses, segment 2 only off-package ones, segment 3 none, and
        # segment 4 both: each region carries only out of its own
        # segments, and an empty one carries nothing
        timing = DramTiming(n_channels=1, n_banks=3, max_queue_wait=1,
                            refresh_interval=3000, refresh_cycles=200)
        kernel, oracle = _controllers(timing, DramTiming(n_channels=2, n_banks=4, max_queue_wait=1))
        on = np.array([1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0], dtype=bool)
        machine = np.where(on, 0, kernel.amap.n_onpkg_pages)
        offsets = np.arange(12, dtype=np.int64) % 3 * 8192
        times = np.repeat(np.array([0, 40, 80, 2990], dtype=np.int64), [2, 3, 3, 4])
        seg_starts = np.array([0, 2, 5, 8, 8], dtype=np.int64)
        extra = np.arange(12, dtype=np.int64)
        for shift in (0, 3001):
            args = (on, machine, offsets, times + shift, seg_starts, extra)
            np.testing.assert_array_equal(
                kernel.service_resolved(*args), reference_flush(oracle, *args)
            )
            assert _state(kernel) == _state(oracle)

    @pytest.mark.parametrize("last_page, last_time, match", [
        # the off-package region's departure passes int64 at the last access
        (None, _INT64_MAX - 3, "passes int64"),
        # an off-package access routed to an on-package machine page
        (0, 100, "negative"),
    ])
    def test_rejected_flush_changes_neither_device(self, last_page, last_time, match):
        timing = DramTiming(n_channels=2, n_banks=4)
        ctrl, _ = _controllers(timing, timing)
        amap = ctrl.amap
        on = np.array([1, 0, 1, 0], dtype=bool)
        machine = np.array([0, amap.n_onpkg_pages, 1, amap.n_onpkg_pages + 1])
        offsets = np.zeros(4, dtype=np.int64)
        seg = np.array([0, 2], dtype=np.int64)
        ctrl.service_resolved(on, machine, offsets, np.arange(4), seg, np.zeros(4))
        before = _state(ctrl)
        if last_page is not None:
            machine[-1] = last_page
        times = np.array([10, 20, 30, last_time], dtype=np.int64)
        with pytest.raises(SimulationError, match=match):
            ctrl.service_resolved(on, machine, offsets, times, seg, np.zeros(4))
        assert _state(ctrl) == before
