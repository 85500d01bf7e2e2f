"""Numpy reference for the controller's two-region DRAM flush.

This is :meth:`HeterogeneousController.service_resolved` as it stood
before the compiled flush (``flush_regions`` in ``fifo_kernel.c``) took
over: per region, select its accesses, gather them, compose their
region-local addresses (``AddressMap.local_address``), map the global
segment starts into the region's accesses, run one
``service_segmented`` call on the region's device, add its path
overhead and scatter the latencies back; then add the translation and
the per-access extra cycles. It lives under ``tests/`` only, as the
exactness oracle ``test_flush_differential.py`` drives side by side with
the kernel; given :class:`~tests.fastmodel_reference.ReferenceFastDevice`
devices, no compiled code takes part.
"""

from __future__ import annotations

import numpy as np


def reference_flush(controller, on, machine, offsets, times, seg_starts, extra):
    """The per-region numpy composition of a flush through ``controller``."""
    n = on.shape[0]
    n_on = int(np.count_nonzero(on))
    latency = np.empty(n, dtype=np.int64)
    for model, count, onpkg in (
        (controller.onpkg_model, n_on, True),
        (controller.offpkg_model, n - n_on, False),
    ):
        if count == 0:
            continue
        sel = np.flatnonzero(on if onpkg else ~on)
        segs = np.searchsorted(sel, seg_starts)
        segs = segs[segs < count]
        local = controller.amap.local_address(machine[sel], offsets[sel], onpkg)
        lat = model.device.service_segmented(local, times[sel], segs)
        latency[sel] = lat + model.path_overhead
    latency += controller._translation
    latency += extra
    return latency
