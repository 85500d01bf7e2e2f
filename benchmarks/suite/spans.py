"""Out-of-process layer tracing: spans around each layer's entry points.

A traced run wraps the public entry points listed in :data:`LAYERS` inside
its own process only; no file under ``src/`` knows about it. Every call
records a span ``(id, name, fn, start, end, parent)`` in memory, and the run
writes them as JSON lines when it ends. :func:`self_times` turns spans into
per-layer self time: a span's duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: layer -> entry points timed from outside, as (module, class, method)
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "workloads.gen": [("repro.workloads.base", "SyntheticWorkload", "stream")],
    "memctrl.resolve": [
        ("repro.memctrl.heterogeneous", "HeterogeneousController", "resolve_into"),
    ],
    "memctrl.flush": [
        ("repro.memctrl.heterogeneous", "HeterogeneousController", "service_resolved"),
    ],
    "memctrl.service_chunk": [
        ("repro.memctrl.heterogeneous", "HeterogeneousController", "service_chunk"),
    ],
    "dram.device": [
        ("repro.dram.fastmodel", "FastDevice", "service_segmented"),
        ("repro.dram.fastmodel", "FastDevice", "service"),
    ],
    "migration.observe": [("repro.migration.engine", "MigrationEngine", "observe_epoch")],
    "migration.swap": [("repro.migration.engine", "MigrationEngine", "maybe_swap")],
    "migration.table_snapshot": [
        ("repro.migration.table", "TranslationTable", "state_dict"),
    ],
    "datamodel.shadow": [("repro.datamodel.shadow", "ShadowMemory", "process")],
    "core.loop": [("repro.core.simulator", "EpochSimulator", "run_into")],
}

#: layers whose entry point returns an iterator: each ``next()`` is one span
ITERATOR_LAYERS = frozenset({"workloads.gen"})

#: name of the span around the whole timed simulation
ROOT = "run"

_END = object()


class HookError(RuntimeError):
    """A layer's entry point is gone, so the layer cannot be timed."""


class Tracer:
    """Records spans in memory; :meth:`install` wraps the layer entry points."""

    def __init__(self) -> None:
        #: [name, fn, start, end, parent]; a span's id is its index
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, fn: str = ""):
        sid = len(self.spans)
        rec = [name, fn, 0.0, 0.0, self._open[-1] if self._open else None]
        self.spans.append(rec)
        self._open.append(sid)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._open.pop()

    def install(self, layers: dict = LAYERS) -> None:
        """Wrap every entry point, or raise :class:`HookError` naming the
        first one that no longer exists (before wrapping any)."""
        targets = []
        for layer, points in layers.items():
            for module, cls_name, method in points:
                try:
                    cls = getattr(importlib.import_module(module), cls_name)
                    fn = getattr(cls, method)
                except (ImportError, AttributeError):
                    raise HookError(
                        f"layer {layer}: entry point {module}.{cls_name}.{method} "
                        "no longer exists"
                    ) from None
                targets.append((layer, cls, method, fn))
        for layer, cls, method, fn in targets:
            wrap = self._iterate if layer in ITERATOR_LAYERS else self._call
            setattr(cls, method, wrap(layer, fn))

    def _call(self, layer: str, fn):
        qual = fn.__qualname__

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(layer, qual):
                return fn(*args, **kwargs)

        return timed

    def _iterate(self, layer: str, fn):
        qual = fn.__qualname__

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            items = iter(fn(*args, **kwargs))

            def steps():
                while True:
                    # the span covers producing an item, not consuming it
                    with self.span(layer, qual):
                        item = next(items, _END)
                    if item is _END:
                        return
                    yield item

            return steps()

        return timed

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, (name, fn, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "fn": fn,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")


def load(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out
