"""Differential tests: the one-pass shadow memory against the scalar one.

:class:`repro.datamodel.ShadowMemory` buffers routed accesses with
``feed`` and resolves the buffer and the engine's op queue in one
vectorised pass per ``process()``. ``tests/shadow_reference.py`` keeps
the per-access scalar shadow it replaced. These tests drive both with
the same inputs and require equal violation lists (content and order),
generations, read/write counts, ``verify_table`` sweeps and checkpoint
state:

* a Hypothesis fuzz over raw shadow operations (sub-block counts 1, 4
  and 16; whole and partial copies through the bounce buffer; links,
  closes, cancels, bit flips and scrubs; ops timed at an access time,
  past the chunk, and at or before an already-buffered access so the
  schedule floor decides; accesses to Ω and to RAS spares);
* whole tracked simulations of every design, clean and with a bare
  rollback that serves dead data;
* a checkpoint the scalar class wrote, resumed by the vectorised one.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.address import AddressMap
from repro.datamodel import ShadowMemory
from repro.migration.table import TranslationTable
from repro.trace.record import make_chunk
from repro.units import KB

from .shadow_reference import ReferenceShadowMemory
from .test_data_integrity import (
    ALGOS,
    INTERVAL,
    abort_plan,
    config,
    write_trace,
)

N_SLOTS = 4
N_PAGES = 16
LOCATIONS = (
    [("slot", i) for i in range(N_SLOTS)]
    + [("mach", p) for p in range(N_PAGES)]
    + [("buf", 0)]
)


def make_table(n_subblocks: int) -> TranslationTable:
    """4 slots, 16 pages (Ω and two RAS spares among them)."""
    page = n_subblocks * 4 * KB
    amap = AddressMap(
        total_bytes=N_PAGES * page, onpkg_bytes=N_SLOTS * page,
        macro_page_bytes=page, subblock_bytes=4 * KB,
    )
    spares = {amap.ghost_page - 2, amap.ghost_page - 1}
    return TranslationTable(amap, reserved_pages=spares)


def accesses(rng, start: int, n_subblocks: int, pool: list):
    """One time-ordered run of routed accesses starting at ``start``.

    Most resolve to the page's boot-time home; the rest land on one of
    the ``pool`` locations the ops of this example also use, so reads
    see stale, foreign and garbage cells as well as clean ones.
    """
    n = int(rng.integers(1, 30))
    times = start + np.cumsum(rng.integers(0, 4, n))
    pages = rng.integers(0, N_PAGES, n)
    subblocks = rng.integers(0, n_subblocks, n)
    targets = [loc for loc in pool if loc[0] != "buf"] or [("mach", 0)]
    away = [targets[i] for i in rng.integers(0, len(targets), n)]
    home = rng.random(n) < 0.5
    on = np.where(home, pages < N_SLOTS, [kind == "slot" for kind, _ in away])
    machine = np.where(home, pages, [i for _, i in away])
    writes = rng.random(n) < 0.4
    return times, pages, subblocks, on, machine, writes


def assert_same(ref: ReferenceShadowMemory, new: ShadowMemory) -> None:
    assert new.state_dict() == ref.state_dict()
    assert new.violations == ref.violations
    assert new.generation == ref.generation
    assert (new.reads, new.writes) == (ref.reads, ref.writes)


ACTIONS = (
    "chunk", "chunk", "chunk", "schedule", "copy", "corrupt", "scrub",
    "flush", "drop", "verify", "compare", "checkpoint",
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_matches_scalar_reference(data):
    n_sb = data.draw(st.sampled_from([1, 4, 16]), label="n_subblocks")
    table = make_table(n_sb)
    ref, new = ReferenceShadowMemory(table), ShadowMemory(table)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # a few locations per example, so copies, links and accesses meet
    pool = data.draw(
        st.lists(st.sampled_from(LOCATIONS), min_size=2, max_size=6, unique=True)
    )
    loc = st.sampled_from(pool)
    some_sbs = st.lists(
        st.integers(0, n_sb - 1), min_size=1, max_size=n_sb, unique=True
    ).map(tuple)
    clock = 0  # time of the last access fed

    def near_clock():
        # <= 0: at or before an already-fed access (the floor decides);
        # 0: the ``time <= access_time`` tie; large: past the chunk
        return clock + data.draw(st.integers(-4, 12))

    def schedule():
        kind = data.draw(st.sampled_from(["copy", "copy", "link", "close"]))
        if kind == "copy":
            subblocks = data.draw(st.none() | some_sbs)
            payload = (data.draw(loc), data.draw(loc), subblocks)
        elif kind == "link":
            payload = (data.draw(loc), data.draw(loc))
        else:
            payload = ()
        op = (near_clock(), kind, payload)
        ref.schedule(*op)
        new.schedule(*op)

    for _ in range(data.draw(st.integers(1, 14))):
        action = data.draw(st.sampled_from(ACTIONS))
        if action == "chunk":
            # epochs of one chunk, with engine ops scheduled in between
            for _ in range(data.draw(st.integers(1, 3))):
                arrays = accesses(rng, clock, n_sb, pool)
                clock = int(arrays[0][-1])
                ref.process(*arrays)
                new.feed(*arrays)
                for _ in range(data.draw(st.integers(0, 3))):
                    schedule()
            if data.draw(st.booleans()):
                new.process()  # the end of a simulator chunk
        elif action == "schedule":
            schedule()
        elif action == "copy":
            args = (data.draw(loc), data.draw(loc), data.draw(st.none() | some_sbs))
            ref.apply_copy(*args)
            new.apply_copy(*args)
        elif action == "corrupt":
            args = (data.draw(loc), data.draw(some_sbs),
                    data.draw(st.none() | st.just(near_clock())))
            assert new.corrupt(*args) == ref.corrupt(*args)
        elif action == "scrub":
            page = data.draw(st.sampled_from(
                [p for p in range(N_PAGES) if p not in ref._dead]
            ))
            where = data.draw(loc)
            ref.scrub_page(page, where)
            new.scrub_page(page, where)
        elif action == "flush":
            until = data.draw(st.none() | st.just(near_clock()))
            ref.flush(until)
            new.flush(until)
        elif action == "drop":
            ref.drop_pending()
            new.drop_pending()
        elif action == "verify":
            assert new.verify_table(table) == ref.verify_table(table)
        elif action == "compare":
            assert_same(ref, new)
        else:
            # a checkpoint the scalar class wrote resumes in the new one
            new = ShadowMemory(table)
            new.load_state_dict(ref.state_dict())
    assert new.verify_table(table) == ref.verify_table(table)
    assert_same(ref, new)


def test_pass_of_only_dead_accesses_still_lands_its_ops():
    """Ω and spare accesses are masked out, yet they still decide where
    the ops between them land."""
    table = make_table(4)
    ref, new = ReferenceShadowMemory(table), ShadowMemory(table)
    ghost, spare = table.amap.ghost_page, min(table.reserved_pages)
    arrays = (
        np.array([3, 9]), np.array([ghost, spare]), np.array([0, 1]),
        np.array([False, False]), np.array([ghost, spare]),
        np.array([True, False]),
    )
    for shadow in (ref, new):
        shadow.schedule(4, "copy", (("mach", 6), ("buf", 0), (1, 2)))
        shadow.schedule(10, "copy", (("slot", 0), ("mach", 6), None))
    ref.process(*arrays)
    new.feed(*arrays)
    new.process()
    assert len(new.state_dict()["ops"]) == 1
    assert_same(ref, new)


# ----------------------------------------------------------------------
# whole tracked simulations
# ----------------------------------------------------------------------
class FedReference(ReferenceShadowMemory):
    """The scalar shadow behind the simulator's ``feed``/``process()``."""

    def feed(self, *arrays) -> None:
        ReferenceShadowMemory.process(self, *arrays)

    def process(self, *arrays) -> None:
        if arrays:
            ReferenceShadowMemory.process(self, *arrays)


def run_with(shadow_cls, monkeypatch, cfg, trace, plan=None):
    with monkeypatch.context() as patch:
        patch.setattr("repro.datamodel.ShadowMemory", shadow_cls)
        sim = repro.EpochSimulator(cfg, track_data=True)
    assert type(sim.shadow) is shadow_cls
    if plan is not None:
        sim.attach_faults(plan)
    return sim, sim.run(trace)


@pytest.mark.parametrize(
    "algo, plan, resilience",
    [(algo, None, {}) for algo in ALGOS]
    + [("live", abort_plan(0, n_epochs=8, subblocks=7), {}),
       ("N-1", abort_plan(2, n_epochs=8), {"data_safe_abort": False})],
    ids=["N", "N-1", "live", "live-torn-fill", "N-1-bare-rollback"],
)
def test_tracked_simulation_matches_reference(
    algo, plan, resilience, monkeypatch
):
    cfg = config(algo, **resilience)
    trace = write_trace(cfg, n_epochs=8, seed=3)
    ref_sim, ref_result = run_with(FedReference, monkeypatch, cfg, trace, plan)
    sim, result = run_with(ShadowMemory, monkeypatch, cfg, trace, plan)
    assert dataclasses.asdict(result) == dataclasses.asdict(ref_result)
    assert_same(ref_sim.shadow, sim.shadow)
    assert sim.shadow.verify_table(sim.table) == ref_sim.shadow.verify_table(
        ref_sim.table
    )
    if resilience:
        assert result.data_violations > 0, "the bare rollback must be seen"


def test_reference_checkpoint_resumes_identically(monkeypatch):
    """The shadow's compact state (its pickle form) is unchanged: a state
    the scalar shadow wrote mid-run continues bit-identically in the
    vectorised one."""
    cfg = config("live")
    trace = write_trace(cfg, n_epochs=8, seed=5)
    _, whole = run_with(ShadowMemory, monkeypatch, cfg, trace, abort_plan(1, 8))
    first, result = run_with(
        FedReference, monkeypatch, cfg, trace[: 4 * INTERVAL], abort_plan(1, 8)
    )
    resumed = pickle.loads(pickle.dumps(first))
    shadow = ShadowMemory(resumed.table)
    shadow.load_state_dict(first.shadow.state_dict())
    resumed.shadow = resumed.engine.shadow = shadow
    assert type(resumed.shadow) is ShadowMemory
    resumed.run_into(trace[4 * INTERVAL:], result)
    assert dataclasses.asdict(result) == dataclasses.asdict(whole)
    assert resumed.shadow.verify_table(resumed.table) == []


def stream(trace, chunk):
    """Fresh chunk arrays per step, dropped once the simulator is done."""
    for start in range(0, len(trace), chunk):
        part = trace[start : start + chunk]
        yield make_chunk(part.addr.copy(), time=part.time.copy(),
                         rw=part.rw.copy())


@pytest.mark.parametrize("streamed", [False, True], ids=["run", "run_stream"])
def test_shadow_holds_no_chunk_after_a_run(streamed):
    """``run``/``run_stream`` keep O(chunk) memory under ``track_data``:
    once they return, the shadow has resolved and released every array
    it was fed."""
    cfg = config("live")
    sim = repro.EpochSimulator(cfg, track_data=True)
    fed = []
    feed = sim.shadow.feed

    def tracking_feed(*arrays):
        fed.extend(weakref.ref(a if a.base is None else a.base) for a in arrays)
        feed(*arrays)

    sim.shadow.feed = tracking_feed
    if streamed:
        sim.run_stream(stream(write_trace(cfg, n_epochs=6, seed=1), 2 * INTERVAL))
    else:
        sim.run(next(stream(write_trace(cfg, n_epochs=3, seed=1), 3 * INTERVAL)))
    gc.collect()
    assert fed and all(ref() is None for ref in fed)
    assert sim.shadow._buffer == [] and sim.shadow._buffered == 0
