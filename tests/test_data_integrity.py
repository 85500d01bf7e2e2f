"""Differential data-integrity harness (the tentpole acceptance test).

Runs full simulations with ``track_data=True`` so every demand access is
checked against the :class:`repro.datamodel.ShadowMemory`, and compares
the shadow's write-generation state against an *independent* oracle
computed straight from the trace. The abort sweep then injects a swap
abort at every copy-step boundary (and, for Live Migration, at
sub-block micro-boundaries) of all three designs and asserts the
data-safe recovery leaves every page readable with its last-written
generation.

The bare-rollback regression pins the counterexample the protocol
checker found: restoring the table after the Ω-resolution copy without
copying surviving duplicates home serves dead data. Its model-level
twin lives in tests/test_protocol_checker.py.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.config import MigrationConfig, SystemConfig
from repro.errors import MigrationError
from repro.migration.algorithms import crosses_boundary
from repro.migration.recovery import (
    BUFFER,
    apply_executed_copies,
    content_of_table,
    recovery_moves,
)
from repro.resilience import (
    ABORT_RECOVERED,
    FaultEvent,
    FaultKind,
    FaultPlan,
    load_checkpoint,
    save_checkpoint,
)
from repro.trace.record import make_chunk
from repro.units import KB, MB

from .conftest import bare_rollback

INTERVAL = 250
ALGOS = ("N", "N-1", "live")
#: sweeping 0..7 covers every copy step of every design's longest plan
COPY_STEPS = range(8)


def config(algo="live", **resilience) -> SystemConfig:
    # 64 KB macro pages keep one swap's copy window (~20k cycles
    # cross-boundary) comparable to an epoch, so several swaps — and
    # therefore several abort landings — fit in one short trace
    cfg = SystemConfig(
        total_bytes=16 * MB,
        onpkg_bytes=2 * MB,
        migration=MigrationConfig(
            algorithm=algo, macro_page_bytes=64 * KB, swap_interval=INTERVAL
        ),
    )
    return cfg.with_resilience(**resilience) if resilience else cfg


def write_trace(cfg: SystemConfig, n_epochs: int, seed: int = 0):
    """A write-bearing trace whose hot page rotates every epoch.

    Each epoch hammers one off-package page (so a swap triggers every
    interval) and mixes in scattered accesses over the whole footprint;
    ~35% of accesses are stores. The reserved page Ω is never addressed.
    """
    amap = cfg.address_map()
    rng = np.random.default_rng(seed)
    n = n_epochs * INTERVAL
    offpkg = [
        p for p in range(amap.n_onpkg_pages, amap.n_total_pages)
        if p != amap.ghost_page
    ]
    epoch = np.arange(n) // INTERVAL
    hot = np.array([offpkg[e % len(offpkg)] for e in range(n_epochs)])
    pages = hot[epoch]
    cold = rng.integers(0, amap.n_total_pages - 1, size=n)  # excludes Ω
    pages = np.where(rng.random(n) < 0.8, pages, cold)
    offsets = rng.integers(0, amap.subblocks_per_page, size=n)
    addr = pages * amap.macro_page_bytes + offsets * amap.subblock_bytes
    time = np.cumsum(rng.integers(1, 60, size=n))
    rw = (rng.random(n) < 0.35).astype(np.int8)
    return make_chunk(addr, time=time, rw=rw)


def oracle_generations(trace, amap) -> dict:
    """Per-(page, sub-block) write counts, straight from the trace."""
    pages = amap.page_of(trace.addr).tolist()
    sbs = amap.subblock_of(trace.addr).tolist()
    gen: dict[tuple[int, int], int] = {}
    for page, sb, rw in zip(pages, sbs, trace.rw.tolist()):
        if rw and page != amap.ghost_page:
            key = (page, sb)
            gen[key] = gen.get(key, 0) + 1
    return gen


def run_tracked(cfg: SystemConfig, trace, plan: FaultPlan | None = None):
    sim = repro.EpochSimulator(cfg, track_data=True)
    if plan is not None:
        sim.attach_faults(plan)
    result = sim.run(trace)
    return sim, result


def assert_data_clean(sim, result, trace) -> None:
    """Every read returned the last write, end to end."""
    shadow = sim.shadow
    assert result.data_violations == 0, shadow.violations[0].format()
    assert shadow.violations == []
    bad = shadow.verify_table(sim.engine.table)
    assert bad == [], bad[0].format()
    sim.engine.table.audit()
    assert shadow.generation == oracle_generations(trace, shadow.amap)


@pytest.fixture(scope="module")
def traces():
    """One shared write-bearing trace per algorithm's config geometry."""
    return {algo: write_trace(config(algo), n_epochs=8, seed=7)
            for algo in ALGOS}


# ----------------------------------------------------------------------
# fault-free differential: shadow == oracle under heavy migration
# ----------------------------------------------------------------------
class TestCleanDifferential:
    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_read_returns_last_write(self, algo, traces):
        cfg = config(algo)
        sim, result = run_tracked(cfg, traces[algo])
        assert sim.engine.swaps_triggered > 0, "harness must exercise swaps"
        assert sim.shadow.writes > 0 and sim.shadow.reads > 0
        assert_data_clean(sim, result, traces[algo])

    def test_track_data_does_not_change_the_numbers(self, traces):
        """The shadow is pure bookkeeping: every simulated figure is
        bit-identical with and without it."""
        trace = traces["live"]
        plain = repro.EpochSimulator(config("live")).run(trace)
        _, tracked = run_tracked(config("live"), trace)
        a, b = dataclasses.asdict(plain), dataclasses.asdict(tracked)
        a.pop("data_violations"), b.pop("data_violations")
        # the shadow reads no serviced latency, so both runs take the
        # deferred multi-epoch flush
        assert a["fused_epochs"] == b["fused_epochs"] == 8
        assert a["stepwise_epochs"] == b["stepwise_epochs"] == 0
        assert a == b

    def test_track_data_keeps_the_fused_loop(self):
        sim = repro.EpochSimulator(config("live"), track_data=True)
        assert sim.shadow is not None
        result = sim.run(write_trace(config("live"), n_epochs=3))
        assert (result.fused_epochs, result.stepwise_epochs) == (3, 0)


# ----------------------------------------------------------------------
# the abort sweep: every copy-step boundary of every design
# ----------------------------------------------------------------------
def abort_plan(step: int, n_epochs: int, subblocks: int = 0) -> FaultPlan:
    """Abort the swap of every other epoch at copy step ``step``."""
    events = [
        FaultEvent(epoch=e, kind=FaultKind.ABORT_SWAP, param=step,
                   subblocks=subblocks)
        for e in range(0, n_epochs, 2)
    ]
    return FaultPlan(events, seed=step)


class TestAbortSweep:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("step", COPY_STEPS)
    def test_abort_at_every_step_boundary_is_data_safe(
        self, algo, step, traces
    ):
        cfg = config(algo)
        trace = traces[algo]
        sim, result = run_tracked(cfg, trace, abort_plan(step, n_epochs=8))
        assert result.faults_injected > 0
        assert not result.quarantined
        assert_data_clean(sim, result, trace)
        if step == 0:
            # every plan has a copy step 0: the sweep must actually abort
            assert sim.engine.abort_recoveries > 0
        if sim.engine.abort_recoveries:
            events = [e for e in sim.degradation_events
                      if e.kind == ABORT_RECOVERED]
            assert events and all(e.recovered for e in events)
            assert sim.engine.recovery_bytes >= 0

    @pytest.mark.parametrize("subblocks", (1, 7, 15, 255))
    def test_live_fill_torn_mid_subblock_is_data_safe(
        self, subblocks, traces
    ):
        """Micro-boundary aborts: the fill dies *inside* copy step 0
        with only some sub-blocks landed."""
        cfg = config("live")
        trace = traces["live"]
        sim, result = run_tracked(
            cfg, trace, abort_plan(0, n_epochs=8, subblocks=subblocks)
        )
        assert sim.engine.abort_recoveries > 0
        assert not result.quarantined
        assert_data_clean(sim, result, trace)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_recovered_aborts_do_not_quarantine(self, algo, traces):
        cfg = config(algo, max_consecutive_failures=1)
        sim, result = run_tracked(cfg, traces[algo], abort_plan(1, n_epochs=8))
        assert sim.engine.abort_recoveries > 0
        assert not result.quarantined
        assert sim.engine.consecutive_failures == 0


# ----------------------------------------------------------------------
# pinned regression: the late-abort counterexample, at runtime
# ----------------------------------------------------------------------
class TestBareRollbackRegression:
    """Abort after the Ω-resolution copy (copy step 2 of an N-1 plan).

    A bare table rollback (rebuilt here by patching the recovery out)
    re-routes the migrated-in page to its old off-package home, which
    the Ω-resolution copy already overwrote: reads observably return
    dead data. The engine's recovery copies the surviving on-package
    duplicate home first, and the same workload runs clean.
    """

    PLAN = abort_plan(2, n_epochs=8)

    def test_bare_rollback_serves_dead_data(self, traces, monkeypatch):
        bare_rollback(monkeypatch)
        sim, result = run_tracked(config("N-1"), traces["N-1"], self.PLAN)
        assert result.faults_injected > 0
        assert result.data_violations > 0
        assert sim.shadow.verify_table(sim.engine.table)

    def test_data_safe_recovery_runs_clean(self, traces):
        cfg = config("N-1")
        sim, result = run_tracked(cfg, traces["N-1"], self.PLAN)
        assert sim.engine.abort_recoveries >= 1
        assert_data_clean(sim, result, traces["N-1"])


# ----------------------------------------------------------------------
# recovery planner unit coverage
# ----------------------------------------------------------------------
class TestRecoveryMoves:
    A = ("slot", 0)
    B = ("mach", 5)

    def _apply(self, content: dict, steps) -> dict:
        content = dict(content)
        for s in steps:
            content[s.dst] = content.get(s.src)
        return content

    def test_transposition_breaks_cycle_through_buffer(self):
        # pages 1 and 2 swapped relative to their targets: a 2-cycle
        content = {self.A: 2, self.B: 1}
        target = {1: self.A, 2: self.B}
        steps = recovery_moves(content, target)
        assert len(steps) == 3
        assert steps[0].dst == BUFFER, "cycle must stage through the buffer"
        final = self._apply(content, steps)
        assert final[self.A] == 1 and final[self.B] == 2
        # staging the off-package page and the slot's homeward copy cross
        # the boundary; draining the buffer into the slot does not
        assert [crosses_boundary(s.src, s.dst) for s in steps] == [True, True, False]

    def test_no_surviving_copy_is_an_error(self):
        with pytest.raises(MigrationError, match="no surviving copy"):
            recovery_moves({self.A: None}, {3: self.A})

    def test_executed_prefix_replay_marks_partial_copies_garbage(self):
        content = {self.A: 1, self.B: 2}
        apply_executed_copies(
            content, [(self.B, self.A, True), (self.A, BUFFER, False)]
        )
        assert content[self.A] == 2
        assert content[BUFFER] is None

    def test_content_of_table_covers_every_data_page(self):
        cfg = config("N-1")
        table = repro.EpochSimulator(cfg).engine.table
        content = content_of_table(table)
        pages = sorted(p for p in content.values() if p is not None)
        amap = cfg.address_map()
        assert pages == [
            p for p in range(amap.n_total_pages) if p != amap.ghost_page
        ]


# ----------------------------------------------------------------------
# checkpoint: the shadow is carried state
# ----------------------------------------------------------------------
class TestShadowCheckpoint:
    def test_resumed_tracked_run_is_identical(self, tmp_path, traces):
        cfg = config("live")
        trace = traces["live"]
        _, ref = run_tracked(cfg, trace, abort_plan(1, n_epochs=8))

        sim = repro.EpochSimulator(cfg, track_data=True)
        sim.attach_faults(abort_plan(1, n_epochs=8))
        result = repro.SimulationResult()
        path = tmp_path / "ck"
        chunk = 2 * INTERVAL
        for start in range(0, len(trace), chunk):
            sim.run_into(trace[start : start + chunk], result)
            save_checkpoint(path, sim, result)
            bundle = load_checkpoint(path)
            sim = bundle.simulator
            result = bundle.result
        assert sim.shadow is not None, "restore must re-attach the shadow"
        assert dataclasses.asdict(ref) == dataclasses.asdict(result)
        assert sim.shadow.verify_table(sim.engine.table) == []


# ----------------------------------------------------------------------
# property test: random workload x random abort landing stays clean
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    algo=st.sampled_from(ALGOS),
    step=st.integers(0, 7),
    epoch=st.integers(1, 5),
    subblocks=st.integers(0, 8),
)
def test_random_abort_landings_never_corrupt_data(
    seed, algo, step, epoch, subblocks
):
    cfg = config(algo)
    trace = write_trace(cfg, n_epochs=6, seed=seed)
    plan = FaultPlan(
        [FaultEvent(epoch=epoch, kind=FaultKind.ABORT_SWAP, param=step,
                    subblocks=subblocks)],
        seed=seed,
    )
    sim, result = run_tracked(cfg, trace, plan)
    assert not result.quarantined
    assert_data_clean(sim, result, trace)
