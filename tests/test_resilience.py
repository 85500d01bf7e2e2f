"""Resilience subsystem: checkpoint/restore, degradation, audits, ECC.

The fault *campaign* (hundreds of randomized scenarios) lives in
``test_fault_campaign.py`` behind the ``fault_campaign`` marker; this
module holds the deterministic unit and acceptance tests.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.address import AddressMap
from repro.config import (
    MigrationConfig,
    ResilienceConfig,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from repro.errors import (
    CheckpointError,
    MigrationError,
    TranslationTableError,
)
from repro.experiments import chaos_soak, hammer_soak
from repro.migration.algorithms import (
    CopyStep,
    build_basic_swap_steps,
    build_swap_steps,
)
from repro.migration.engine import MigrationEngine
from repro.migration.table import TranslationTable
from repro.resilience import (
    AUDIT_FAILED,
    MIGRATION_QUARANTINED,
    TABLE_REPAIRED,
    FaultEvent,
    FaultKind,
    FaultPlan,
    load_checkpoint,
    run_resumable,
    save_checkpoint,
    summarize_events,
)
from repro.trace.io import write_trace
from repro.trace.record import make_chunk
from repro.units import KB, MB

from .conftest import assert_same_state, bare_rollback, synthetic_trace

INTERVAL = 250


def config(algo="live", **resilience) -> SystemConfig:
    cfg = SystemConfig(
        total_bytes=64 * MB,
        onpkg_bytes=8 * MB,
        migration=MigrationConfig(
            algorithm=algo, macro_page_bytes=1 * MB, swap_interval=INTERVAL
        ),
    )
    return cfg.with_resilience(**resilience) if resilience else cfg


def as_fields(result) -> dict:
    return dataclasses.asdict(result)


# ----------------------------------------------------------------------
# checkpoint / restore
# ----------------------------------------------------------------------
class TestCheckpointDeterminism:
    @pytest.mark.parametrize("algo", ["N", "N-1", "live"])
    def test_resumed_run_is_field_for_field_identical(self, algo, tmp_path):
        """Kill-and-resume at every chunk boundary == uninterrupted run."""
        cfg = config(algo)
        trace = synthetic_trace(n=4 * INTERVAL * 3, seed=11)

        ref = repro.EpochSimulator(cfg).run(trace)

        path = tmp_path / "ck"
        sim = repro.EpochSimulator(cfg)
        result = repro.SimulationResult()
        chunk = 2 * INTERVAL  # multiple of the swap interval
        for start in range(0, len(trace), chunk):
            sim.run_into(trace[start : start + chunk], result)
            save_checkpoint(path, sim, result)
            # simulate the process dying: rebuild everything from disk
            bundle = load_checkpoint(path)
            sim = bundle.simulator
            result = bundle.result

        assert as_fields(ref) == as_fields(result)

    def test_resume_with_fault_plan_keeps_injecting(self, tmp_path):
        """The fault plan is checkpointed state: a resumed run injects
        the remaining scheduled faults exactly as an uninterrupted one."""
        cfg = config("live", audit_interval=2)
        trace = synthetic_trace(n=8 * INTERVAL, seed=5)
        plan = FaultPlan.random(seed=42, n_epochs=8, n_slots=8, rate=0.9)

        sim = repro.EpochSimulator(cfg)
        sim.attach_faults(plan)
        ref = sim.run(trace)
        assert ref.faults_injected > 0

        path = tmp_path / "ck"
        sim2 = repro.EpochSimulator(cfg)
        sim2.attach_faults(plan)
        result = repro.SimulationResult()
        for start in range(0, len(trace), INTERVAL):
            sim2.run_into(trace[start : start + INTERVAL], result)
            save_checkpoint(path, sim2, result)
            bundle = load_checkpoint(path)
            sim2 = bundle.simulator
            result = bundle.result

        assert as_fields(ref) == as_fields(result)

    def test_facade_save_and_resume(self, tmp_path):
        """The public name checkpoints through the package functions,
        caller-supplied ``extra`` included."""
        cfg = config("live")
        trace = synthetic_trace(n=4 * INTERVAL, seed=2)
        system = repro.HeterogeneousMainMemory(cfg)
        result = repro.SimulationResult()
        system.run_into(trace[: 2 * INTERVAL], result)
        path = tmp_path / "ck"
        repro.save_checkpoint(path, system, result, extra={"note": "halfway"})

        bundle = repro.load_checkpoint(path)
        assert bundle.extra == {"note": "halfway"}
        resumed, result2 = bundle.simulator, bundle.result
        assert isinstance(resumed, repro.HeterogeneousMainMemory)
        resumed.run_into(trace[2 * INTERVAL :], result2)

        system.run_into(trace[2 * INTERVAL :], result)
        assert as_fields(result) == as_fields(result2)


class TestCheckpointFileFormat:
    def _checkpoint(self, tmp_path):
        cfg = config()
        sim = repro.EpochSimulator(cfg)
        result = sim.run(synthetic_trace(n=INTERVAL, seed=0))
        path = tmp_path / "ck"
        save_checkpoint(path, sim, result)
        return path

    def test_roundtrip(self, tmp_path):
        path = self._checkpoint(tmp_path)
        bundle = load_checkpoint(path)
        assert bundle.extra == {}
        assert bundle.simulator.migrate is True

    def test_bad_magic(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with open(path, "r+b") as fh:
            fh.write(b"NOTACKPT")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self._checkpoint(tmp_path)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 100)
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = self._checkpoint(tmp_path)
        with open(path, "r+b") as fh:
            fh.truncate(10)
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope")


#: finishes a checkpointed run in a fresh interpreter: loads the file,
#: feeds the chunks it has not seen yet, checkpoints the final state
_FINISH_IN_CHILD = """
import sys
from repro.resilience import load_checkpoint, save_checkpoint
from repro.trace.io import TraceReader

path, trace_path, chunk = sys.argv[1], sys.argv[2], int(sys.argv[3])
bundle = load_checkpoint(path)
sim, result = bundle.simulator, bundle.result
for index, part in enumerate(TraceReader(trace_path, chunk_records=chunk)):
    if index >= bundle.extra["chunks_done"]:
        sim.run_into(part, result)
save_checkpoint(path, sim, result)
"""


def _matrix_cell(name):
    """``(config, simulator kwargs, fault plan, trace, swap interval)``.

    ``everything`` is RAS + row disturbance + refresh + the shadow + a
    fault plan of every kind they react to, on the chaos and hammer
    soaks' geometry; every other cell varies one thing of the default.
    """
    if name == "everything":
        hammer = hammer_soak.soak_config("live")
        cfg = dataclasses.replace(
            chaos_soak.soak_config("live"),
            offpkg_dram=hammer.offpkg_dram, onpkg_dram=hammer.onpkg_dram,
            disturb=hammer.disturb,
        )
        plan = FaultPlan(
            chaos_soak.soak_fault_plan().events
            + hammer_soak.hammer_fault_plan().events
            + (FaultEvent(epoch=3, kind=FaultKind.ABORT_SWAP, param=1),),
            seed=3,
        )
        # the hammer trace is all reads; a write mix gives the shadow
        # generations to carry across the checkpoints
        hammer_reads = hammer_soak.hammer_trace(24)
        writes = np.random.default_rng(5).random(len(hammer_reads)) < 0.3
        trace = make_chunk(hammer_reads.addr, time=hammer_reads.time, rw=writes)
        return cfg, {"track_data": True}, plan, trace, cfg.migration.swap_interval
    cfg = config("live")
    if name == "refresh":
        cfg = dataclasses.replace(
            cfg, offpkg_dram=offpkg_dram_timing(refresh=True),
            onpkg_dram=onpkg_dram_timing(refresh=True),
        )
    elif name == "os-assisted":
        cfg = cfg.with_migration(macro_page_bytes=64 * KB)
        assert cfg.migration.os_assisted
    # fused=False is the flag schema 3's hand-written restore dropped
    kwargs = {"static": {"migrate": False}, "unfused": {"fused": False}}
    trace = synthetic_trace(n=16 * INTERVAL, seed=7)
    return cfg, kwargs.get(name, {}), None, trace, INTERVAL


class TestCheckpointMatrix:
    """ROADMAP 2(c): a run checkpointed through a file at every chunk
    boundary equals the uninterrupted run — the whole
    ``SimulationResult`` and, when tracked, the shadow's contents — in
    every feature combination the checkpoint must carry."""

    @pytest.mark.parametrize(
        "name, in_child",
        [("refresh", False), ("os-assisted", False), ("static", False),
         ("unfused", False), ("everything", False), ("everything", True)],
        ids=["refresh", "os-assisted", "static", "unfused", "everything",
             "everything-fresh-process"],
    )
    def test_resumed_run_matches_uninterrupted(self, name, in_child, tmp_path):
        cfg, kwargs, plan, trace, interval = _matrix_cell(name)

        def fresh():
            sim = repro.EpochSimulator(cfg, **kwargs)
            if plan is not None:
                sim.attach_faults(plan)
            return sim

        ref_sim = fresh()
        ref = ref_sim.run(trace)

        chunk = 2 * interval
        path = tmp_path / "ck"
        sim, result = fresh(), repro.SimulationResult()
        # in the child variant this process runs only the first chunk
        stop = chunk if in_child else len(trace)
        for index, start in enumerate(range(0, stop, chunk)):
            sim.run_into(trace[start : start + chunk], result)
            save_checkpoint(path, sim, result, extra={"chunks_done": index + 1})
            bundle = load_checkpoint(path)
            sim, result = bundle.simulator, bundle.result
        if in_child:
            trace_path = tmp_path / "trace.bin"
            write_trace(trace_path, trace)
            src = os.path.dirname(os.path.dirname(repro.__file__))
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            )}
            subprocess.run(
                [sys.executable, "-c", _FINISH_IN_CHILD, str(path),
                 str(trace_path), str(chunk)],
                env=env, check=True, timeout=300,
            )
            bundle = load_checkpoint(path)
            sim, result = bundle.simulator, bundle.result

        assert as_fields(ref) == as_fields(result)
        assert sim.engine.shadow is sim.shadow
        if sim.shadow is not None:
            assert sim.shadow.state_dict() == ref_sim.shadow.state_dict()
        if sim._ras is not None:
            assert sim.engine.wear is sim._ras.wear
        if sim._disturb is not None:
            assert sim.engine.disturb is sim._disturb
            assert sim._disturb.shadow is sim.shadow
            assert sim._disturb.ras is sim._ras


class TestRunResumable:
    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg = config("live")
        trace = synthetic_trace(n=6 * INTERVAL, seed=9)
        trace_path = tmp_path / "trace.bin"
        write_trace(trace_path, trace)

        ref = repro.EpochSimulator(cfg).run(trace)

        # uninterrupted driver run
        full = run_resumable(
            cfg, trace_path, tmp_path / "ck_a", chunk_records=2 * INTERVAL
        )
        assert as_fields(ref) == as_fields(full)

        # killed after one chunk: pre-seed the checkpoint, then resume
        sim = repro.EpochSimulator(cfg)
        partial = repro.SimulationResult()
        sim.run_into(trace[: 2 * INTERVAL], partial)
        ck = tmp_path / "ck_b"
        save_checkpoint(
            ck, sim, partial,
            extra={"chunks_done": 1, "chunk_records": 2 * INTERVAL},
        )
        resumed = run_resumable(
            cfg, trace_path, ck, chunk_records=2 * INTERVAL
        )
        assert as_fields(ref) == as_fields(resumed)

    def test_chunk_size_mismatch_is_rejected(self, tmp_path):
        cfg = config("live")
        trace = synthetic_trace(n=4 * INTERVAL, seed=9)
        trace_path = tmp_path / "trace.bin"
        write_trace(trace_path, trace)
        ck = tmp_path / "ck"
        run_resumable(cfg, trace_path, ck, chunk_records=2 * INTERVAL)
        with pytest.raises(CheckpointError, match="chunk_records"):
            run_resumable(cfg, trace_path, ck, chunk_records=INTERVAL)


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------
def tear_every_plan(monkeypatch) -> None:
    """Make every swap's table write raise, as a corrupted table would.
    The engine writes a plan's updates from its swap template through
    :meth:`TranslationTable.write_swap` alone. Unlike a recovered
    injected abort, each such failure counts toward quarantine."""

    def torn(table, state):
        raise TranslationTableError(f"torn update of rows {state['rows'].tolist()}")

    monkeypatch.setattr(TranslationTable, "write_swap", torn)


class TestDegradedMode:
    def test_quarantine_after_k_failures(self, monkeypatch):
        tear_every_plan(monkeypatch)
        cfg = config("live", max_consecutive_failures=2)
        n_epochs = 12
        trace = synthetic_trace(n=n_epochs * INTERVAL, seed=3)
        sim = repro.EpochSimulator(cfg)
        result = sim.run(trace)

        assert result.quarantined
        assert sim.engine.quarantined
        kinds = summarize_events(result.degradation_events)
        assert kinds.get("swap-failed", 0) >= 2
        assert kinds.get(MIGRATION_QUARANTINED) == 1
        # quarantine rolled the table back to the boot-time mapping
        sim.table.check_invariants()
        from repro.migration.table import TranslationTable

        boot = TranslationTable(cfg.address_map())
        np.testing.assert_array_equal(sim.table.machine_of, boot.machine_of)
        np.testing.assert_array_equal(sim.table.onpkg, boot.onpkg)
        # and the engine stays inert afterwards
        decision = sim.engine.maybe_swap(int(trace.time[-1]) + 10)
        assert not decision.triggered
        assert "quarantined" in decision.reason

    @pytest.mark.parametrize("algo", ["N", "N-1", "live"])
    def test_degraded_latency_within_5pct_of_static(self, algo, monkeypatch):
        """Acceptance: a fully degraded run serves the whole trace with
        average latency within 5% of the static-mapping baseline."""
        cfg = config(algo, max_consecutive_failures=1)
        n_epochs = 16
        trace = synthetic_trace(n=n_epochs * INTERVAL, seed=7)

        static = repro.HeterogeneousMainMemory(cfg, migrate=False).run(trace)

        tear_every_plan(monkeypatch)
        degraded = repro.EpochSimulator(cfg).run(trace)

        assert degraded.quarantined
        assert degraded.n_accesses == static.n_accesses == len(trace)
        ratio = degraded.average_latency / static.average_latency
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_failure_counter_resets_on_success(self):
        cfg = config("live", max_consecutive_failures=3)
        n_epochs = 12
        trace = synthetic_trace(n=n_epochs * INTERVAL, seed=3)
        # abort only even epochs: failures never become consecutive
        # enough to quarantine as long as odd-epoch swaps succeed
        plan = FaultPlan(
            [FaultEvent(epoch=e, kind=FaultKind.ABORT_SWAP)
             for e in range(0, n_epochs, 4)],
            seed=1,
        )
        sim = repro.EpochSimulator(cfg)
        sim.attach_faults(plan)
        result = sim.run(trace)
        assert not result.quarantined
        sim.table.check_invariants()


class TestAbortRollback:
    @pytest.mark.parametrize("algo", ["N", "N-1", "live"])
    @pytest.mark.parametrize("step", [0, 1, 5])
    def test_aborted_swap_leaves_table_untouched(self, algo, step, tiny_amap):
        engine = MigrationEngine(
            tiny_amap,
            MigrationConfig(
                algorithm=algo, macro_page_bytes=1 * MB, swap_interval=100
            ),
        )
        hot = tiny_amap.n_onpkg_pages + 2
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot, dtype=np.int64),
            off_times=np.arange(5, dtype=np.int64),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        before = engine.table.state_dict()
        engine.inject_abort(at_copy_step=step)
        decision = engine.maybe_swap(now=100)
        assert not decision.triggered
        assert "swap failed" in decision.reason
        assert engine.swaps_failed == 1
        assert_same_state(before, engine.table.state_dict())
        engine.table.audit()
        # a later hot page still migrates: one failure != quarantine
        # (wait out the data-safe recovery's copy-back stall window)
        later = max(300, engine.busy_until + 100)
        engine.observe_epoch(
            slots=np.array([], dtype=np.int64),
            slot_times=np.array([], dtype=np.int64),
            offpkg_pages=np.full(5, hot, dtype=np.int64),
            off_times=np.arange(later - 100, later - 95, dtype=np.int64),
            off_subblocks=np.zeros(5, dtype=np.int64),
        )
        assert engine.maybe_swap(now=later).triggered


#: every plan shape each design can produce: the Fig 8 cases, the ghost
#: promotion (N-1/Live only) and the MRU-partner-is-LRU overlap
PLAN_SHAPES = {
    "N": ("A", "B", "C", "D", "overlap"),
    "N-1": ("A", "B", "C", "D", "G", "overlap"),
    "live": ("A", "B", "C", "D", "G", "overlap"),
}


def _matrix_engine(algo: str):
    return MigrationEngine(
        AddressMap(
            total_bytes=16 * MB, onpkg_bytes=4 * MB,
            macro_page_bytes=1 * MB, subblock_bytes=4 * KB,
        ),
        MigrationConfig(algorithm=algo, macro_page_bytes=1 * MB, swap_interval=100),
    )


def _plan(algo: str, table, mru: int, lru: int):
    build = build_basic_swap_steps if algo == "N" else build_swap_steps
    return build(table, mru, lru)


def _shape(table, plan) -> str:
    if plan.case.name in ("C", "D") and table.page_in_slot(plan.mru) == plan.lru:
        return "overlap"
    return plan.case.name


def _steer_swap(engine, mru: int, lru: int, now: int):
    """One epoch whose fold makes ``mru`` the hottest page and ``lru``'s
    slot the coldest one, then the boundary's swap evaluation."""
    lru_slot = engine.table.slot_of(lru)
    others = np.array(
        [s for s in range(engine.table.n_slots) if s != lru_slot], dtype=np.int64
    )
    engine.observe_epoch(
        slots=others,
        slot_times=np.full(others.shape, now - 1, dtype=np.int64),
        offpkg_pages=np.full(5, mru, dtype=np.int64),
        off_times=np.arange(now - 5, now, dtype=np.int64),
        off_subblocks=np.full(5, 2, dtype=np.int64),
    )
    return engine.maybe_swap(now=now)


@functools.cache
def _warm_shapes(algo: str) -> dict:
    """Shape -> (pre-swap table state, mru, lru), found by a seeded walk
    of successful swaps from boot until every shape has been plannable."""
    engine = _matrix_engine(algo)
    table = engine.table
    rng = np.random.default_rng(0)
    shapes: dict = {}
    now = 100
    for _ in range(200):
        pairs = [
            (mru, lru)
            for mru in range(table.amap.ghost_page) if not table.onpkg[mru]
            for lru in table.resident_pages().tolist()
        ]
        for mru, lru in pairs:
            shape = _shape(table, _plan(algo, table, mru, lru))
            shapes.setdefault(shape, (table.state_dict(), mru, lru))
        if len(shapes) == len(PLAN_SHAPES[algo]):
            break
        mru, lru = pairs[rng.integers(len(pairs))]
        assert _steer_swap(engine, mru, lru, now).triggered
        table.audit()
        now = engine.busy_until + 100
    return shapes


class TestRollbackMatrix:
    """A torn plan rolls the table back exactly, for every plan shape
    torn at every copy step, with the engine's copy-back recovery and
    with a bare rollback (recovery patched out): the undo record alone
    restores the table."""

    @pytest.mark.parametrize("data_safe", [True, False], ids=["data-safe", "bare"])
    @pytest.mark.parametrize(
        "algo,shape",
        [(algo, shape) for algo, shapes in PLAN_SHAPES.items() for shape in shapes],
    )
    def test_torn_plan_restores_full_state(
        self, algo, shape, data_safe, monkeypatch
    ):
        state, mru, lru = _warm_shapes(algo)[shape]
        if not data_safe:
            bare_rollback(monkeypatch)
        probe = _matrix_engine(algo)
        probe.table.load_state_dict(state)
        plan = _plan(algo, probe.table, mru, lru)
        assert _shape(probe.table, plan) == shape
        n_copies = sum(1 for s in plan.steps if isinstance(s, CopyStep))
        # a Live abort can land mid-fill, after some sub-blocks arrived
        landed = (0, 3) if algo == "live" else (0,)
        for step in range(n_copies):
            for subblocks in landed:
                engine = _matrix_engine(algo)
                engine.table.load_state_dict(state)
                before = engine.table.state_dict()
                engine.inject_abort(step, subblocks=subblocks)
                decision = _steer_swap(engine, mru, lru, now=1000)
                assert "aborted at copy step" in decision.reason, (step, decision)
                assert_same_state(
                    before, engine.table.state_dict(), f"step {step}/{subblocks}"
                )
                engine.table.audit()
                assert engine.abort_recoveries == int(data_safe)


# ----------------------------------------------------------------------
# audits, repair, ECC
# ----------------------------------------------------------------------
class TestAuditAndRepair:
    def test_stuck_bits_detected_and_repaired(self):
        cfg = config("live", audit_interval=1)
        trace = synthetic_trace(n=4 * INTERVAL, seed=1)
        plan = FaultPlan(
            [
                FaultEvent(epoch=0, kind=FaultKind.STUCK_P_BIT, param=2),
                FaultEvent(epoch=1, kind=FaultKind.STUCK_F_BIT, param=3),
                FaultEvent(epoch=2, kind=FaultKind.BITMAP_CORRUPTION, param=5),
            ],
            seed=0,
        )
        sim = repro.EpochSimulator(cfg)
        sim.attach_faults(plan)
        result = sim.run(trace)

        kinds = summarize_events(result.degradation_events)
        assert kinds.get(AUDIT_FAILED, 0) >= 3
        assert kinds.get(TABLE_REPAIRED, 0) >= 3
        assert not result.quarantined  # SEUs are repairable corruption
        sim.table.audit()

    def test_audit_interval_zero_never_audits(self):
        cfg = config("live", audit_interval=0)
        sim = repro.EpochSimulator(cfg)
        sim.attach_faults(FaultPlan(
            [FaultEvent(epoch=0, kind=FaultKind.STUCK_P_BIT, param=1)], seed=0
        ))
        result = sim.run(synthetic_trace(n=2 * INTERVAL, seed=1))
        kinds = summarize_events(result.degradation_events)
        assert AUDIT_FAILED not in kinds

    def test_table_audit_rejects_stray_state(self, tiny_amap):
        from repro.migration.table import TranslationTable

        table = TranslationTable(tiny_amap)
        table.check_invariants()
        table.audit()
        table.f_bit[1] = True
        with pytest.raises(TranslationTableError):
            table.audit()
        fixes = table.repair()
        assert fixes
        table.audit()

    def test_repair_gives_up_on_duplicate_mapping(self, tiny_amap):
        from repro.migration.table import TranslationTable

        table = TranslationTable(tiny_amap)
        # two physical pages claiming the same machine page is
        # semantically ambiguous — repair must refuse to guess
        table.pair[1] = table.pair[0]
        with pytest.raises(TranslationTableError):
            table.repair()


class TestEcc:
    def test_transient_errors_fully_accounted(self):
        cfg = config("live")
        plan = FaultPlan(
            [FaultEvent(epoch=e, kind=FaultKind.DRAM_TRANSIENT, param=3)
             for e in range(6)],
            seed=4,
        )
        sim = repro.EpochSimulator(cfg)
        sim.attach_faults(plan)
        result = sim.run(synthetic_trace(n=6 * INTERVAL, seed=4))
        total = (
            result.dram_errors_corrected
            + result.dram_errors_retried
            + result.dram_errors_uncorrectable
        )
        assert total == 18  # every injected error has a verdict
        assert result.faults_injected == 6

    def test_ecc_is_seed_deterministic(self):
        def run():
            cfg = config("live")
            plan = FaultPlan(
                [FaultEvent(epoch=e, kind=FaultKind.DRAM_TRANSIENT, param=2)
                 for e in range(4)],
                seed=99,
            )
            sim = repro.EpochSimulator(cfg)
            sim.attach_faults(plan)
            return sim.run(synthetic_trace(n=4 * INTERVAL, seed=1))

        assert as_fields(run()) == as_fields(run())

    def test_ecc_errors_cost_cycles(self):
        cfg = config("live")
        clean = repro.EpochSimulator(cfg).run(synthetic_trace(n=2 * INTERVAL, seed=8))
        sim = repro.EpochSimulator(cfg)
        sim.attach_faults(FaultPlan(
            [FaultEvent(epoch=0, kind=FaultKind.DRAM_TRANSIENT, param=50)],
            seed=12,
        ))
        noisy = sim.run(synthetic_trace(n=2 * INTERVAL, seed=8))
        assert noisy.total_latency > clean.total_latency


class TestResilienceConfig:
    def test_validation(self):
        with pytest.raises(Exception):
            ResilienceConfig(audit_interval=-1)
        with pytest.raises(Exception):
            ResilienceConfig(max_consecutive_failures=0)

    def test_with_resilience_builder(self):
        cfg = config()
        tuned = cfg.with_resilience(audit_interval=7)
        assert tuned.resilience.audit_interval == 7
        assert tuned.migration == cfg.migration

    def test_report_table_renders(self, monkeypatch):
        tear_every_plan(monkeypatch)
        cfg = config("live", max_consecutive_failures=1)
        n_epochs = 6
        sim = repro.EpochSimulator(cfg)
        result = sim.run(synthetic_trace(n=n_epochs * INTERVAL, seed=7))
        from repro.stats.report import resilience_table

        text = resilience_table(result).render()
        assert "quarantined" in text
        assert "faults injected" in text
