"""The exhaustive swap-protocol model checker (repro.analysis.protocol).

The headline assertions mirror the paper's Section III-A claim: for
every reachable table state and every legal (MRU, LRU) pair, the
declarative step sequences keep every access resolvable at every step
boundary — and a deliberately mis-ordered plan is rejected with a
step-indexed counterexample.
"""

import dataclasses

import pytest

from repro.analysis.protocol import (
    ALL_INVARIANTS,
    QUIESCENCE,
    STALL_ONLY_N,
    TABLE_BIJECTION,
    VALID_COPY,
    _model_recovery,
    _run_prefix,
    _sweep,
    candidate_pairs,
    check_plan,
    check_variant,
    fault_invariant_analysis,
    model_address_map,
    reachable_states,
)
from repro.config import MigrationAlgorithm
from repro.errors import AnalysisError
from repro.migration.algorithms import (
    CopyStep,
    TableUpdate,
    build_basic_swap_steps,
    build_swap_steps,
)
from repro.migration.recovery import recovery_plan
from repro.migration.table import TranslationTable
from repro.resilience.faults import FaultKind

AMAP = model_address_map()


def fresh_table() -> TranslationTable:
    return TranslationTable(AMAP, reserve_empty_slot=True)


# ----------------------------------------------------------------------
# the unmodified protocol verifies clean, exhaustively
# ----------------------------------------------------------------------
def counts(r) -> tuple[int, int, int, int]:
    return r.n_states, r.n_plans, r.n_runs, r.n_checks


class TestProtocolClean:
    """Each variant verifies clean, and does exactly the pinned work:
    states, plans, interleaving runs and read checks. A checker that
    dropped a run or a read would still say "ok"; these counts would
    not match."""

    def test_basic_n_verifies(self):
        r = check_variant(MigrationAlgorithm.N)
        assert r.ok, "\n".join(v.format() for v in r.violations)
        # a stalling plan has one boundary and no write interleaving
        assert counts(r) == (15, 180, 180, 5_040)

    def test_n_minus_1_verifies(self):
        r = check_variant(MigrationAlgorithm.N_MINUS_1)
        assert r.ok, "\n".join(v.format() for v in r.violations)
        # the write sweep must actually run (non-stalling design)
        assert counts(r) == (32, 384, 12_288, 427_200)

    def test_live_migration_verifies(self):
        r = check_variant(MigrationAlgorithm.LIVE)
        assert r.ok, "\n".join(v.format() for v in r.violations)
        # Live interleaves at sub-block granularity: strictly more runs
        # than N-1 over the same closure
        assert counts(r) == (32, 384, 63_552, 2_259_456)

    def test_live_wrapped_fill_start_verifies(self):
        # the critical (demanded) sub-block is filled first; a wrapped
        # start order must be just as safe
        r = check_variant(
            MigrationAlgorithm.LIVE, first_subblock=2, max_states=6
        )
        assert r.ok, "\n".join(v.format() for v in r.violations)
        assert counts(r) == (6, 72, 9_232, 308_016)

    def test_unknown_variant_rejected(self):
        with pytest.raises(AnalysisError):
            check_variant("n+1")

    def test_report_json_schema(self):
        r = check_variant(MigrationAlgorithm.N, max_states=3)
        data = r.to_json()
        assert set(data) == {
            "variant", "states", "plans", "runs", "checks", "ok", "violations",
        }
        assert data["variant"] == MigrationAlgorithm.N
        assert data["ok"] is True and data["violations"] == []


class TestStateEnumeration:
    def test_closure_is_finite_and_reaches_migrated_states(self):
        states = reachable_states(AMAP, variant=MigrationAlgorithm.N_MINUS_1)
        assert 1 < len(states) < 200
        # every state yields at least one legal swap
        for state in states:
            t = fresh_table()
            t.load_state_dict(state)
            assert candidate_pairs(t)


# ----------------------------------------------------------------------
# satellite: a mis-ordered plan is rejected with a counterexample
# ----------------------------------------------------------------------
def _mutate_commit_before_copy(plan):
    """Move the table update that follows the incoming copy to *before*
    it — committing the new mapping while the slot still holds garbage."""
    steps = list(plan.steps)
    idx = next(
        i for i, s in enumerate(steps)
        if isinstance(s, CopyStep) and s.incoming
    )
    jdx = next(
        j for j in range(idx + 1, len(steps))
        if isinstance(steps[j], TableUpdate)
    )
    update = steps.pop(jdx)
    steps.insert(idx, update)
    return dataclasses.replace(plan, steps=tuple(steps))


class TestMutatedPlanRejected:
    def test_commit_before_copy_violates_valid_copy(self):
        t = fresh_table()
        mru, lru = candidate_pairs(t)[0]
        plan = build_swap_steps(fresh_table(), mru, lru)
        bad = _mutate_commit_before_copy(plan)
        assert bad.steps != plan.steps

        res = check_plan(fresh_table, bad, variant=MigrationAlgorithm.N_MINUS_1)
        assert not res.ok
        assert any(v.invariant == VALID_COPY for v in res.violations)

    def test_counterexample_is_step_indexed(self):
        t = fresh_table()
        mru, lru = candidate_pairs(t)[0]
        bad = _mutate_commit_before_copy(build_swap_steps(t, mru, lru))
        res = check_plan(fresh_table, bad, variant=MigrationAlgorithm.N_MINUS_1)
        v = next(v for v in res.violations if v.invariant == VALID_COPY)
        assert v.boundary >= 0 and v.step_index >= 0
        assert v.step_label
        assert v.trace, "counterexample must carry the executed-step trace"
        text = v.format()
        assert f"[{VALID_COPY}]" in text
        assert "boundary" in text and "trace" in text

    def test_unmutated_plan_from_same_state_passes(self):
        t = fresh_table()
        mru, lru = candidate_pairs(t)[0]
        plan = build_swap_steps(fresh_table(), mru, lru)
        res = check_plan(fresh_table, plan, variant=MigrationAlgorithm.N_MINUS_1)
        assert res.ok, "\n".join(v.format() for v in res.violations)

    def test_stalling_plan_rejected_outside_n(self):
        t = fresh_table()
        mru, lru = candidate_pairs(t)[0]
        plan = build_swap_steps(fresh_table(), mru, lru)
        stalled = dataclasses.replace(plan, stall=True)
        res = check_plan(
            fresh_table, stalled, variant=MigrationAlgorithm.N_MINUS_1
        )
        assert any(v.invariant == STALL_ONLY_N for v in res.violations)

    def test_rejected_table_update_ends_the_check(self):
        """A step the table rejects is a ``table-bijection``
        counterexample carrying the executed-step trace, whether the dry
        run had reached a boundary (N-1: the initial state, whose reads
        count) or not (a stalling N plan's one boundary is at its end)."""
        bad = TableUpdate(
            "double fill", (("begin_fill", (0, 5)), ("begin_fill", (1, 6)))
        )
        def n_table():
            return TranslationTable(AMAP, reserve_empty_slot=False)

        cases = [
            (MigrationAlgorithm.N_MINUS_1, fresh_table, build_swap_steps, 28),
            (MigrationAlgorithm.N, n_table, build_basic_swap_steps, 0),
        ]
        for variant, table, build, checks in cases:
            plan = build(table(), *candidate_pairs(table())[0])
            res = check_plan(
                table, dataclasses.replace(plan, steps=(bad, *plan.steps)),
                variant=variant,
            )
            (v,) = res.violations
            assert (v.invariant, v.boundary, v.step_label) == (
                TABLE_BIJECTION, -1, "plan application"
            )
            assert "already filling" in v.message
            assert v.trace == ("step 0: table update: double fill",)
            assert (res.n_runs, res.n_checks) == (0, checks)

    def test_stalling_plan_residue_names_its_one_boundary(self):
        """A stalling plan has one boundary, at its end: the QUIESCENCE
        counterexample of a stray P bit left behind names boundary 0."""
        t = TranslationTable(AMAP)
        mru, lru = candidate_pairs(t)[0]
        plan = build_basic_swap_steps(TranslationTable(AMAP), mru, lru)
        stray = TableUpdate("stray P bit", (("set_pending", (0, True)),))
        bad = dataclasses.replace(plan, steps=(*plan.steps, stray))
        res = check_plan(
            lambda: TranslationTable(AMAP), bad, variant=MigrationAlgorithm.N
        )
        assert res.n_boundaries == 1
        (v,) = [v for v in res.violations if v.invariant == QUIESCENCE]
        assert v.boundary == 0
        assert "stray P bit" in v.message


# ----------------------------------------------------------------------
# satellite: fault kinds -> violated invariants
# ----------------------------------------------------------------------
class TestFaultImpacts:
    @pytest.fixture(scope="class")
    def impacts(self):
        return {
            (fi.fault, fi.scenario): fi for fi in fault_invariant_analysis()
        }

    def test_every_fault_kind_analysed(self, impacts):
        analysed = {fault for fault, _ in impacts}
        assert analysed == {k.value for k in FaultKind}

    def test_invariant_names_are_stable(self, impacts):
        for fi in impacts.values():
            assert set(fi.invariants) <= set(ALL_INVARIANTS)

    def test_stuck_p_bit_breaks_resolution_and_audit(self, impacts):
        (fi,) = [
            fi for fi in impacts.values()
            if fi.fault == FaultKind.STUCK_P_BIT.value
        ]
        assert set(fi.invariants) == {VALID_COPY, QUIESCENCE}

    def test_stuck_f_bit_only_fails_audit(self, impacts):
        (fi,) = [
            fi for fi in impacts.values()
            if fi.fault == FaultKind.STUCK_F_BIT.value
        ]
        assert fi.invariants == (QUIESCENCE,)

    def test_bitmap_corruption_serves_stale_subblock(self, impacts):
        (fi,) = [
            fi for fi in impacts.values()
            if fi.fault == FaultKind.BITMAP_CORRUPTION.value
        ]
        assert "stale-subblock" in fi.invariants

    def test_seu_scenarios_marked_not_clean(self, impacts):
        seu = {FaultKind.STUCK_P_BIT.value, FaultKind.STUCK_F_BIT.value,
               FaultKind.BITMAP_CORRUPTION.value}
        for fi in impacts.values():
            assert fi.expect_clean == (fi.fault not in seu)

    def test_abort_scenarios_recover_clean(self, impacts):
        aborts = {
            fi.scenario: fi for fi in impacts.values()
            if fi.fault == FaultKind.ABORT_SWAP.value
        }
        assert len(aborts) == 3
        # one scenario per landing: before the Ω copy, after it, and a
        # Live fill torn at a sub-block micro-boundary
        assert any("before" in s for s in aborts)
        assert any("after" in s for s in aborts)
        assert any("torn" in s for s in aborts)
        # the tentpole contract: data-safe recovery leaves every abort
        # landing with zero violated invariants
        for fi in aborts.values():
            assert fi.expect_clean
            assert fi.invariants == (), fi.scenario

    def test_dram_transient_out_of_scope(self, impacts):
        (fi,) = [
            fi for fi in impacts.values()
            if fi.fault == FaultKind.DRAM_TRANSIENT.value
        ]
        assert fi.invariants == ()


# ----------------------------------------------------------------------
# pinned regression: the late-abort counterexample the checker found
# ----------------------------------------------------------------------
class TestLateAbortCounterexample:
    """Abort after the Ω-resolution copy, then restore the table.

    A *bare* table rollback re-routes the incoming page to its old
    off-package home — which the Ω-resolution copy already overwrote —
    so a read sweep reports dead data (``valid-copy``). The data-safe
    recovery (copy the surviving on-package duplicate back home, *then*
    roll back) is what makes the same landing sweep clean. The runtime
    twin of this regression lives in tests/test_data_integrity.py.
    """

    @staticmethod
    def _late_abort():
        t = fresh_table()
        mru = next(
            p for p in range(t.n_slots, AMAP.n_total_pages)
            if p != AMAP.ghost_page and t.slot_of(p) is None
        )
        plan = build_swap_steps(t, mru, 0)
        snapshot = t.state_dict()
        # boundary 4 = map TU + incoming copy + Ω copy + pending clear
        shadow = _run_prefix(t, plan, 4)
        return shadow, t, snapshot

    def test_bare_rollback_reads_dead_data(self):
        shadow, t, snapshot = self._late_abort()
        t.load_state_dict(snapshot)
        assert VALID_COPY in _sweep(shadow, t)

    def test_data_safe_recovery_sweeps_clean(self):
        shadow, t, snapshot = self._late_abort()
        steps = _model_recovery(shadow, t, snapshot)
        assert steps, "late abort must require at least one copy-back"
        assert _sweep(shadow, t) == ()


# ----------------------------------------------------------------------
# tenant reclamation's copies, run through the model
# ----------------------------------------------------------------------
GHOST = ("mach", AMAP.ghost_page)


class TestReclamationModelCheck:
    """Each release shape, driven through the shadow memory.

    The start state is one N-1 case-A swap from boot: page 4 sits in
    slot 3, page 3's data is parked at machine page 4, and slot 0 is
    the empty slot (ghost page 0 at Ω). A release commits the routing
    update and runs the copies the engine's ``release_tenant`` plans
    (pre-release clone -> released table, released pages skipped); a
    read sweep over the surviving pages, plus the table audit, must
    come back clean.
    """

    @staticmethod
    def _swapped():
        t = fresh_table()
        shadow = _run_prefix(t, build_swap_steps(t, 4, 0))
        assert (t.slot_of(4), t.empty_slot()) == (3, 0)
        return shadow, t

    @pytest.mark.parametrize("released, expected", [
        # occupant 4 released: home page 3 comes back to its slot
        ([4], [(("mach", 4), ("slot", 3))]),
        # home page 3 (and the ghost) released: occupant 4 goes home
        ([0, 3], [(("slot", 3), ("mach", 4))]),
        # both sides of the row (and the ghost) released: nothing moves
        ([0, 3, 4], []),
        # identity page 1 released: ghost page 0 takes its freed slot
        ([1], [(GHOST, ("slot", 0))]),
        # occupant survives and the ghost relocates onto freed row 3
        ([3], [(GHOST, ("slot", 0)), (("slot", 3), ("mach", 4))]),
    ], ids=["home-survives", "occupant-survives", "both-dead",
            "ghost-relocation", "occupant-and-ghost"])
    def test_release_sweeps_clean(self, released, expected):
        shadow, t = self._swapped()
        before = t.clone()
        t.release_pages(released)
        steps = recovery_plan(before, [], target_table=t, skip=released)
        assert [(step.src, step.dst) for step in steps] == expected
        for step in steps:
            shadow.apply_copy(step.src, step.dst)
        # the released pages' data is dead: only survivors are swept
        assert _sweep(shadow, t, skip=released) == ()

    def test_unplanned_release_reads_dead_data(self):
        """The sweep has teeth: committing the release without its
        copies leaves surviving page 3 routed at page 4's bytes."""
        shadow, t = self._swapped()
        t.release_pages([4])
        assert VALID_COPY in _sweep(shadow, t, skip=[4])
