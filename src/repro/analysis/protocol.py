"""Exhaustive model checker for the swap-protocol step sequences.

The paper's core correctness claim (Section III-A) is that during a
hottest-coldest swap "the program execution will not be halted" —
because at **every intermediate step** every macro page still resolves
to a machine location that actually holds its data (P bit), and under
Live Migration every *sub-block* resolves to a landed copy (F bit +
fill bitmap). Translation-update protocols fail precisely in those
intermediate states, so this module checks them all, statically:

1. enumerate every reachable quiescent table state for a small
   power-of-two geometry (canonicalised modulo renaming of off-package
   pages, which the step builders treat symmetrically);
2. for every state and every legal (MRU, LRU) pair, take the
   *declarative* plan emitted by :mod:`repro.migration.algorithms` and
   symbolically run it against a versioned shadow memory. The engine
   runs the :class:`~repro.migration.template.SwapTemplate` derived
   from that plan's shape, not the plan itself;
   ``tests/test_swap_templates.py`` pins the two equal (copy steps,
   table after every update, routing timeline);
3. at every step boundary (and every sub-block micro-boundary under
   Live Migration) read **every** macro page, and re-run the plan once
   per (boundary, involved page, sub-block) with a symbolic write
   injected there, checking every subsequent boundary.

Checked invariants (names are stable — tests and docs key off them):

* ``valid-copy`` — each access resolves to exactly one location that
  holds the page's current data version;
* ``stale-subblock`` — the F-bit/bitmap refinement never serves a
  sub-block that has not landed (Live Migration);
* ``table-bijection`` — the right column stays injective and the CAM
  mirrors it at every step;
* ``ghost-unmapped`` — the reserved page Ω is never mapped into a slot
  (right column, CAM, or fill source target) while a swap is pending;
* ``ghost-exclusive`` — at most one macro page resolves to Ω at any
  instant (Ω backs exactly one parked copy);
* ``stall-only-n`` — only the basic N design halts execution during the
  copy; N-1 and Live Migration plans must be non-stalling;
* ``quiescence`` — a completed plan leaves no residue (P/F bits, fill
  bitmap), i.e. the table passes its between-epoch audit.

Writes are modelled with *controller write-forwarding*: the on-chip
memory controller performs both the copies and the demand accesses, so
a store that lands on the source of a still-uncommitted copy is
forwarded into the destination as well (the copy engine re-sends dirty
data until the table update commits). A forwarding link dies as soon
as either endpoint is overwritten by a later copy. Without this, the
paper's own sequences would report lost updates in the copy→table-update
window that the hardware closes by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..address import AddressMap
from ..config import MigrationAlgorithm
from ..errors import AnalysisError, TranslationTableError
from ..migration.algorithms import (
    CopyStep,
    SwapPlan,
    TableUpdate,
    build_basic_swap_steps,
    build_swap_steps,
)
from ..migration.recovery import recovery_moves, recovery_plan
from ..migration.table import EMPTY, Location, TranslationTable
from ..units import KB

# stable invariant names
VALID_COPY = "valid-copy"
STALE_SUBBLOCK = "stale-subblock"
TABLE_BIJECTION = "table-bijection"
GHOST_UNMAPPED = "ghost-unmapped"
GHOST_EXCLUSIVE = "ghost-exclusive"
STALL_ONLY_N = "stall-only-n"
QUIESCENCE = "quiescence"

ALL_INVARIANTS = (
    VALID_COPY,
    STALE_SUBBLOCK,
    TABLE_BIJECTION,
    GHOST_UNMAPPED,
    GHOST_EXCLUSIVE,
    STALL_ONLY_N,
    QUIESCENCE,
)


@dataclass(frozen=True)
class Violation:
    """One invariant violation with a step-indexed counterexample."""

    invariant: str
    boundary: int             # 0 = before the first step
    step_index: int           # index into plan.steps (-1 = initial state)
    step_label: str
    page: int | None
    subblock: int | None
    message: str
    trace: tuple[str, ...] = ()

    def format(self) -> str:
        head = (
            f"[{self.invariant}] boundary {self.boundary} "
            f"(after step {self.step_index}: {self.step_label}): {self.message}"
        )
        if not self.trace:
            return head
        return head + "\n  trace:\n    " + "\n    ".join(self.trace)


@dataclass
class PlanCheckResult:
    """Verdict for one concrete (state, plan) pair."""

    variant: str
    case: str
    mru: int
    lru: int
    n_boundaries: int = 0
    n_runs: int = 0
    n_checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class VariantReport:
    """Aggregate verdict for one algorithm variant."""

    variant: str
    n_states: int = 0
    n_plans: int = 0
    n_runs: int = 0
    n_checks: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "states": self.n_states,
            "plans": self.n_plans,
            "runs": self.n_runs,
            "checks": self.n_checks,
            "ok": self.ok,
            "violations": [
                {
                    "invariant": v.invariant,
                    "boundary": v.boundary,
                    "step_index": v.step_index,
                    "step_label": v.step_label,
                    "page": v.page,
                    "subblock": v.subblock,
                    "message": v.message,
                    "trace": list(v.trace),
                }
                for v in self.violations
            ],
        }


def model_address_map(*, slots: int = 4, total_pages: int = 8,
                      subblocks: int = 4) -> AddressMap:
    """The small power-of-two geometry the checker enumerates."""
    page_bytes = subblocks * KB
    return AddressMap(
        total_bytes=total_pages * page_bytes,
        onpkg_bytes=slots * page_bytes,
        macro_page_bytes=page_bytes,
        subblock_bytes=KB,
    )


# ----------------------------------------------------------------------
# symbolic machine
# ----------------------------------------------------------------------
@dataclass
class _Link:
    """A live controller write-forwarding link from a completed copy."""

    src: Location
    dst: Location
    live: bool = True


class _Machine:
    """Versioned shadow memory + plan executor over a real table."""

    def __init__(self, table: TranslationTable):
        self.table = table
        self.amap = table.amap
        self.S = self.amap.subblocks_per_page
        #: controller-private pages carrying no program data (Ω and any
        #: RAS retirement spares)
        self.dead = table.dataless_pages
        if table.filling:
            raise AnalysisError("checker requires a quiescent starting table")
        #: location -> per-sub-block (page, version) or None (garbage)
        self.contents: dict[Location, list[tuple[int, int] | None]] = {}
        #: (page, subblock) -> current data version
        self.version: dict[tuple[int, int], int] = {}
        for page in range(self.amap.n_total_pages):
            if page in self.dead:
                continue
            self.contents[table.location(page)] = [(page, 0) for _ in range(self.S)]
        self.links: list[_Link] = []
        self.trace: list[str] = []

    # -- memory primitives ----------------------------------------------
    def _cells(self, loc: Location) -> list[tuple[int, int] | None]:
        if loc not in self.contents:
            self.contents[loc] = [None] * self.S
        return self.contents[loc]

    def _close_links_at(self, loc: Location) -> None:
        for link in self.links:
            if link.live and (link.src == loc or link.dst == loc):
                link.live = False

    def copy(self, step: CopyStep, subblocks: list[int] | None = None) -> None:
        # the first byte landing at dst kills any older copy stream through
        # that location — its forwarding link must not fire again
        self._close_links_at(step.dst)
        src, dst = self._cells(step.src), self._cells(step.dst)
        for sb in subblocks if subblocks is not None else range(self.S):
            dst[sb] = src[sb]

    def link(self, step: CopyStep) -> None:
        """Open the write-forwarding link once a copy has fully landed."""
        self.links.append(_Link(step.src, step.dst))

    def resolve_loc(self, page: int, sb: int, *, live: bool) -> Location:
        return self.table.location(page, sb if live else None)

    def read_check(self, page: int, sb: int, *, live: bool) -> tuple[str, str] | None:
        """None if the access is served correctly, else (invariant, msg)."""
        loc = self.resolve_loc(page, sb, live=live)
        cell = self._cells(loc)[sb]
        expected = (page, self.version.get((page, sb), 0))
        if cell == expected:
            return None
        holds = "garbage" if cell is None else f"page {cell[0]} v{cell[1]}"
        invariant = VALID_COPY
        if live and page == self.table._fill_page:
            invariant = STALE_SUBBLOCK
        return (
            invariant,
            f"read page {page} sub-block {sb} resolves to {loc} which holds "
            f"{holds}, expected page {page} v{expected[1]}",
        )

    def write(self, page: int, sb: int, *, live: bool) -> str:
        loc = self.resolve_loc(page, sb, live=live)
        v = self.version.get((page, sb), 0) + 1
        self.version[(page, sb)] = v
        self._cells(loc)[sb] = (page, v)
        # controller write-forwarding into a still-uncommitted copy
        for link in self.links:
            if link.live and link.src == loc:
                self._cells(link.dst)[sb] = (page, v)
        return f"write page {page} sb {sb} -> {loc} v{v}"


# ----------------------------------------------------------------------
# plan execution with boundary callbacks
# ----------------------------------------------------------------------
def _execute_plan(machine: _Machine, plan: SwapPlan, *, live: bool,
                  first_subblock: int, on_boundary) -> None:
    """Run the plan; call ``on_boundary(b, step_index, label)`` after the
    initial state and after every step / sub-block micro-step.

    Stalling (N) plans get boundaries only at the ends — execution is
    halted, so no access can observe the intermediate states.
    """
    table = machine.table
    S = machine.S
    b = 0
    if not plan.stall:
        on_boundary(b, -1, "initial state")
        b += 1
    for i, step in enumerate(plan.steps):
        if isinstance(step, TableUpdate):
            machine.trace.append(f"step {i}: table update: {step.label}")
            step.apply(table)
            if not plan.stall:
                on_boundary(b, i, step.label)
                b += 1
            continue
        if live and step.incoming and table.filling:
            order = [(first_subblock + k) % S for k in range(S)]
            for j in order:
                machine.copy(step, subblocks=[j])
                machine.trace.append(
                    f"step {i}: {step.label} [sub-block {j} lands]"
                )
                if table.filling:
                    table.fill_subblock(j)
                if not plan.stall:
                    on_boundary(b, i, f"{step.label} [sub-block {j}]")
                    b += 1
            machine.link(step)
            continue
        machine.copy(step)
        machine.trace.append(f"step {i}: copy: {step.label}")
        if step.incoming and table.filling:
            table.end_fill()
        machine.link(step)
        if not plan.stall:
            on_boundary(b, i, step.label)
            b += 1
    on_boundary(b, len(plan.steps) - 1, "plan complete")


def _count_boundaries(plan: SwapPlan, *, live: bool, S: int) -> int:
    if plan.stall:
        return 2
    n = 1  # initial
    for step in plan.steps:
        if isinstance(step, CopyStep) and live and step.incoming:
            n += S
        else:
            n += 1
    return n + 1  # final


# ----------------------------------------------------------------------
# single-plan check
# ----------------------------------------------------------------------
def check_plan(
    make_table,
    plan: SwapPlan,
    *,
    variant: str,
    first_subblock: int = 0,
    write_pages: list[int] | None = None,
    max_violations: int = 10,
) -> PlanCheckResult:
    """Exhaustively check one plan from the state ``make_table`` yields.

    ``make_table`` is a zero-argument factory returning a fresh
    :class:`TranslationTable` in the pre-swap state (called once per
    interleaving run). ``write_pages`` limits the write sweep; ``None``
    means *pages whose resolution the dry run saw change* (every other
    page's routing is constant across the plan, so a write there is
    equivalent at every boundary).
    """
    live = variant == MigrationAlgorithm.LIVE
    expect_stall = variant == MigrationAlgorithm.N
    result = PlanCheckResult(
        variant=variant, case=plan.case.value, mru=plan.mru, lru=plan.lru
    )

    if plan.stall != expect_stall:
        result.violations.append(
            Violation(
                invariant=STALL_ONLY_N, boundary=0, step_index=-1,
                step_label="plan", page=None, subblock=None,
                message=(
                    f"{variant} plan has stall={plan.stall}; only the basic N "
                    "design may halt execution during the copy"
                ),
            )
        )

    probe = make_table()
    amap = probe.amap
    S = amap.subblocks_per_page
    ghost = amap.ghost_page
    pages = [p for p in range(amap.n_total_pages) if p != ghost]
    result.n_boundaries = _count_boundaries(plan, live=live, S=S)

    def violated(machine, invariant, b, i, label, page, sb, message):
        if len(result.violations) < max_violations:
            result.violations.append(
                Violation(
                    invariant=invariant, boundary=b, step_index=i,
                    step_label=label, page=page, subblock=sb,
                    message=message, trace=tuple(machine.trace[-24:]),
                )
            )

    # ---- dry run: reads everywhere, full table-state invariants -------
    machine = _Machine(make_table())
    seen_routes: dict[int, set[tuple[bool, int]]] = {p: set() for p in pages}

    def dry_boundary(b, i, label):
        result.n_runs += 0
        try:
            machine.table.check_invariants()
        except TranslationTableError as exc:
            violated(machine, TABLE_BIJECTION, b, i, label, None, None, str(exc))
        # Ω must never be mapped while the swap is pending
        if (
            bool(np.any(machine.table.pair == ghost))
            or ghost in machine.table._slot_of
            or machine.table._fill_page == ghost
        ):
            violated(
                machine, GHOST_UNMAPPED, b, i, label, ghost, None,
                f"reserved page Ω ({ghost}) is mapped into the table",
            )
        at_ghost = []
        for p in pages:
            seen_routes[p].add(machine.table.resolve(p))
            if machine.table.resolve(p) == (False, ghost):
                at_ghost.append(p)
            for sb in range(S):
                result.n_checks += 1
                bad = machine.read_check(p, sb, live=live)
                if bad is not None:
                    violated(machine, bad[0], b, i, label, p, sb, bad[1])
        if len(at_ghost) > 1:
            violated(
                machine, GHOST_EXCLUSIVE, b, i, label, None, None,
                f"pages {at_ghost} all resolve to Ω simultaneously",
            )

    try:
        _execute_plan(machine, plan, live=live, first_subblock=first_subblock,
                      on_boundary=dry_boundary)
    except TranslationTableError as exc:
        result.violations.append(
            Violation(
                invariant=TABLE_BIJECTION, boundary=-1, step_index=-1,
                step_label="plan application", page=None, subblock=None,
                message=f"table rejected a step: {exc}",
                trace=tuple(machine.trace[-24:]),
            )
        )
        return result
    result.n_runs += 1

    try:
        machine.table.audit()
    except TranslationTableError as exc:
        result.violations.append(
            Violation(
                invariant=QUIESCENCE, boundary=result.n_boundaries - 1,
                step_index=len(plan.steps) - 1, step_label="plan complete",
                page=None, subblock=None,
                message=f"post-swap residue: {exc}",
                trace=tuple(machine.trace[-24:]),
            )
        )

    if plan.stall:
        # execution is halted for the whole plan: the dry run's two
        # boundaries are the only observable states; no write interleaving
        return result

    # ---- exhaustive single-write interleavings ------------------------
    if write_pages is None:
        write_pages = sorted(
            p for p in pages if len(seen_routes[p]) > 1
        ) or [plan.mru, plan.lru]
    write_subblocks = range(S) if live else range(1)

    for wb in range(result.n_boundaries):
        for wp in write_pages:
            for wsb in write_subblocks:
                m = _Machine(make_table())
                state = {"armed": True}

                def run_boundary(b, i, label, *, m=m, wb=wb, wp=wp, wsb=wsb,
                                 state=state):
                    if b == wb and state["armed"]:
                        state["armed"] = False
                        m.trace.append(f"boundary {b}: " + m.write(wp, wsb, live=live))
                    if b >= wb:
                        for sb in range(S):
                            result.n_checks += 1
                            bad = m.read_check(wp, sb, live=live)
                            if bad is not None:
                                violated(m, bad[0], b, i, label, wp, sb, bad[1])
                    if b == result.n_boundaries - 1:
                        # closing sweep: the write must not have corrupted
                        # any other page's live copy
                        for p in pages:
                            result.n_checks += 1
                            bad = m.read_check(p, 0, live=live)
                            if bad is not None:
                                violated(m, bad[0], b, i, label, p, 0, bad[1])

                try:
                    _execute_plan(m, plan, live=live,
                                  first_subblock=first_subblock,
                                  on_boundary=run_boundary)
                except TranslationTableError as exc:  # pragma: no cover
                    violated(m, TABLE_BIJECTION, -1, -1, "plan application",
                             None, None, str(exc))
                result.n_runs += 1
                if len(result.violations) >= max_violations:
                    return result
    return result


# ----------------------------------------------------------------------
# state enumeration
# ----------------------------------------------------------------------
def _canonical_key(table: TranslationTable) -> tuple:
    """State key modulo renaming of the (interchangeable) off-package pages."""
    relabel: dict[int, int] = {}
    nxt = table.n_slots
    key = []
    for v in table.pair.tolist():
        if v == EMPTY:
            key.append("E")
        elif v < table.n_slots:
            key.append(v)
        else:
            if v not in relabel:
                relabel[v] = nxt
                nxt += 1
            key.append(relabel[v])
    return tuple(key)


def candidate_pairs(table: TranslationTable) -> list[tuple[int, int]]:
    """Every legal (MRU, LRU) the engine could pick in this state."""
    ghost = table.amap.ghost_page
    mrus = [
        p for p in range(table.amap.n_total_pages)
        if p != ghost and not bool(table.onpkg[p])
    ]
    lrus = [int(p) for p in table.resident_pages()]
    return [(m, l) for m in mrus for l in lrus if m != l]


def reachable_states(amap: AddressMap, *, variant: str,
                     max_states: int | None = None) -> list[dict]:
    """BFS closure of quiescent table states under the swap protocol.

    Returns ``state_dict`` snapshots of one canonical representative per
    equivalence class (off-package page ids are interchangeable to the
    step builders, so isomorphic states check identically).
    """
    basic = variant == MigrationAlgorithm.N
    boot = TranslationTable(amap, reserve_empty_slot=not basic)
    states: list[dict] = [boot.state_dict()]
    seen = {_canonical_key(boot)}
    queue = [states[0]]
    while queue:
        state = queue.pop(0)
        for mru, lru in candidate_pairs(boot.clone(state)):
            t = boot.clone(state)
            plan = (build_basic_swap_steps(t, mru, lru) if basic
                    else build_swap_steps(t, mru, lru))
            machine = _Machine(t)
            _execute_plan(machine, plan, live=False, first_subblock=0,
                          on_boundary=lambda b, i, label: None)
            key = _canonical_key(t)
            if key not in seen:
                seen.add(key)
                snap = t.state_dict()
                states.append(snap)
                queue.append(snap)
                if max_states is not None and len(states) >= max_states:
                    return states
    return states


# ----------------------------------------------------------------------
# variant-level driver
# ----------------------------------------------------------------------
def check_variant(
    variant: str,
    *,
    amap: AddressMap | None = None,
    max_states: int | None = None,
    first_subblock: int = 0,
    max_violations: int = 10,
) -> VariantReport:
    """Exhaustively verify one algorithm variant over its state closure."""
    if variant not in MigrationAlgorithm.ALL:
        raise AnalysisError(
            f"unknown variant {variant!r}; expected one of {MigrationAlgorithm.ALL}"
        )
    amap = amap or model_address_map()
    basic = variant == MigrationAlgorithm.N
    report = VariantReport(variant=variant)
    states = reachable_states(amap, variant=variant, max_states=max_states)
    report.n_states = len(states)
    boot = TranslationTable(amap, reserve_empty_slot=not basic)
    for state in states:
        for mru, lru in candidate_pairs(boot.clone(state)):
            t = boot.clone(state)
            plan = (build_basic_swap_steps(t, mru, lru) if basic
                    else build_swap_steps(t, mru, lru))
            res = check_plan(
                partial(boot.clone, state), plan, variant=variant,
                first_subblock=first_subblock,
                max_violations=max_violations - len(report.violations),
            )
            report.n_plans += 1
            report.n_runs += res.n_runs
            report.n_checks += res.n_checks
            report.violations.extend(res.violations)
            if len(report.violations) >= max_violations:
                return report
    return report


def check_all_variants(
    *,
    amap: AddressMap | None = None,
    max_states: int | None = None,
    max_violations: int = 10,
) -> dict[str, VariantReport]:
    """All three algorithm variants; Live also re-checked with a
    wrapped-around fill start to exercise the critical-block-first order."""
    out: dict[str, VariantReport] = {}
    for variant in MigrationAlgorithm.ALL:
        out[variant] = check_variant(
            variant, amap=amap, max_states=max_states,
            max_violations=max_violations,
        )
    return out


# ----------------------------------------------------------------------
# fault-injection impact analysis (resilience.faults -> invariants)
# ----------------------------------------------------------------------
class _HaltExecution(Exception):
    """Internal: stop a plan after a chosen number of steps."""


@dataclass(frozen=True)
class FaultImpact:
    """Which checker invariants one injected fault class violates.

    ``expect_clean`` is the scenario's contract: True means the modelled
    recovery machinery must leave **zero** violated invariants (plain
    ``repro-lint faults`` exits 1 when such a scenario violates one);
    False marks a raw SEU scenario that violates invariants *by design*
    — that is what the periodic audit exists to catch.
    """

    fault: str                 # FaultKind value
    scenario: str              # how/when the fault lands
    invariants: tuple[str, ...]
    note: str
    expect_clean: bool = True


def _run_prefix(machine: _Machine, plan: SwapPlan, n_steps: int, *,
                live: bool = False) -> None:
    """Execute exactly the first ``n_steps`` steps of ``plan``."""

    def cb(b, i, label):
        if b >= n_steps:
            raise _HaltExecution

    try:
        _execute_plan(machine, plan, live=live, first_subblock=0,
                      on_boundary=cb)
    except _HaltExecution:
        pass


def _model_recovery(m: _Machine, pre_state: dict) -> list[CopyStep]:
    """Mirror the engine's data-safe abort recovery on the model.

    The content map is read off the machine's *actual* cells (a location
    is a live copy of page p only when every sub-block holds p at its
    current version — a torn Live fill is garbage), the copy-back moves
    come from the same :func:`repro.migration.recovery.recovery_moves`
    the engine executes, and the table is restored to its pre-swap
    snapshot afterwards, in the engine's order.
    """
    table = m.table
    pre = table.clone(pre_state)

    content: dict[Location, int | None] = {}
    for loc, cells in m.contents.items():
        page = None
        if cells[0] is not None:
            p = cells[0][0]
            if all(
                cells[sb] == (p, m.version.get((p, sb), 0))
                for sb in range(m.S)
            ):
                page = p
        content[loc] = page

    pages = [p for p in range(m.amap.n_total_pages) if p not in m.dead]
    target_of = {p: pre.location(p) for p in pages}
    prefer = {p: table.location(p) for p in pages}
    steps = recovery_moves(content, target_of, prefer=prefer)
    for step in steps:
        m.copy(step)
        m.trace.append(f"recovery: {step.label}")
    table.load_state_dict(pre_state)
    return steps


def _sweep(machine: _Machine, *, live: bool = False) -> tuple[str, ...]:
    """Invariant names violated by a full read sweep + audit."""
    bad: set[str] = set()
    table = machine.table
    for page in range(machine.amap.n_total_pages):
        if page in machine.dead:
            continue
        for sb in range(machine.S):
            hit = machine.read_check(page, sb, live=live)
            if hit is not None:
                bad.add(hit[0])
    try:
        table.audit()
    except TranslationTableError:
        bad.add(QUIESCENCE)
    return tuple(sorted(bad))


def fault_invariant_analysis(amap: AddressMap | None = None) -> list[FaultImpact]:
    """Map each :class:`~repro.resilience.faults.FaultKind` to the checker
    invariants it violates, by actually injecting it into the model.

    The scenarios mirror what ``resilience/faults.py`` does to a live
    system: SEU bit flips land behind the table API on a quiescent table
    (``expect_clean=False`` — violating invariants is their point, and
    the periodic audit catches them); swap aborts land between plan
    steps and are followed by the engine's data-safe recovery
    (:func:`~repro.migration.recovery.recovery_moves` + table rollback),
    which must leave zero violated invariants.
    """
    from ..resilience.faults import FaultKind  # local: avoid import cycle

    amap = amap or model_address_map()
    out: list[FaultImpact] = []

    def fresh() -> TranslationTable:
        return TranslationTable(amap, reserve_empty_slot=True)

    def case_a_inputs(table: TranslationTable) -> tuple[int, int]:
        # boot state: every off-package non-ghost page is OS; LRU slot 0
        mru = next(
            p for p in range(table.n_slots, amap.n_total_pages)
            if p != amap.ghost_page and table.slot_of(p) is None
        )
        return mru, 0

    # -- STUCK_P_BIT: SEU on a quiescent table --------------------------
    t = fresh()
    m = _Machine(t)
    t.p_bit[0] = True
    t._sync_page(0)            # the RAM lookup now bypasses row 0
    out.append(
        FaultImpact(
            fault=FaultKind.STUCK_P_BIT.value,
            scenario="P bit flips on a quiescent table (SEU)",
            invariants=_sweep(m),
            note=(
                "the page resolves to Ω, which holds no copy of it — the "
                "periodic audit flags the stray bit and repair() clears it"
            ),
            expect_clean=False,
        )
    )

    # -- STUCK_F_BIT: SEU with no fill in progress ----------------------
    t = fresh()
    m = _Machine(t)
    t.f_bit[1] = True
    out.append(
        FaultImpact(
            fault=FaultKind.STUCK_F_BIT.value,
            scenario="F bit flips with no fill in progress (SEU)",
            invariants=_sweep(m),
            note=(
                "routing is unaffected (the fill registers are clear) but "
                "the table no longer passes its between-epoch audit"
            ),
            expect_clean=False,
        )
    )

    # -- BITMAP_CORRUPTION: a bit sets mid-Live-fill --------------------
    t = fresh()
    mru, lru = case_a_inputs(t)
    plan = build_swap_steps(t, mru, lru)
    m = _Machine(t)
    # boundary 3 = TU + two landed sub-blocks of the incoming fill
    _run_prefix(m, plan, 3, live=True)
    if not t.filling:  # pragma: no cover - geometry guard
        raise AnalysisError("expected a fill in progress at boundary 3")
    t.fill_bitmap[m.S - 1] = True   # claims a sub-block that never landed
    out.append(
        FaultImpact(
            fault=FaultKind.BITMAP_CORRUPTION.value,
            scenario="fill-bitmap bit sets mid Live Migration fill",
            invariants=_sweep(m, live=True),
            note=(
                "the F-bit refinement serves the corrupted sub-block "
                "on-package before its data lands — a stale read"
            ),
            expect_clean=False,
        )
    )

    # -- ABORT_SWAP: three landings, all with data-safe recovery --------
    # (a) abort before the Ω-resolution copy: no pre-swap home has been
    #     overwritten yet, so recovery reduces to the table rollback
    t = fresh()
    mru, lru = case_a_inputs(t)
    plan = build_swap_steps(t, mru, lru)
    snapshot = t.state_dict()
    m = _Machine(t)
    _run_prefix(m, plan, 2)    # map TU + incoming copy, then abort
    _model_recovery(m, snapshot)
    out.append(
        FaultImpact(
            fault=FaultKind.ABORT_SWAP.value,
            scenario="abort before the Ω-resolution copy, data-safe recovery",
            invariants=_sweep(m),
            note=(
                "no pre-swap home was overwritten yet: the recovery "
                "planner emits no copy-back and the table rollback alone "
                "restores the pre-swap routing over intact data"
            ),
        )
    )

    # (b) abort after the Ω-resolution copy: the MRU's old home holds
    #     dead data, so recovery copies the surviving on-package
    #     duplicate back home before restoring the table — a bare
    #     rollback here is the checker's valid-copy counterexample
    #     (pinned by tests/test_data_integrity.py)
    t = fresh()
    mru, lru = case_a_inputs(t)
    plan = build_swap_steps(t, mru, lru)
    snapshot = t.state_dict()
    m = _Machine(t)
    _run_prefix(m, plan, 4)    # ... incoming copy, Ω copy, pending clear
    _model_recovery(m, snapshot)
    out.append(
        FaultImpact(
            fault=FaultKind.ABORT_SWAP.value,
            scenario="abort after the Ω-resolution copy, data-safe recovery",
            invariants=_sweep(m),
            note=(
                "the incoming page's old home was already overwritten; "
                "the recovery planner copies the surviving on-package "
                "duplicate back home, then restores the table"
            ),
        )
    )

    # (c) Live Migration fill torn at a sub-block micro-boundary: the
    #     destination slot is garbage as a whole page, but the fill
    #     source is untouched — recovery must treat the partial fill as
    #     garbage and leave the still-valid source in place
    t = fresh()
    mru, lru = case_a_inputs(t)
    plan = build_swap_steps(t, mru, lru)
    snapshot = t.state_dict()
    m = _Machine(t)
    _run_prefix(m, plan, 4, live=True)  # TU + 3 of 4 sub-blocks landed
    if not t.filling:  # pragma: no cover - geometry guard
        raise AnalysisError("expected a fill in progress mid-abort")
    _model_recovery(m, snapshot)
    out.append(
        FaultImpact(
            fault=FaultKind.ABORT_SWAP.value,
            scenario="Live fill torn mid-sub-block, data-safe recovery",
            invariants=_sweep(m),
            note=(
                "the half-landed fill destination is garbage as a whole "
                "page; the content map never claims it, so recovery keeps "
                "routing at the intact fill source"
            ),
        )
    )

    # -- DRAM_TRANSIENT: no translation-state impact --------------------
    t = fresh()
    m = _Machine(t)
    out.append(
        FaultImpact(
            fault=FaultKind.DRAM_TRANSIENT.value,
            scenario="transient DRAM read errors",
            invariants=_sweep(m),   # sanity: a clean table sweeps clean
            note=(
                "never touches translation state; detect/correct/retry is "
                "the EccModel's job (resilience.faults.EccModel)"
            ),
        )
    )

    # -- CE_BURST: predictive frame retirement with data copy-out -------
    spare = amap.ghost_page - 1

    def fresh_ras() -> TranslationTable:
        return TranslationTable(
            amap, reserve_empty_slot=True, reserved_pages=frozenset({spare})
        )

    def retire(m: _Machine, slot: int) -> None:
        # the engine's retire_frame: plan from the table to a retired
        # clone, copy, then commit the update
        retired = m.table.clone()
        retired.retire_slot(slot, spare)
        for step in recovery_plan(m.table, [], target_table=retired):
            m.copy(step)
            m.trace.append(f"retirement: {step.label}")
        m.table.retire_slot(slot, spare)

    # (a) the dying frame is identity-mapped: one copy sends its page to
    #     the spare, and the slot leaves the pairing invariant for good
    t = fresh_ras()
    m = _Machine(t)
    retire(m, 1)
    out.append(
        FaultImpact(
            fault=FaultKind.CE_BURST.value,
            scenario="CE threshold crossed on an identity-mapped frame, "
                     "predictive retirement",
            invariants=_sweep(m),
            note=(
                "the frame's home page moves to the reserved spare before "
                "the slot is marked retired; every page keeps exactly one "
                "live copy and the table still audits clean"
            ),
        )
    )

    # (b) the dying frame holds a migrated page (transposition): the
    #     home page's copy at the occupant's machine page moves to the
    #     spare FIRST, then the occupant returns home over it
    t = fresh_ras()
    mru, lru = case_a_inputs(t)
    plan = build_swap_steps(t, mru, lru)
    m = _Machine(t)
    _execute_plan(m, plan, live=False, first_subblock=0,
                  on_boundary=lambda b, i, label: None)
    target = int(t.slot_of(mru))
    retire(m, target)
    out.append(
        FaultImpact(
            fault=FaultKind.CE_BURST.value,
            scenario="CE threshold crossed on a frame holding a migrated "
                     "page, predictive retirement",
            invariants=_sweep(m),
            note=(
                "retirement of a transposed frame is order-sensitive: the "
                "occupant's homeward copy overwrites the home page's only "
                "off-package copy, so the spare copy must land first"
            ),
        )
    )

    # -- SCRUB_LATENT: no translation-state impact ----------------------
    t = fresh_ras()
    m = _Machine(t)
    out.append(
        FaultImpact(
            fault=FaultKind.SCRUB_LATENT.value,
            scenario="latent CE surfaced by a patrol-scrub pass",
            invariants=_sweep(m),   # sanity: a clean table sweeps clean
            note=(
                "never touches translation state; the scrub read feeds the "
                "CE telemetry, whose threshold drives CE_BURST-style "
                "retirement through the same audited path"
            ),
        )
    )

    # -- ROW_DISTURB: hammering corrupts data, never the table ----------
    # The worst case for translation state is the escalation rung that
    # retires a hammered on-package frame — the same audited retirement
    # path as CE_BURST; the flips themselves land in DRAM data arrays
    # (shadow-memory territory), not in the on-chip SRAM table.
    t = fresh_ras()
    m = _Machine(t)
    retire(m, 2)
    out.append(
        FaultImpact(
            fault=FaultKind.ROW_DISTURB.value,
            scenario="activation threshold crossed, mitigation escalates "
                     "to retiring the hammered frame",
            invariants=_sweep(m),
            note=(
                "disturbance flips corrupt victim-row *data* (caught by "
                "the shadow-memory harness when unmitigated); the only "
                "translation-state consequence is the escalation ladder's "
                "retire rung, which reuses the audited retirement moves"
            ),
        )
    )
    return out
