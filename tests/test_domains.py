"""The flow-sensitive domain-confusion analyzer.

Covers the domain lattice, the three seeding tiers (signatures,
inline annotations, name inference), flow propagation (assignment
chains, augmented assignment, ternaries, branch joins, loop fixpoint),
the suppression/annotation escape hatches, and a known-bug corpus: a
planted wall-vs-useful clock comparison and a page-vs-frame address
mix-up that the analyzer must catch with step-indexed dataflow traces,
plus the four planted defects of the mutation study that no other
tier-1 test caught (the copy stretch, the bank's queue cap and the RAS
retire pass).
"""

import importlib
import inspect
import pkgutil
import textwrap

import pytest

import repro

from repro.analysis.domains import (
    Confidence,
    Domain,
    DomainValue,
    MAX_STEPS,
    UNKNOWN,
    conflict,
    extract_annotations,
    infer_domain,
    join,
    name_tokens,
    parse_directive,
)
from repro.analysis.domains.signatures import SIGNATURES
from repro.analysis.lint import Severity, lint_file, resolve_rules

SIM_PATH = "src/repro/simulator/example.py"


def findings_for(source, path=SIM_PATH):
    rules = resolve_rules(select=["domain-confusion"])
    return lint_file(path, rules, source=textwrap.dedent(source))


# ----------------------------------------------------------------------
# the lattice
# ----------------------------------------------------------------------
class TestModel:
    def test_join_same_domain_keeps_weaker_confidence(self):
        a = DomainValue(Domain.WALL_CYCLES, Confidence.DECLARED)
        b = DomainValue(Domain.WALL_CYCLES, Confidence.INFERRED)
        assert join(a, b).confidence is Confidence.INFERRED
        assert join(a, b).domain is Domain.WALL_CYCLES

    def test_join_differing_domains_is_unknown(self):
        a = DomainValue(Domain.WALL_CYCLES, Confidence.DECLARED)
        b = DomainValue(Domain.USEFUL_CYCLES, Confidence.DECLARED)
        assert not join(a, b).known

    def test_join_with_unknown_is_unknown(self):
        a = DomainValue(Domain.DRAM_ROW, Confidence.DECLARED)
        assert not join(a, UNKNOWN).known
        assert not join(UNKNOWN, a).known

    def test_conflict_requires_both_known(self):
        a = DomainValue(Domain.VIRTUAL_PAGE, Confidence.INFERRED)
        b = DomainValue(Domain.MACHINE_FRAME, Confidence.INFERRED)
        assert conflict(a, b)
        assert not conflict(a, UNKNOWN)
        assert not conflict(a, a)

    def test_provenance_steps_are_bounded(self):
        v = DomainValue(Domain.BYTE_ADDR, Confidence.INFERRED)
        for i in range(3 * MAX_STEPS):
            v = v.step(i, f"hop {i}")
        assert len(v.steps) == MAX_STEPS
        assert v.steps[-1] == (3 * MAX_STEPS - 1, f"hop {3 * MAX_STEPS - 1}")


# ----------------------------------------------------------------------
# name inference (the lowest tier)
# ----------------------------------------------------------------------
class TestInference:
    @pytest.mark.parametrize(
        "name,domain",
        [
            ("wall_arrivals", Domain.WALL_CYCLES),
            ("useful_departure", Domain.USEFUL_CYCLES),
            ("page", Domain.VIRTUAL_PAGE),
            ("vpage", Domain.VIRTUAL_PAGE),
            ("machine_page", Domain.MACHINE_FRAME),
            ("slot", Domain.MACHINE_FRAME),
            ("frame", Domain.MACHINE_FRAME),
            ("open_row", Domain.DRAM_ROW),
            ("addr", Domain.BYTE_ADDR),
            ("byte_offset", Domain.BYTE_ADDR),
            ("subblock", Domain.SUBBLOCK_IDX),
        ],
    )
    def test_vocabulary(self, name, domain):
        assert infer_domain(name) is domain

    @pytest.mark.parametrize(
        "name",
        ["n_slots", "page_count", "row_bits", "subblock_bytes",
         "addr_mask", "frame_size", "wall_budget", "swap_interval"],
    )
    def test_quantity_stop_tokens_infer_nothing(self, name):
        assert infer_domain(name) is None

    def test_machine_page_beats_page(self):
        # multi-token rules run before the singles they shadow
        assert infer_domain("machine_pages") is Domain.MACHINE_FRAME

    def test_camel_case_split(self):
        assert name_tokens("openRowIdx") == ["open", "row", "idx"]
        assert infer_domain("openRow") is Domain.DRAM_ROW


# ----------------------------------------------------------------------
# inline annotations (the middle tier)
# ----------------------------------------------------------------------
class TestAnnotations:
    def test_bare_form(self):
        ann = parse_directive(1, "machine_frame")
        assert ann.value is Domain.MACHINE_FRAME
        assert not ann.errors

    def test_bare_form_with_prose(self):
        ann = parse_directive(1, "wall_cycles - pre-warp instants")
        assert ann.value is Domain.WALL_CYCLES
        assert not ann.errors

    def test_named_form(self):
        ann = parse_directive(1, "t=wall_cycles, return=useful_cycles")
        assert ann.names == {
            "t": Domain.WALL_CYCLES,
            "return": Domain.USEFUL_CYCLES,
        }

    def test_unknown_spelling_is_an_error(self):
        ann = parse_directive(1, "wall_cycle")
        assert ann.value is None
        assert ann.errors == ("wall_cycle",)

    def test_extraction_skips_string_literals(self):
        src = 's = "# repro-domain: wall_cycles"\nt = 1  # repro-domain: useful_cycles\n'
        anns = extract_annotations(src)
        assert list(anns) == [2]
        assert anns[2].value is Domain.USEFUL_CYCLES

    def test_unknown_domain_reported_as_finding(self):
        found = findings_for("x = 1  # repro-domain: wall_cycle\n")
        assert len(found) == 1
        assert "unknown domain 'wall_cycle'" in found[0].message
        assert found[0].severity is Severity.ERROR


# ----------------------------------------------------------------------
# the known-bug corpus (the acceptance criterion)
# ----------------------------------------------------------------------
CLOCK_BUG = """
def latency(sched, arrival):
    arrival_u = sched.useful(arrival)
    start = sched.wall(arrival_u, begin=True)
    if start < arrival_u:
        return 0
    return start
"""

ADDRESS_BUG = """
def displacement(table, amap, addr):
    page = amap.page_of(addr)
    slot = table.slot_of(page)
    return page - slot
"""

# the mutation study's defects that only the analyzer caught, each in the
# shape it had in the source: C1 and C7 in MigrationEngine._copy_duration,
# C6 in Bank.access, A12 in RasController._retire_pass
COPY_STRETCH_USEFUL_START = """
class MigrationEngine:
    def _copy_duration(self, start, step):
        base = self._copy_cycles(step)
        return self.onpkg_refresh.stretch(self.onpkg_refresh.useful(start), base)
"""

COPY_STRETCH_WALL_WORK = """
class MigrationEngine:
    def _copy_duration(self, start, step):
        base = self._copy_cycles(step)
        return self.offpkg_refresh.stretch(start, self.offpkg_refresh.wall(base))
"""

BANK_CAP_WALL_ARRIVAL = """
class Bank:
    def access(self, row, arrival):
        sched = self._refresh
        arrival_u = sched.useful(arrival)  # repro-domain: useful_cycles
        start_u = max(arrival_u, sched.useful(self.ready_time))
        start_u = min(start_u, arrival + self.timing.max_queue_wait)
        return sched.wall(start_u, begin=True)
"""

RETIRE_SLOT_OF_FRAME = """
def retire_reason(table, frame):
    if table.slot_of(frame) == EMPTY:
        return "frame is the empty slot"
    return None
"""


class TestKnownBugCorpus:
    def test_wall_vs_useful_compare_is_caught(self):
        found = findings_for(CLOCK_BUG)
        assert len(found) == 1
        f = found[0]
        assert f.rule == "domain-confusion"
        assert "comparison" in f.message
        assert "wall_cycles" in f.message and "useful_cycles" in f.message
        # both sides flow from declared signatures -> error
        assert f.severity is Severity.ERROR
        assert "RefreshSchedule" in f.message  # the conversion hint

    def test_clock_bug_has_step_indexed_trace(self):
        (f,) = findings_for(CLOCK_BUG)
        assert f.trace, "finding must carry a dataflow trace"
        for i, step in enumerate(f.trace):
            assert step.startswith(f"step {i}: line "), step
        joined = "\n".join(f.trace)
        # the trace walks both operands to their signature origins
        assert "useful" in joined and "wall" in joined
        assert "mixed with" in f.trace[-1]

    def test_page_vs_frame_arithmetic_is_caught(self):
        found = findings_for(ADDRESS_BUG)
        assert len(found) == 1
        f = found[0]
        assert "arithmetic" in f.message
        assert "virtual_page" in f.message and "machine_frame" in f.message
        assert f.severity is Severity.ERROR

    def test_address_bug_trace_tracks_both_operands(self):
        (f,) = findings_for(ADDRESS_BUG)
        joined = "\n".join(f.trace)
        assert "page_of" in joined          # where the page came from
        assert "slot_of" in joined          # where the frame came from
        for i, step in enumerate(f.trace):
            assert step.startswith(f"step {i}: line "), step

    @pytest.mark.parametrize(
        "source,domains",
        [
            pytest.param(COPY_STRETCH_USEFUL_START,
                         ("useful_cycles", "wall_cycles"), id="C1"),
            pytest.param(BANK_CAP_WALL_ARRIVAL,
                         ("useful_cycles", "wall_cycles"), id="C6"),
            pytest.param(COPY_STRETCH_WALL_WORK,
                         ("wall_cycles", "useful_cycles"), id="C7"),
            pytest.param(RETIRE_SLOT_OF_FRAME,
                         ("machine_frame", "virtual_page"), id="A12"),
        ],
    )
    def test_mutation_study_defect_is_caught(self, source, domains):
        (f,) = findings_for(source)
        assert f.rule == "domain-confusion"
        assert all(d in f.message for d in domains), f.message
        assert f.trace


# ----------------------------------------------------------------------
# propagation
# ----------------------------------------------------------------------
class TestPropagation:
    def test_assignment_chain(self):
        found = findings_for(
            """
            def f(sched, t0):
                u = sched.useful(t0)
                v = u
                w = v
                return w + sched.wall(u)
            """
        )
        assert len(found) == 1
        assert "arithmetic" in found[0].message

    def test_augmented_assignment(self):
        found = findings_for(
            """
            def f(sched, t):
                acc = sched.useful(t)
                acc += sched.wall(acc)
                return acc
            """
        )
        assert len(found) == 1
        assert "arithmetic" in found[0].message

    def test_ternary_selection(self):
        found = findings_for(
            """
            def f(sched, t, flag):
                a = sched.useful(t)
                b = sched.wall(a)
                return a if flag else b
            """
        )
        assert len(found) == 1
        assert "selection" in found[0].message

    def test_ternary_with_agreeing_arms_is_clean(self):
        assert not findings_for(
            """
            def f(sched, t, flag):
                a = sched.useful(t)
                return a if flag else a + 1
            """
        )

    def test_branch_join_keeps_agreeing_domain(self):
        found = findings_for(
            """
            def f(sched, t, flag):
                if flag:
                    x = sched.useful(t)
                else:
                    x = sched.useful(t) + 1
                return x - sched.wall(x)
            """
        )
        assert len(found) == 1
        assert "arithmetic" in found[0].message

    def test_branch_join_with_unknown_is_conservative(self):
        assert not findings_for(
            """
            def f(sched, t, flag):
                if flag:
                    x = sched.useful(t)
                else:
                    x = 0
                return x - sched.wall(t)
            """
        )

    def test_loop_fixpoint_flows_late_domains_back(self):
        found = findings_for(
            """
            def f(sched, t):
                u = 0
                gap = 0
                for _ in range(3):
                    gap = u - sched.wall(t)
                    u = sched.useful(t)
                return gap
            """
        )
        assert len(found) == 1
        assert "arithmetic" in found[0].message

    def test_tuple_unpack_from_signature(self):
        found = findings_for(
            """
            def f(table, pages):
                on, machine = table.resolve_many(pages)
                return machine - pages
            """
        )
        assert len(found) == 1
        assert "machine_frame" in found[0].message
        assert "virtual_page" in found[0].message

    def test_argument_against_declared_parameter(self):
        found = findings_for(
            """
            def f(table, page):
                return table.page_in_slot(page)
            """
        )
        assert len(found) == 1
        assert "argument" in found[0].message

    def test_return_against_declared_signature(self):
        # analyzing the body of a registered qualname seeds the
        # parameter and expected-return domains
        found = findings_for(
            """
            class TranslationTable:
                def slot_of(self, page):
                    return page
            """
        )
        assert len(found) == 1
        assert "return" in found[0].message
        assert found[0].severity is Severity.ERROR

    def test_container_store_against_inferred_target(self):
        found = findings_for(
            """
            def f(mirror, page):
                mirror.machine_of[page] = page
            """
        )
        assert len(found) == 1
        assert "assignment" in found[0].message


# ----------------------------------------------------------------------
# each domain participates
# ----------------------------------------------------------------------
class TestDomainCatalog:
    def test_row_vs_byte_addr(self):
        found = findings_for(
            """
            def f(geom, addr):
                row = geom.rows_of(addr)
                return row == addr
            """
        )
        assert len(found) == 1
        assert "dram_row" in found[0].message

    def test_subblock_vs_offset(self):
        found = findings_for(
            """
            def f(amap, addr):
                return amap.subblock_of(addr) == amap.offset_of(addr)
            """
        )
        assert len(found) == 1
        assert "subblock_idx" in found[0].message

    def test_clock_never_mixes_with_address(self):
        found = findings_for(
            """
            def f(sched, amap, t, addr):
                u = sched.useful(t)
                page = amap.page_of(addr)
                return u + page
            """
        )
        assert len(found) == 1
        assert "never mix" in found[0].message


# ----------------------------------------------------------------------
# escape hatches and noise control
# ----------------------------------------------------------------------
class TestEscapeHatches:
    def test_inline_suppression(self):
        assert not findings_for(
            """
            def f(page, slot):
                return page == slot  # repro-lint: disable=domain-confusion
            """
        )

    def test_cast_annotation_silences_identity_pun(self):
        assert not findings_for(
            """
            def f(mirror, page):
                mirror.machine_of[page] = page  # repro-domain: machine_frame
            """
        )

    def test_annotation_overrides_inference(self):
        # 'deadline' infers nothing; the annotation makes it useful-domain
        found = findings_for(
            """
            def f(sched, t):
                deadline = sched.wall(t)  # repro-domain: useful_cycles
                return deadline - sched.wall(t)
            """
        )
        assert len(found) == 1
        assert "useful_cycles" in found[0].message

    def test_def_line_annotation_seeds_params_and_return(self):
        found = findings_for(
            """
            def f(x):  # repro-domain: x=wall_cycles, return=useful_cycles
                return x
            """
        )
        assert len(found) == 1
        assert "return" in found[0].message
        # both sides annotated -> error severity
        assert found[0].severity is Severity.ERROR

    def test_inferred_side_downgrades_to_warning(self):
        found = findings_for(
            """
            def f(page, slot):
                return page == slot
            """
        )
        assert len(found) == 1
        assert found[0].severity is Severity.WARNING

    def test_quantity_comparisons_stay_clean(self):
        assert not findings_for(
            """
            def f(pages, n_slots):
                hot = 0
                for page in pages:
                    if page < n_slots:
                        hot += 1
                return hot
            """
        )

    def test_multiplication_breaks_the_taint(self):
        # unit conversions (scaling, shifting) produce a new quantity
        assert not findings_for(
            """
            def f(sched, t, page_bytes):
                u = sched.useful(t)
                scaled = u * 2
                return scaled + sched.wall(t)
            """
        )

    def test_rule_skips_test_files(self):
        found = findings_for(CLOCK_BUG, path="tests/test_example.py")
        assert not found


# ----------------------------------------------------------------------
# the declared signatures name real methods
# ----------------------------------------------------------------------
def _classes_by_name():
    """Every class defined in a ``repro`` module, by name."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                found.setdefault(name, []).append(obj)
    return found


def test_signatures_resolve_to_real_methods():
    """A stale qualname silently drops its domains from the method body
    analysis, so each entry must name a real class attribute whose
    parameters (after ``self``) start with the declared ones."""
    classes = _classes_by_name()
    stale = []
    for sig in SIGNATURES:
        owner, _, method = sig.qualname.rpartition(".")
        real = [
            list(inspect.signature(getattr(cls, method)).parameters)[1:]
            for cls in classes.get(owner, [])
            if hasattr(cls, method)
        ]
        declared = [name for name, _ in sig.params]
        if not any(params[: len(declared)] == declared for params in real):
            stale.append(f"{sig.qualname}: declares {declared}, found {real}")
    assert not stale, "\n".join(stale)
