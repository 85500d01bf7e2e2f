"""The repro-lint engine: rules, suppressions, file walking, exit code."""

import textwrap

import pytest

from repro.analysis.lint import Severity, lint_file, resolve_rules, run_lint
from repro.errors import AnalysisError

SIM_PATH = "src/repro/simulator/example.py"


def findings_for(source, path=SIM_PATH, select=None):
    rules = resolve_rules(select=select)
    return lint_file(path, rules, source=textwrap.dedent(source))


def rule_names(findings):
    return sorted({f.rule for f in findings})


# ----------------------------------------------------------------------
# one seeded synthetic violation per rule (the acceptance criterion)
# ----------------------------------------------------------------------
class TestRules:
    def test_wall_clock_flagged(self):
        found = findings_for(
            """
            import time
            stamp = time.time()
            """
        )
        assert rule_names(found) == ["wall-clock"]
        assert found[0].severity is Severity.ERROR
        assert found[0].line == 3

    def test_datetime_now_flagged(self):
        found = findings_for(
            """
            import datetime
            a = datetime.datetime.now()
            b = datetime.date.today()
            """
        )
        assert len(found) == 2
        assert rule_names(found) == ["wall-clock"]

    def test_wall_clock_allowed_in_campaign(self):
        found = findings_for(
            "import time\nt = time.time()\n",
            path="src/repro/campaign/supervisor.py",
        )
        assert not [f for f in found if f.rule == "wall-clock"]

    def test_monotonic_not_flagged(self):
        assert not findings_for("import time\nt = time.monotonic()\n")

    def test_unseeded_rng_flagged(self):
        found = findings_for(
            """
            import random
            import numpy as np
            a = random.random()
            b = np.random.rand(3)
            rng = np.random.default_rng()
            r = random.Random()
            """,
            select=["unseeded-rng"],
        )
        assert rule_names(found) == ["unseeded-rng"]
        assert len(found) == 4

    def test_seeded_rng_clean(self):
        assert not findings_for(
            """
            import random
            import numpy as np
            rng = np.random.default_rng(42)
            r = random.Random(7)
            s = np.random.default_rng(seed=0)
            """,
            select=["unseeded-rng"],
        )

    def test_float_equality_flagged(self):
        found = findings_for(
            """
            def hit_rate(x):
                if x == 0.5:
                    return True
                return x != -1.0
            """
        )
        assert rule_names(found) == ["float-equality"]
        assert len(found) == 2
        assert found[0].severity is Severity.WARNING

    def test_int_equality_clean(self):
        assert not findings_for("ok = 1 == 1\nother = x == 5\n")

    def test_unordered_iteration_flagged(self):
        found = findings_for(
            """
            pages = {1, 2, 3}
            for p in pages:
                emit(p)
            rows = [f(x) for x in {4, 5}]
            """
        )
        assert rule_names(found) == ["unordered-iteration"]
        assert len(found) == 2

    def test_sorted_and_reductions_clean(self):
        assert not findings_for(
            """
            pages = {1, 2, 3}
            for p in sorted(pages):
                emit(p)
            total = sum(x for x in {4, 5})
            """
        )

    def test_broad_except_flagged_in_scope(self):
        src = """
        try:
            work()
        except Exception:
            pass
        try:
            work()
        except:
            pass
        """
        found = findings_for(src, path="src/repro/resilience/faults.py")
        assert rule_names(found) == ["broad-except"]
        assert len(found) == 2
        # same code outside campaign/resilience is not in scope
        assert not findings_for(src, path=SIM_PATH)


# ----------------------------------------------------------------------
# hot-path-copy
# ----------------------------------------------------------------------
HOT_PATH = "src/repro/core/example.py"


class TestHotPathCopy:
    def test_copy_in_loop_flagged(self):
        found = findings_for(
            """
            def f(chunks):
                for c in chunks:
                    x = c.copy()
            """,
            path=HOT_PATH,
        )
        assert rule_names(found) == ["hot-path-copy"]
        assert found[0].severity is Severity.WARNING

    def test_ascontiguousarray_in_while_flagged(self):
        found = findings_for(
            """
            import numpy as np

            def f(a):
                while a.size:
                    a = np.ascontiguousarray(a[1:])
            """,
            path="src/repro/dram/example.py",
        )
        assert rule_names(found) == ["hot-path-copy"]

    def test_copy_outside_loop_ok(self):
        assert not findings_for(
            """
            import numpy as np

            def f(a):
                b = np.ascontiguousarray(a)
                return b.copy()
            """,
            path=HOT_PATH,
        )

    def test_copy_with_arguments_ok(self):
        # copy(order="F") / copy.copy(x)-style calls with operands are
        # not the zero-arg array idiom the rule targets
        assert not findings_for(
            """
            import copy

            def f(items):
                for x in items:
                    y = copy.copy(x)
                    z = x.copy(order="F")
            """,
            path=HOT_PATH,
        )

    def test_nested_function_resets_loop_depth(self):
        assert not findings_for(
            """
            def f(chunks):
                for c in chunks:
                    def g():
                        return c.copy()
            """,
            path=HOT_PATH,
        )

    def test_out_of_scope_paths_ignored(self):
        src = """
        def f(chunks):
            for c in chunks:
                x = c.copy()
        """
        assert not findings_for(src, path=SIM_PATH)
        assert not findings_for(src, path="src/repro/campaign/supervisor.py")
        assert findings_for(src, path="src/repro/memctrl/example.py")

    def test_inline_suppression(self):
        assert not findings_for(
            """
            def f(chunks):
                for c in chunks:
                    x = c.copy()  # repro-lint: disable=hot-path-copy - detaches state
            """,
            path=HOT_PATH,
        )


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_inline_disable(self):
        assert not findings_for(
            "import time\nt = time.time()  # repro-lint: disable=wall-clock\n"
        )

    def test_disable_all(self):
        assert not findings_for(
            "import time\nt = time.time()  # repro-lint: disable=all\n"
        )

    def test_disable_wrong_rule_keeps_finding(self):
        found = findings_for(
            "import time\nt = time.time()  # repro-lint: disable=unseeded-rng\n"
        )
        assert rule_names(found) == ["wall-clock"]

    def test_marker_after_other_annotations(self):
        assert not findings_for(
            "import time\n"
            "t = time.time()  # noqa: X100  # repro-lint: disable=wall-clock - profiling\n"
        )

    def test_marker_inside_string_ignored(self):
        found = findings_for(
            'import time\nt = time.time(); s = "# repro-lint: disable=all"\n'
        )
        assert rule_names(found) == ["wall-clock"]

    def test_comma_separated_rules(self):
        assert not findings_for(
            "import time, random\n"
            "t = time.time() + random.random()"
            "  # repro-lint: disable=wall-clock,unseeded-rng\n"
        )


# ----------------------------------------------------------------------
# fork-safety
# ----------------------------------------------------------------------
class TestForkSafety:
    def test_module_level_lock_flagged(self):
        found = findings_for(
            """
            import threading
            _LOCK = threading.Lock()
            """,
            select=["fork-safety"],
        )
        assert rule_names(found) == ["fork-safety"]
        assert "fork" in found[0].message

    def test_module_level_memmap_flagged(self):
        found = findings_for(
            """
            import numpy as np
            DATA = np.memmap("trace.bin", dtype=np.int64, mode="r")
            """,
            select=["fork-safety"],
        )
        assert rule_names(found) == ["fork-safety"]
        assert "memmap" in found[0].message

    def test_module_level_rng_flagged(self):
        found = findings_for(
            """
            import numpy as np
            RNG = np.random.default_rng(1234)
            """,
            select=["fork-safety"],
        )
        assert rule_names(found) == ["fork-safety"]
        assert "RNG" in found[0].message

    def test_class_level_lock_flagged(self):
        found = findings_for(
            """
            import threading


            class Worker:
                lock = threading.RLock()
            """,
            select=["fork-safety"],
        )
        assert rule_names(found) == ["fork-safety"]

    def test_per_worker_construction_clean(self):
        found = findings_for(
            """
            import threading
            import numpy as np


            def worker_init(path):
                lock = threading.Lock()
                rng = np.random.default_rng(7)
                data = np.memmap(path, dtype=np.int64, mode="r")
                return lock, rng, data
            """,
            select=["fork-safety"],
        )
        assert not found

    def test_tests_directory_excluded(self):
        found = findings_for(
            "import threading\n_L = threading.Lock()\n",
            path="tests/test_something.py",
            select=["fork-safety"],
        )
        assert not found

    def test_suppression_honored(self):
        found = findings_for(
            """
            import threading
            _LOCK = threading.Lock()  # repro-lint: disable=fork-safety
            """,
            select=["fork-safety"],
        )
        assert not found


class TestEngine:
    def test_unknown_rule_rejected(self):
        with pytest.raises(AnalysisError):
            resolve_rules(select=["no-such-rule"])

    def test_missing_path_rejected(self):
        with pytest.raises(AnalysisError):
            run_lint(["/no/such/path"])

    def test_syntax_error_reported_not_raised(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint([str(tmp_path)], root=str(tmp_path))
        assert report.exit_code == 1
        assert report.parse_errors and not report.findings

    def test_repo_source_tree_is_clean(self):
        report = run_lint(["src"], root=".")
        assert report.exit_code == 0, report.format_text()
