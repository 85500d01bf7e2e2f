"""The ``repro-lint`` command line (lint / protocol / faults / rules)."""

import pytest

from repro.analysis.cli import main
from repro.analysis.lint import RULES

BAD_SOURCE = "import time\n\n\ndef stamp():\n    return time.time()\n"
GOOD_SOURCE = "import time\n\n\ndef tick():\n    return time.monotonic()\n"


@pytest.fixture
def tree(tmp_path):
    pkg = tmp_path / "src" / "repro" / "simulator"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(BAD_SOURCE)
    (pkg / "good.py").write_text(GOOD_SOURCE)
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tree, capsys):
        assert run(["lint", tree / "src" / "repro" / "simulator" / "good.py"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_nonzero(self, tree, capsys):
        code = run(["lint", tree, "--root", tree])
        assert code == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "bad.py:5" in out

    def test_missing_path_is_usage_error(self, tmp_path):
        assert run(["lint", tmp_path / "absent"]) == 2


CONFUSED_SOURCE = (
    "def latency(sched, arrival):\n"
    "    arrival_u = sched.useful(arrival)\n"
    "    start = sched.wall(arrival_u, begin=True)\n"
    "    return start < arrival_u\n"
)


class TestDomainsCommand:
    """The domain-confusion analysis runs inside ``repro-lint lint``."""

    @pytest.fixture
    def confused_tree(self, tmp_path):
        pkg = tmp_path / "src" / "repro" / "simulator"
        pkg.mkdir(parents=True)
        (pkg / "confused.py").write_text(CONFUSED_SOURCE)
        return tmp_path

    def test_confusion_exits_nonzero_with_trace(self, confused_tree, capsys):
        code = run(["lint", confused_tree, "--root", confused_tree])
        assert code == 1
        out = capsys.readouterr().out
        assert "domain-confusion" in out
        assert "step 0: line" in out  # the dataflow trace is printed


class TestUsageErrors:
    def test_unknown_subcommand_exits_two(self, capsys):
        # the domain analyzer has no subcommand of its own: `lint` runs it
        assert run(["domains", "src"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_subcommand_exits_two(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_two(self, capsys):
        assert run(["lint", "--bogus-flag"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "repro-lint" in capsys.readouterr().out


class TestProtocolCommand:
    def test_variant_n_ok(self, capsys):
        assert run(["protocol", "--variant", "n"]) == 0
        assert "OK" in capsys.readouterr().out


class TestFaultsCommand:
    def test_table_lists_every_fault(self, capsys):
        assert run(["faults"]) == 0
        out = capsys.readouterr().out
        for fault in ("stuck-p-bit", "stuck-f-bit", "bitmap-corruption",
                      "abort-swap", "dram-transient"):
            assert fault in out

    def test_seu_rows_marked_expected(self, capsys):
        assert run(["faults"]) == 0
        out = capsys.readouterr().out
        assert "(expected: audit repairs)" in out

    def test_fail_on_violation_passes_when_recovery_clean(self):
        # every expect_clean scenario (all the abort landings) must
        # model-recover with zero violated invariants — the CI gate
        assert run(["faults"]) == 0

    def test_fail_on_violation_trips_on_dirty_clean_scenario(self, capsys,
                                                             monkeypatch):
        from repro.analysis import cli as cli_mod
        from repro.analysis.protocol import FaultImpact

        def fake_analysis():
            return [
                FaultImpact(fault="abort-swap", scenario="s",
                            invariants=("valid-copy",), note="n"),
            ]

        monkeypatch.setattr(
            cli_mod, "fault_invariant_analysis", fake_analysis
        )
        assert run(["faults"]) == 1
        assert "expected clean" in capsys.readouterr().out


class TestRulesCommand:
    def test_catalog_lists_every_rule(self, capsys):
        assert run(["rules"]) == 0
        out = capsys.readouterr().out
        for name in RULES:
            assert name in out
