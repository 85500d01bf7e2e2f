"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest benchmarks/suite -q
"""

import json
import subprocess
import sys

import numpy as np
import pytest

import run
from child import WORKLOADS, digest
from compare import SEED, gain, judge, regression
from run import END_TO_END, REPO, SUITE, check, golden_digest
from spans import HookError, Tracer, self_times

BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())


def span(sid, start, end, parent=None, name="x"):
    return {"id": sid, "name": name, "fn": "", "start": start, "end": end,
            "parent": parent}


class TestSelfTime:
    def test_nested_spans(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 1.0, 4.0, parent=0),
            span(2, 2.0, 3.0, parent=1),
            span(3, 5.0, 9.0, parent=0),
        ]
        assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            span(0, 0.0, 10.0),
            span(1, 2.0, 6.0, parent=0),
            span(2, 4.0, 8.0, parent=0),
            span(3, 9.0, 12.0, parent=0),
        ]
        # children cover [2, 8] and [9, 10] of the parent's interval
        assert self_times(spans)[0] == pytest.approx(3.0)

    def test_tracer_records_parents_and_iterator_steps(self):
        tracer = Tracer()

        class Model:
            def items(self):
                yield from (1, 2)

            def work(self, x):
                return x + 1

        Model.items = tracer._iterate("layer.gen", Model.items)
        Model.work = tracer._call("layer.work", Model.work)
        with tracer.span("run"):
            assert [Model().work(x) for x in Model().items()] == [2, 3]
        names = [(name, parent) for name, _, _, _, parent in tracer.spans]
        # the gen span closes before its item is consumed: no nesting
        assert names == [("run", None), ("layer.gen", 0), ("layer.work", 0),
                         ("layer.gen", 0), ("layer.work", 0), ("layer.gen", 0)]


def test_missing_hook_fails_loudly_and_names_it():
    layers = {"memctrl.resolve": [
        ("repro.memctrl.heterogeneous", "HeterogeneousController", "resolve_renamed"),
    ]}
    with pytest.raises(HookError, match="HeterogeneousController.resolve_renamed"):
        Tracer().install(layers)


class TestDecisionRule:
    parent = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]

    def test_nine_of_ten_wins_beyond_the_spread_is_a_gain(self):
        change = [110.0] * 9 + [90.0]
        assert gain(self.parent, change, "higher") == "gain"

    def test_eight_wins_is_not_a_gain(self):
        change = [110.0] * 8 + [90.0, 90.0]
        assert gain(self.parent, change, "higher") == "not met"

    def test_ties_count_for_neither_side(self):
        change = [p + 10 for p in self.parent[:8]] + self.parent[8:]
        assert gain(self.parent, change, "higher") == "not met"

    def test_a_win_within_the_spread_is_not_a_gain(self):
        change = [p + 0.5 for p in self.parent]
        assert gain(self.parent, change, "higher") == "not met"

    def test_lower_is_better(self):
        change = [90.0] * 10
        assert gain(self.parent, change, "lower") == "gain"

    def test_within_bound_is_ok_and_beyond_is_regressed(self):
        assert regression(self.parent, [95.0] * 10, "higher", 0.10) == "ok"
        assert regression(self.parent, [85.0] * 10, "higher", 0.10) == "regressed"
        assert regression(self.parent, [115.0] * 10, "lower", 0.10) == "regressed"

    def test_spread_beyond_bound_is_unresolved(self):
        noisy = [80.0, 120, 85, 115, 90, 110, 100, 100, 95, 105]
        assert regression(noisy, [99.0] * 10, "higher", 0.10) == "unresolved"

    def test_unresolved_unless_every_change_run_is_better(self):
        noisy = [80.0, 120, 85, 115, 90, 110, 100, 100, 95, 105]
        assert regression(noisy, [121.0] * 10, "higher", 0.10) == "ok"


class TestJudge:
    policy = {m["name"]: m for m in BENCHMARK["end_to_end"]}
    claim = ("accesses_per_s", "swap-heavy")

    @staticmethod
    def records(run_s: float, digest: str) -> list[dict]:
        return [{"accesses": 1000, "run_s": run_s * (1 + i / 1000), "probe_s": 0.43,
                 "setup_s": 0.1, "peak_rss_mb": 50.0, "digest": digest}
                for i in range(10)]

    def test_a_faster_change_with_golden_digests_meets_the_claim(self):
        pinned = golden_digest("swap-heavy", SEED, 1.0)
        records = {"parent": {"swap-heavy": self.records(1.0, pinned)},
                   "change": {"swap-heavy": self.records(0.5, pinned)}}
        rows, claim_met, clean = judge(records, self.policy, self.claim)
        assert claim_met and clean
        assert rows[0].endswith("failed 0/0")

    def test_a_change_whose_digests_differ_from_golden_fails(self):
        pinned = golden_digest("swap-heavy", SEED, 1.0)
        records = {"parent": {"swap-heavy": self.records(1.0, pinned)},
                   "change": {"swap-heavy": self.records(0.5, "0" * 64)}}
        rows, claim_met, clean = judge(records, self.policy, self.claim)
        assert not claim_met and not clean
        assert rows[0].endswith("failed 0/10")


def test_runs_are_checked_against_golden_or_else_each_other():
    pinned = [{"digest": "a"}, {"digest": "b"}]
    check(pinned, "b")
    assert ["error" in r for r in pinned] == [True, False]
    unpinned = [{"digest": "a"}, {"digest": "b"}, {"digest": "a"}, {"error": "exit 1"}]
    check(unpinned, None)
    assert ["error" in r for r in unpinned] == [False, True, False, True]


def test_digest_equal_for_fused_and_stepwise_loops():
    from repro import HeterogeneousMainMemory
    from repro.experiments.common import migration_config
    from repro.trace.record import make_chunk

    rng = np.random.default_rng(0)
    n = 20_000
    hot = rng.integers(0, 64, n) * 4096
    addr = np.where(rng.random(n) < 0.7, hot, rng.integers(0, 16_000, n) * 4096)
    trace = make_chunk(addr, time=np.cumsum(rng.integers(1, 40, n)),
                       rw=(rng.random(n) < 0.3).astype(np.int8))
    cfg = migration_config(algorithm="live", macro_page_bytes=4096,
                           swap_interval=1_000)
    fused = HeterogeneousMainMemory(cfg).run(trace)
    stepwise = HeterogeneousMainMemory(cfg, fused=False).run(trace)
    assert fused.swaps_triggered > 0
    assert (fused.fused_epochs, stepwise.stepwise_epochs) == (20, 20)
    assert digest(fused) == digest(stepwise)


def test_benchmark_json_names_the_suite():
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {
        name: unit for name, (unit, _) in END_TO_END.items()}


def test_quick_run_emits_every_metric_with_its_unit(tmp_path):
    cmd = [sys.executable, str(SUITE / "run.py"), "--quick", "--out", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    for w in WORKLOADS:
        rep = results["workloads"][w]
        assert rep["failed"] == 0 and rep["attempted"] == 3
        for kind in ("end_to_end", "per_layer"):
            emitted = {k: m["unit"] for k, m in rep[kind].items()}
            for metric in BENCHMARK[kind]:
                assert emitted.get(metric["name"]) == metric["unit"], (w, metric)
                assert f" {metric['name']} " in proc.stdout
        assert (tmp_path / f"spans-{w}.jsonl").exists()


def test_single_workload_run_ends_with_one_json_result(tmp_path):
    cmd = [sys.executable, str(SUITE / "run.py"), "--workload", "stall-n",
           "--quick", "--seconds", "1", "--trace", "0", "--out", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 3 and last["failed"] == 0
    assert {k: m["unit"] for k, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_result_line_is_printed_when_every_run_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "golden_digest", lambda *args: "0" * 64)
    code = run.main(["--workload", "stall-n", "--quick", "--reps", "2",
                     "--trace", "0", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last == {"correct": False, "attempted": 2, "failed": 2, "metrics": {}}
