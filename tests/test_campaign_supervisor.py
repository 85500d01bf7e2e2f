"""CampaignSupervisor: crash isolation, timeouts, manifest resume.

Worker functions live at module level so they work under any
multiprocessing start method. Timeouts and backoff delays are kept
small; the whole file stays within a few seconds of wall clock.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.campaign import (
    COMPLETED,
    FAILED,
    MANIFEST_VERSION,
    RUNNING,
    CampaignManifest,
    CampaignSupervisor,
    CampaignTask,
    FakeClock,
    RetryPolicy,
)
from repro.errors import CampaignError, TaskCrashError
from repro.stats.report import campaign_table

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01)


# ---------------------------------------------------------------------------
# campaign worker functions (module-level: picklable / fork-safe)
# ---------------------------------------------------------------------------

def double(x):
    return x * 2


def crash_hard():
    os._exit(1)  # simulates SIGKILL/OOM: no exception, no cleanup


def sleep_forever():
    time.sleep(60)


def raise_value_error():
    raise ValueError("deterministic bug, retrying cannot help")


def raise_task_crash():
    raise TaskCrashError("raised by the task itself, not a dead worker")


def stop_self_then_sleep():
    """Goes silent (SIGSTOP) while staying alive."""
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(60)


def thread_count():
    return threading.active_count()


def record_and_double(x, log_path=None):
    with open(log_path, "a") as fh:
        fh.write(f"{x}\n")
    return x * 2


# ---------------------------------------------------------------------------


class TestInlineSerial:
    def test_results_in_submission_order(self):
        report = CampaignSupervisor().run(
            [CampaignTask(f"t{i}", double, (i,)) for i in range(5)]
        )
        assert [o.result for o in report.outcomes] == [0, 2, 4, 6, 8]
        assert report.ok
        assert all(o.attempts == 1 for o in report.outcomes)

    def test_failure_is_recorded_not_raised(self):
        report = CampaignSupervisor(retry=FAST_RETRY).run([
            CampaignTask("good", double, (3,)),
            CampaignTask("bad", raise_value_error),
            CampaignTask("also-good", double, (4,)),
        ])
        assert not report.ok
        assert [o.task_id for o in report.failed] == ["bad"]
        assert "ValueError" in report.by_id["bad"].error
        # siblings completed despite the failure
        assert report.result("good") == 6
        assert report.result("also-good") == 8

    def test_inline_task_runs_once(self):
        """Inline, no worker can crash or time out: a task that raises a
        retryable error itself fails on its one attempt."""
        report = CampaignSupervisor(retry=RetryPolicy(max_attempts=3)).run(
            [CampaignTask("crash", raise_task_crash)]
        )
        outcome = report.by_id["crash"]
        assert outcome.status == FAILED
        assert outcome.attempts == 1
        assert "TaskCrashError" in outcome.error

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignSupervisor().run(
                [CampaignTask("x", double, (1,)), CampaignTask("x", double, (2,))]
            )

    def test_manifest_written_inline(self, tmp_path):
        path = tmp_path / "manifest.json"
        CampaignSupervisor(manifest_path=path, retry=FAST_RETRY).run([
            CampaignTask("ok", double, (1,)),
            CampaignTask("bad", raise_value_error),
        ])
        data = json.loads(path.read_text())
        assert data["version"] == MANIFEST_VERSION
        assert data["tasks"]["ok"]["status"] == COMPLETED
        assert data["tasks"]["ok"]["result"] == 2
        assert data["tasks"]["bad"]["status"] == FAILED
        assert "ValueError" in data["tasks"]["bad"]["error"]


class TestCrashIsolation:
    def test_acceptance_campaign(self, tmp_path):
        """ISSUE acceptance: >= 8 tasks, 2 crash, 1 hangs past its
        timeout; the rest complete; exactly the exhausted tasks are
        failed in the manifest; a re-invocation resumes, skipping
        completed tasks."""
        path = tmp_path / "manifest.json"
        log = tmp_path / "ran.log"
        tasks = [
            CampaignTask(f"ok{i}", record_and_double, (i,),
                         {"log_path": str(log)})
            for i in range(6)
        ] + [
            CampaignTask("crash-a", crash_hard),
            CampaignTask("crash-b", crash_hard),
            CampaignTask("hang", sleep_forever),
        ]
        supervisor = CampaignSupervisor(
            jobs=3, task_timeout=1.0, retry=FAST_RETRY, manifest_path=path,
        )
        report = supervisor.run(tasks)

        assert {o.task_id for o in report.completed} == {f"ok{i}" for i in range(6)}
        assert {o.task_id for o in report.failed} == {"crash-a", "crash-b", "hang"}
        # retried per policy before giving up
        assert all(o.attempts == FAST_RETRY.max_attempts for o in report.failed)
        assert "TaskCrashError" in report.by_id["crash-a"].error
        assert "TaskTimeoutError" in report.by_id["hang"].error
        for i in range(6):
            assert report.result(f"ok{i}") == i * 2

        data = json.loads(path.read_text())
        failed = {t for t, r in data["tasks"].items() if r["status"] == FAILED}
        assert failed == {"crash-a", "crash-b", "hang"}

        # re-invocation: completed tasks are skipped (not recomputed),
        # failed tasks are attempted again
        runs_before = log.read_text().count("\n")
        report2 = supervisor.run(tasks)
        assert {o.task_id for o in report2.skipped} == {f"ok{i}" for i in range(6)}
        assert {o.task_id for o in report2.failed} == {"crash-a", "crash-b", "hang"}
        assert log.read_text().count("\n") == runs_before
        # skipped tasks still expose their manifest-stored results
        assert report2.result("ok3") == 6

    def test_crashed_worker_relaunches_after_its_backoff(self):
        """The process path is the one retry loop: a worker that crashes
        is launched ``max_attempts`` times, each relaunch after its
        backoff. FakeClock advances only on sleeps, so every wait the
        supervisor sleeps is exactly the delay."""
        retry = RetryPolicy(max_attempts=3, base_delay=0.5)
        supervisor = CampaignSupervisor(jobs=2, retry=retry)
        clock = supervisor.clock = FakeClock()
        report = supervisor.run([CampaignTask("crash", crash_hard)])
        outcome = report.by_id["crash"]
        assert outcome.status == FAILED
        assert outcome.attempts == retry.max_attempts
        assert "TaskCrashError" in outcome.error
        assert clock.sleeps == [retry.backoff(1), retry.backoff(2)]
        assert clock.sleeps == [0.5, 1.0]

    def test_worker_exception_reaches_report(self):
        report = CampaignSupervisor(jobs=2, retry=FAST_RETRY,
                                    task_timeout=5.0).run([
            CampaignTask("bad", raise_value_error),
            CampaignTask("good", double, (5,)),
        ])
        assert "ValueError" in report.by_id["bad"].error
        # deterministic bugs are not retried
        assert report.by_id["bad"].attempts == 1
        assert report.result("good") == 10

    def test_worker_runs_only_its_task(self):
        """A worker process runs the task on its main thread and
        starts no other thread."""
        report = CampaignSupervisor(jobs=2, task_timeout=5.0).run(
            [CampaignTask("t", thread_count)]
        )
        assert report.result("t") == 1

    def test_timeout_kills_silent_worker(self):
        """A SIGSTOPped worker is alive but silent: its wall-clock
        budget kills it while its sibling completes."""
        supervisor = CampaignSupervisor(
            jobs=2, task_timeout=0.5, retry=RetryPolicy(max_attempts=1),
        )
        t0 = time.monotonic()
        report = supervisor.run([
            CampaignTask("silent", stop_self_then_sleep),
            CampaignTask("chatty", double, (2,)),
        ])
        assert time.monotonic() - t0 < 30.0
        assert report.by_id["silent"].status == FAILED
        assert "TaskTimeoutError" in report.by_id["silent"].error
        assert report.result("chatty") == 4


class TestManifestResume:
    def test_interrupted_tasks_are_requeued(self, tmp_path):
        """A task left 'running' by a dead supervisor is re-run."""
        path = tmp_path / "manifest.json"
        manifest = CampaignManifest.open(path)
        manifest.mark_completed("done", 1.0, result=99)
        manifest.mark_running("inflight")
        assert manifest.tasks["inflight"].status == RUNNING

        report = CampaignSupervisor(manifest_path=path).run([
            CampaignTask("done", double, (1,)),
            CampaignTask("inflight", double, (21,)),
        ])
        assert report.by_id["done"].status == "skipped"
        assert report.result("done") == 99          # manifest result, not 2
        assert report.by_id["inflight"].status == COMPLETED
        assert report.result("inflight") == 42

    def test_needs_run_filters_only_completed(self, tmp_path):
        """Resume skips only completed tasks: a failed, a running and an
        unknown task all run, and the manifest then marks them completed."""
        path = tmp_path / "m.json"
        manifest = CampaignManifest.open(path)
        manifest.mark_completed("a", 0.1)
        manifest.mark_failed("b", "boom", 0.1)
        manifest.mark_running("c")

        report = CampaignSupervisor(manifest_path=path).run([
            CampaignTask(t, double, (n,))
            for t, n in (("a", 1), ("b", 5), ("c", 6), ("d", 7))
        ])
        assert [o.task_id for o in report.skipped] == ["a"]
        assert sorted(o.task_id for o in report.completed) == ["b", "c", "d"]
        assert [report.result(t) for t in ("b", "c", "d")] == [10, 12, 14]
        reloaded = CampaignManifest.open(path)
        assert all(r.status == COMPLETED for r in reloaded.tasks.values())

    def test_atomic_save_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        manifest = CampaignManifest.open(path)
        manifest.mark_completed("t", 2.5, result={"rows": [1, 2]})
        reloaded = CampaignManifest.open(path)
        record = reloaded.tasks["t"]
        assert record.status == COMPLETED
        assert record.result == {"rows": [1, 2]}
        assert record.duration_s == 2.5
        assert not (tmp_path / "m.json.tmp").exists()

    def test_unserialisable_results_degrade_to_none(self, tmp_path):
        manifest = CampaignManifest.open(tmp_path / "m.json")
        manifest.mark_completed("t", 1.0, result=object())
        record = CampaignManifest.open(tmp_path / "m.json").tasks["t"]
        assert record.status == COMPLETED
        assert record.result is None and not record.has_result

    def test_unknown_version_refused(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"magic": "repro-campaign-manifest", "version": 99, "tasks": {}}
        ))
        with pytest.raises(CampaignError, match="version"):
            CampaignManifest.open(path)

    def test_corrupt_manifest_refused(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{ not json")
        with pytest.raises(CampaignError, match="cannot read"):
            CampaignManifest.open(path)

    def test_foreign_json_refused(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(CampaignError, match="not a campaign manifest"):
            CampaignManifest.open(path)

    def test_bad_status_refused(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "magic": "repro-campaign-manifest", "version": MANIFEST_VERSION,
            "tasks": {"t": {"task_id": "t", "status": "exploded"}},
        }))
        with pytest.raises(CampaignError, match="unknown status"):
            CampaignManifest.open(path)


class TestValidationAndReport:
    @pytest.mark.parametrize("kwargs", [
        {"jobs": 0},
        {"task_timeout": 0.0},
    ])
    def test_bad_supervisor_parameters(self, kwargs):
        with pytest.raises(CampaignError):
            CampaignSupervisor(**kwargs)

    def test_campaign_table_names_partial_results(self):
        report = CampaignSupervisor(retry=FAST_RETRY).run([
            CampaignTask("good", double, (1,)),
            CampaignTask("bad", raise_value_error),
        ])
        rendered = campaign_table(report).render()
        assert "good" in rendered and "bad" in rendered
        assert "1 completed, 1 failed" in rendered
        assert "PARTIAL" in rendered
        assert rendered == report.table().render()

    def test_all_good_report_is_not_partial(self):
        report = CampaignSupervisor().run([CampaignTask("t", double, (1,))])
        assert "PARTIAL" not in report.table().render()

