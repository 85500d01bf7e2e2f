"""Fault-tolerant process-pool supervisor for simulation campaigns.

A campaign is a list of :class:`CampaignTask`\\ s (experiment x workload
x config points). The :class:`CampaignSupervisor` fans them out to
worker processes and keeps the campaign alive through any single-point
failure, the way the paper's N-1 algorithm survives a mid-swap crash:
there is always a valid copy of campaign state (the
:class:`~repro.campaign.manifest.CampaignManifest`), and no worker
failure can tear it.

Failure containment, per task:

* a worker that **crashes** (``os._exit``, SIGKILL, OOM) surfaces as a
  :class:`~repro.errors.TaskCrashError` — the campaign continues;
* a worker that **hangs** — busy, wedged in native code or stopped by
  SIGSTOP — is killed when it exceeds its wall-clock ``task_timeout``:
  :class:`~repro.errors.TaskTimeoutError`;
* a worker that **raises** ships the exception back over its pipe.

Each failure is classified by the :class:`~repro.campaign.retry.RetryPolicy`
and, if a crash or a timeout, retried with exponential backoff; a task
that exhausts its attempts is marked ``failed`` in the manifest and the
campaign completes with an explicit partial-results report
(:meth:`CampaignReport.table`) instead of halting.

With ``jobs=1`` and no timeout the supervisor runs each task once,
inline in the parent process, in submission order — byte-identical to a
plain serial loop — so the fault-tolerant path is free until you opt
into parallelism. Only worker processes can crash or time out, so only
they retry.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import multiprocessing.connection
import pickle
from typing import Any, Callable, Sequence

from ..errors import CampaignError, TaskCrashError, TaskTimeoutError
from .manifest import COMPLETED, FAILED, CampaignManifest
from .retry import Clock, RetryPolicy

#: report-only status for tasks already completed in the manifest
SKIPPED = "skipped"

_KILL_GRACE_S = 2.0      # SIGTERM -> SIGKILL escalation window
_POLL_INTERVAL_S = 0.05  # scheduler wake-up granularity


@dataclasses.dataclass(frozen=True)
class CampaignTask:
    """One unit of campaign work.

    ``fn(*args, **kwargs)`` runs in a worker process (or inline for a
    serial campaign), so it must be a module-level callable with
    picklable arguments and result.
    """

    task_id: str
    fn: Callable
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class TaskOutcome:
    """How one task ended up."""

    task_id: str
    status: str                 # completed | failed | skipped
    result: Any = None
    error: str | None = None
    attempts: int = 0
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in (COMPLETED, SKIPPED)


@dataclasses.dataclass
class CampaignReport:
    """The campaign's final (possibly partial) results, in task order."""

    outcomes: list[TaskOutcome]

    def __post_init__(self):
        self.by_id = {o.task_id: o for o in self.outcomes}

    @property
    def completed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == COMPLETED]

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == FAILED]

    @property
    def skipped(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if o.status == SKIPPED]

    @property
    def ok(self) -> bool:
        return not self.failed

    def result(self, task_id: str) -> Any:
        return self.by_id[task_id].result

    def table(self):
        """Partial-results summary as a :class:`repro.stats.report.Table`."""
        from ..stats.report import campaign_table

        return campaign_table(self)


class _Running:
    """Supervisor-side state of one in-flight worker."""

    def __init__(self, task, attempt, process, conn, started, first_started):
        self.task = task
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.started = started
        self.first_started = first_started   # across attempts, for duration
        self.message = None                  # ("ok", result) | ("err", exc)


def _worker_entry(conn, fn, args, kwargs):
    """Worker main: one task, its result over the pipe."""
    try:
        result = fn(*args, **kwargs)
        message = ("ok", result)
    except BaseException as exc:  # noqa: BLE001  # repro-lint: disable=broad-except - crash-isolation boundary, ships to the supervisor
        message = ("err", exc)
    try:
        conn.send(message)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        conn.send(("err", CampaignError(
            f"task result of type {type(message[1]).__name__} "
            f"cannot be sent back to the supervisor: {exc}"
        )))


class CampaignSupervisor:
    """Run a campaign of tasks with crash isolation, timeouts and retry.

    Parameters
    ----------
    jobs:
        Worker processes to run concurrently. ``1`` (the default) with
        no ``task_timeout`` executes tasks inline in the parent,
        preserving serial byte-identical behaviour.
    task_timeout:
        Per-attempt wall-clock budget in seconds; ``None`` disables. It
        is the only hang detection: a silent worker is killed by it.
    retry:
        A :class:`RetryPolicy` for worker crashes and timeouts; defaults
        to ``RetryPolicy()``. Inline tasks run once.
    manifest_path:
        Where to persist the run manifest. A re-invocation with the
        same path skips tasks the manifest already marks completed and
        re-queues ones that were in flight.

    Workers start with the platform's default :mod:`multiprocessing`
    method (``fork`` on Linux).
    """

    def __init__(
        self,
        jobs: int = 1,
        task_timeout: float | None = None,
        retry: RetryPolicy | None = None,
        manifest_path=None,
    ):
        if jobs < 1:
            raise CampaignError(f"jobs must be >= 1, got {jobs}")
        if task_timeout is not None and task_timeout <= 0:
            raise CampaignError(f"task_timeout must be positive, got {task_timeout}")
        self.jobs = jobs
        self.task_timeout = task_timeout
        self.retry = retry or RetryPolicy()
        self.manifest_path = manifest_path
        self.clock = Clock()

    # ------------------------------------------------------------------

    def run(self, tasks: Sequence[CampaignTask]) -> CampaignReport:
        """Execute the campaign; never raises for individual task failures."""
        ids = [t.task_id for t in tasks]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise CampaignError(f"duplicate task ids: {dupes}")

        manifest = (
            CampaignManifest.open(self.manifest_path)
            if self.manifest_path is not None
            else CampaignManifest()
        )
        outcomes: dict[str, TaskOutcome] = {}
        todo: list[CampaignTask] = []
        for task in tasks:
            record = manifest.tasks.get(task.task_id)
            if record is not None and record.status == COMPLETED:
                outcomes[task.task_id] = TaskOutcome(
                    task.task_id, SKIPPED,
                    result=record.result if record.has_result else None,
                    attempts=record.attempts, duration_s=record.duration_s,
                )
            else:
                todo.append(task)

        if self.jobs == 1 and self.task_timeout is None:
            done = self._run_inline(todo, manifest)
        else:
            done = self._run_processes(todo, manifest)
        outcomes.update(done)
        return CampaignReport([outcomes[i] for i in ids])

    # -- inline (serial, byte-identical) --------------------------------

    def _run_inline(self, tasks, manifest) -> dict[str, TaskOutcome]:
        """Run each task once, in order, in this process.

        Nothing here can crash a worker or blow a timeout, the two
        failures a retry can change, so no task is retried.
        """
        outcomes = {}
        for task in tasks:
            started = self.clock.monotonic()
            manifest.mark_running(task.task_id)
            try:
                result = task.fn(*task.args, **task.kwargs)
            except Exception as exc:  # noqa: BLE001  # repro-lint: disable=broad-except - recorded in the manifest, not fatal
                duration = self.clock.monotonic() - started
                error = f"{type(exc).__name__}: {exc}"
                manifest.mark_failed(task.task_id, error, duration)
                outcomes[task.task_id] = TaskOutcome(
                    task.task_id, FAILED, error=error,
                    attempts=1, duration_s=duration,
                )
            else:
                duration = self.clock.monotonic() - started
                manifest.mark_completed(task.task_id, duration, result)
                outcomes[task.task_id] = TaskOutcome(
                    task.task_id, COMPLETED, result=result,
                    attempts=1, duration_s=duration,
                )
        return outcomes

    # -- process pool ----------------------------------------------------

    def _run_processes(self, tasks, manifest) -> dict[str, TaskOutcome]:
        outcomes: dict[str, TaskOutcome] = {}
        # (task, attempt, ready_at, first_started | None)
        queue: list[tuple[CampaignTask, int, float, float | None]] = [
            (task, 1, 0.0, None) for task in tasks
        ]
        running: dict[str, _Running] = {}
        try:
            while queue or running:
                self._launch_ready(queue, running, manifest)
                self._poll(running)
                for task_id in list(running):
                    slot = running[task_id]
                    resolution = self._resolve(slot)
                    if resolution is None:
                        continue
                    del running[task_id]
                    kind, payload = resolution
                    if kind == "ok":
                        duration = self.clock.monotonic() - slot.first_started
                        manifest.mark_completed(task_id, duration, payload)
                        outcomes[task_id] = TaskOutcome(
                            task_id, COMPLETED, result=payload,
                            attempts=slot.attempt, duration_s=duration,
                        )
                        continue
                    exc = payload
                    if (self.retry.is_retryable(exc)
                            and slot.attempt < self.retry.max_attempts):
                        delay = self.retry.backoff(slot.attempt)
                        queue.append((
                            slot.task, slot.attempt + 1,
                            self.clock.monotonic() + delay, slot.first_started,
                        ))
                    else:
                        duration = self.clock.monotonic() - slot.first_started
                        error = f"{type(exc).__name__}: {exc}"
                        manifest.mark_failed(task_id, error, duration)
                        outcomes[task_id] = TaskOutcome(
                            task_id, FAILED, error=error,
                            attempts=slot.attempt, duration_s=duration,
                        )
                if not running and queue:
                    # everything is backing off; sleep to the next retry
                    wake = min(entry[2] for entry in queue)
                    self.clock.sleep(max(0.0, wake - self.clock.monotonic()))
        finally:
            for slot in running.values():
                self._kill(slot)
        return outcomes

    def _launch_ready(self, queue, running, manifest) -> None:
        now = self.clock.monotonic()
        index = 0
        while len(running) < self.jobs and index < len(queue):
            task, attempt, ready_at, first_started = queue[index]
            if ready_at > now:
                index += 1
                continue
            queue.pop(index)
            manifest.mark_running(task.task_id)
            parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_worker_entry,
                args=(child_conn, task.fn, task.args, task.kwargs),
                daemon=True,
            )
            process.start()
            child_conn.close()
            started = self.clock.monotonic()
            running[task.task_id] = _Running(
                task, attempt, process, parent_conn, started,
                first_started if first_started is not None else started,
            )

    def _poll(self, running) -> None:
        """Wait briefly for worker results."""
        conns = {slot.conn: slot for slot in running.values()
                 if slot.message is None}
        if not conns:
            if running:
                self.clock.sleep(_POLL_INTERVAL_S)
            return
        for conn in multiprocessing.connection.wait(
            list(conns), timeout=_POLL_INTERVAL_S
        ):
            self._receive(conns[conn])

    @staticmethod
    def _receive(slot) -> None:
        """Take the worker's one message, if it has been sent."""
        try:
            if slot.message is None and slot.conn.poll():
                slot.message = slot.conn.recv()
        except (EOFError, OSError):
            pass  # worker died mid-send; the exitcode path handles it

    def _resolve(self, slot) -> tuple[str, Any] | None:
        """Has this worker finished, crashed, or run out of time?"""
        now = self.clock.monotonic()
        if slot.message is not None:
            self._kill(slot)  # reap; the worker is done
            return slot.message
        if self.task_timeout is not None and now - slot.started > self.task_timeout:
            self._kill(slot)
            return ("err", TaskTimeoutError(
                f"task {slot.task.task_id!r} exceeded its "
                f"{self.task_timeout:.1f}s wall-clock budget "
                f"(attempt {slot.attempt})"
            ))
        if not slot.process.is_alive():
            self._receive(slot)  # the result may have raced the exit
            if slot.message is not None:
                self._kill(slot)
                return slot.message
            code = slot.process.exitcode
            self._kill(slot)
            return ("err", TaskCrashError(
                f"worker for task {slot.task.task_id!r} died with exit code "
                f"{code} before reporting a result (attempt {slot.attempt})"
            ))
        return None

    def _kill(self, slot) -> None:
        """Tear a worker down (SIGTERM, then SIGKILL) and close its pipe."""
        process = slot.process
        if process.is_alive():
            process.terminate()
            process.join(_KILL_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        else:
            process.join()
        slot.conn.close()
