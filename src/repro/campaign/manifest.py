"""JSON run manifest: the campaign's always-valid on-disk copy.

The manifest is to a campaign what the translation table's reserved
slot is to the N-1 algorithm: a copy that is valid at every instant,
so any crash — of a worker *or* of the supervisor itself — leaves
enough state on disk to continue. Writes go through a temp file and an
atomic rename (the same discipline as
:mod:`repro.resilience.checkpoint`), so readers never observe a torn
manifest.

One :class:`TaskRecord` per task records status, attempts, wall-clock
duration, the last error, and — when the task's return value is
JSON-serialisable — the result itself, which is how a resumed campaign
reprints completed work without recomputing it.

On resume, :meth:`CampaignSupervisor.run
<repro.campaign.supervisor.CampaignSupervisor.run>` skips the tasks
this book marks ``completed`` and runs every other one: ``running``
tasks were in flight when the supervisor died, ``failed`` and unknown
tasks run again.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any

from ..errors import CampaignError

MANIFEST_MAGIC = "repro-campaign-manifest"
MANIFEST_VERSION = 1

#: task lifecycle states recorded in the manifest
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

_STATUSES = (PENDING, RUNNING, COMPLETED, FAILED)


@dataclasses.dataclass
class TaskRecord:
    """One task's durable state."""

    task_id: str
    status: str = PENDING
    attempts: int = 0
    duration_s: float = 0.0
    error: str | None = None
    result: Any = None          # JSON-serialisable result payload, if any
    has_result: bool = False    # distinguishes "result is None" from "no result"

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "TaskRecord":
        try:
            record = cls(**data)
        except TypeError as exc:
            raise CampaignError(f"malformed task record {data!r}: {exc}") from exc
        if record.status not in _STATUSES:
            raise CampaignError(
                f"task {record.task_id!r} has unknown status {record.status!r}"
            )
        return record


class CampaignManifest:
    """Durable per-task status book, saved atomically after every change."""

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = None if path is None else os.fspath(path)
        self.tasks: dict[str, TaskRecord] = {}

    # -- persistence ----------------------------------------------------

    @classmethod
    def open(cls, path: str | os.PathLike) -> "CampaignManifest":
        """Load the manifest at ``path``, or start a fresh one."""
        manifest = cls(path)
        if os.path.exists(manifest.path):
            manifest._load()
        return manifest

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(
                f"cannot read campaign manifest {self.path}: {exc}"
            ) from exc
        if not isinstance(data, dict) or data.get("magic") != MANIFEST_MAGIC:
            raise CampaignError(f"{self.path}: not a campaign manifest")
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise CampaignError(
                f"{self.path}: unsupported manifest version {version!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        self.tasks = {
            task_id: TaskRecord.from_json(record)
            for task_id, record in data.get("tasks", {}).items()
        }

    def save(self) -> None:
        """Atomically persist (no-op for an in-memory manifest)."""
        if self.path is None:
            return
        payload = json.dumps(
            {
                "magic": MANIFEST_MAGIC,
                "version": MANIFEST_VERSION,
                "tasks": {tid: rec.to_json() for tid, rec in self.tasks.items()},
            },
            indent=2,
            sort_keys=True,
        )
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)

    # -- task bookkeeping -----------------------------------------------

    def record(self, task_id: str) -> TaskRecord:
        if task_id not in self.tasks:
            self.tasks[task_id] = TaskRecord(task_id)
        return self.tasks[task_id]

    def mark_running(self, task_id: str) -> None:
        record = self.record(task_id)
        record.status = RUNNING
        record.attempts += 1
        self.save()

    def mark_completed(self, task_id: str, duration_s: float,
                       result: Any = None) -> None:
        record = self.record(task_id)
        record.status = COMPLETED
        record.duration_s = duration_s
        record.error = None
        record.result, record.has_result = self._jsonable(result)
        self.save()

    def mark_failed(self, task_id: str, error: str, duration_s: float) -> None:
        record = self.record(task_id)
        record.status = FAILED
        record.duration_s = duration_s
        record.error = error
        self.save()

    @staticmethod
    def _jsonable(result: Any) -> tuple[Any, bool]:
        """(payload, storable) — results that don't round-trip are dropped."""
        try:
            json.dumps(result)
        except (TypeError, ValueError):
            return None, False
        return result, True
