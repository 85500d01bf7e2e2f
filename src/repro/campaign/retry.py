"""Reusable retry policy: exponential backoff over the failures a retry can change.

A :class:`RetryPolicy` owns two decisions the campaign supervisor must
make identically every run:

* *should this failure be retried?* — only a worker crash
  (:class:`~repro.errors.TaskCrashError`) or a blown wall-clock budget
  (:class:`~repro.errors.TaskTimeoutError`); anything else a task raises
  is a pure function of its inputs and would fail the same way again;
* *how long to wait?* — ``base_delay`` doubled per retry, capped at
  :data:`MAX_DELAY_S`.

Time is injected through a :class:`Clock` so tests never sleep.
"""

from __future__ import annotations

import dataclasses
import time

from ..errors import CampaignError, TaskCrashError, TaskTimeoutError

#: exception types the policy treats as transient
DEFAULT_RETRYABLE: tuple[type[BaseException], ...] = (
    TaskCrashError,
    TaskTimeoutError,
)

BACKOFF_MULTIPLIER = 2.0
MAX_DELAY_S = 30.0


class Clock:
    """Injectable time source; the default wraps the real clock."""

    def monotonic(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class FakeClock(Clock):
    """A clock whose sleeps advance a counter instead of blocking.

    Tests assert on ``.sleeps`` (every delay requested) and ``.now``
    (virtual elapsed time) without ever waiting.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += max(0.0, seconds)


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How (and whether) failed attempts are retried.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    try plus up to two retries, ``max_attempts=1`` disables retry.
    Delay before retry ``k`` (1-based) is::

        min(base_delay * 2**(k-1), 30 s)
    """

    max_attempts: int = 3
    base_delay: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise CampaignError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise CampaignError("backoff delays must be non-negative")

    def is_retryable(self, exc: BaseException) -> bool:
        return isinstance(exc, DEFAULT_RETRYABLE)

    def backoff(self, attempt: int) -> float:
        """Delay in seconds before retry ``attempt`` (1 = first retry)."""
        if attempt < 1:
            return 0.0
        return min(self.base_delay * BACKOFF_MULTIPLIER ** (attempt - 1), MAX_DELAY_S)
