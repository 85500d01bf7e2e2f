"""tREFI/tRFC refresh scheduling as a deterministic global time warp.

Every ``interval`` (tREFI) cycles, all banks of a region block for
``window`` (tRFC) cycles while the array refreshes: wall time
``[k*R, k*R + F)`` is dead for every period ``k``. Instead of nudging
*arrivals* out of the window (the old phase-offset model, which let a
request already in service sail straight through a refresh), the warp
maps wall time to *useful* time

    ``u(t) = k*(R - F) + max(0, (t - k*R) - F)``   with ``k = t // R``

runs the queueing recursion entirely on the useful clock — where banks
are never interrupted — and maps departures back with the inverse

    ``wall(u) = k*R + F + rem``  (``rem = u mod (R-F)``; ``k*R`` when
    ``rem == 0``, i.e. completion exactly at a period boundary)

This gives exact preempt/resume semantics: work crossing a window
boundary is suspended for tRFC and resumes, no matter whether the bank
was idle, queued, or mid-burst when the window opened. Because the warp
is a pure function of global time (not of per-call state), the fused
segmented flush stays bit-identical to a per-epoch flush: warping
commutes with segment boundaries.

The same schedule prices refresh-vs-migration-copy contention: a swap
copy touching a refreshing region stalls for every window its transfer
overlaps (:meth:`RefreshSchedule.stretch`).
"""

from __future__ import annotations

import numpy as np

from ..config import DramTiming
from ..errors import ConfigError


class RefreshSchedule:
    """Pure-function time warp for one region's all-bank refresh.

    Stateless: both directions are closed-form in global time, so the
    object needs no checkpoint entry and is shared freely between the
    bank model, the vectorised fast model, and the migration engine.
    """

    __slots__ = ("interval", "window", "useful_per_period")

    def __init__(self, interval: int, window: int):
        if interval <= 0 or window <= 0:
            raise ConfigError("refresh interval and window must be positive")
        if window >= interval:
            raise ConfigError("refresh window must be shorter than its interval")
        self.interval = int(interval)       # tREFI (R)
        self.window = int(window)           # tRFC (F)
        self.useful_per_period = self.interval - self.window

    @classmethod
    def from_timing(cls, timing: DramTiming) -> "RefreshSchedule | None":
        """The region's schedule, or ``None`` when refresh is disabled."""
        if not timing.refresh_interval:
            return None
        return cls(timing.refresh_interval, timing.refresh_cycles)

    @property
    def overhead(self) -> float:
        """Duty-cycle fraction lost to refresh (tRFC / tREFI)."""
        return self.window / self.interval

    # ---- scalar ---------------------------------------------------------

    def useful(self, t: int) -> int:
        """Useful cycles elapsed by wall cycle ``t``."""
        k, pos = divmod(int(t), self.interval)
        return k * self.useful_per_period + max(0, pos - self.window)

    def wall(self, u: int, *, begin: bool = False) -> int:
        """Earliest wall cycle at which ``u`` useful cycles have elapsed.

        ``begin=False`` (completion semantics): work *finishing* exactly
        at a period boundary finishes at ``k*R``, just as the window
        opens. ``begin=True`` (start semantics): work *starting* there
        cannot begin until the window closes at ``k*R + F``.
        """
        k, rem = divmod(int(u), self.useful_per_period)
        if rem == 0 and not begin:
            return k * self.interval
        return k * self.interval + self.window + rem

    def stretch(self, start: int, useful_cycles: int) -> int:
        """Wall duration of ``useful_cycles`` of work starting at wall
        cycle ``start`` — the refresh-stall-inclusive busy window."""
        if useful_cycles <= 0:
            return 0
        return self.wall(self.useful(start) + useful_cycles) - int(start)

    # ---- vectorised -----------------------------------------------------

    def useful_np(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.int64)
        k, pos = np.divmod(t, np.int64(self.interval))
        pos -= np.int64(self.window)
        np.maximum(pos, 0, out=pos)
        k *= np.int64(self.useful_per_period)
        k += pos
        return k

    def wall_np(self, u: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`wall` with completion semantics."""
        u = np.asarray(u, dtype=np.int64)
        k, rem = np.divmod(u, np.int64(self.useful_per_period))
        k *= np.int64(self.interval)
        out = np.where(rem == 0, k, k + np.int64(self.window) + rem)
        return out
