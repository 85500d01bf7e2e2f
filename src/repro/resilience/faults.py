"""Deterministic, seeded fault injection for resilience campaigns.

A :class:`FaultPlan` is a reproducible schedule of faults keyed by epoch
index. The epoch simulator consults it at every epoch boundary and
perturbs the live system accordingly:

* ``ABORT_SWAP`` — the next scheduled migration aborts at a chosen copy
  step; the engine rolls the translation table back and surfaces a
  :class:`~repro.errors.MigrationError` (the P-bit machinery's promise —
  a torn swap never leaves an unresolvable page — is exactly what the
  rollback exercises).
* ``STUCK_P_BIT`` / ``STUCK_F_BIT`` / ``BITMAP_CORRUPTION`` — flip raw
  table state behind the API, the way an SEU in the on-chip SRAM table
  would; the periodic audit must detect and repair it.
* ``DRAM_TRANSIENT`` — transient read errors in the DRAM arrays, run
  through an ECC-style detect/correct/retry model (:class:`EccModel`).

Everything is derived from the plan's seed (per-epoch RNG streams), so
a campaign scenario replays bit-identically — including across a
checkpoint/restore boundary, because the plan itself is part of the
simulator's checkpointed state.

Trace-file faults (truncation, corruption) are not applied through the
plan — they target files at rest; see ``truncate_trace_file`` /
``corrupt_trace_file`` below and the salvage path in
:class:`~repro.trace.io.TraceReader`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import FaultInjectionError


class FaultKind(str, Enum):
    """The injectable fault categories."""

    ABORT_SWAP = "abort-swap"
    STUCK_P_BIT = "stuck-p-bit"
    STUCK_F_BIT = "stuck-f-bit"
    BITMAP_CORRUPTION = "bitmap-corruption"
    DRAM_TRANSIENT = "dram-transient"
    #: a correctable-error burst on an on-package frame: the frame's CE
    #: leaky bucket jumps straight past its retirement threshold (no-op
    #: unless the run has ``RASConfig(enabled=True)``)
    CE_BURST = "ce-burst"
    #: a latent correctable error parked in an idle frame — only the
    #: patrol scrubber's next pass over that frame surfaces it into CE
    #: telemetry (no-op without RAS)
    SCRUB_LATENT = "scrub-latent"
    #: an aggressive row-activation (rowhammer) burst: the targeted
    #: row's activation bucket jumps straight past the disturbance
    #: threshold, so its physical neighbours take bit flips unless the
    #: mitigation ladder intervenes (no-op unless the run has
    #: ``DisturbConfig(enabled=True)``)
    ROW_DISTURB = "row-disturb"


#: kinds a default :meth:`FaultPlan.random` draws from. Deliberately the
#: original five: the RAS kinds are no-ops unless the simulator runs
#: with ``RASConfig(enabled=True)`` (and ``ROW_DISTURB`` without
#: ``DisturbConfig(enabled=True)``), and extending the default tuple
#: would shift every existing seeded campaign's draws. RAS/disturbance
#: campaigns opt in via ``FaultPlan.random(..., kinds=(...,))`` or
#: explicit events.
CORE_FAULT_KINDS = (
    FaultKind.ABORT_SWAP,
    FaultKind.STUCK_P_BIT,
    FaultKind.STUCK_F_BIT,
    FaultKind.BITMAP_CORRUPTION,
    FaultKind.DRAM_TRANSIENT,
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fires at the start of epoch ``epoch``.

    ``param`` is kind-specific: the copy step index for ``ABORT_SWAP``,
    the slot index for the bit flips, the error count for
    ``DRAM_TRANSIENT`` (0 picks a seeded default), the target frame
    index for ``CE_BURST`` / ``SCRUB_LATENT`` (wrapped onto a usable
    frame by the RAS controller), and the aggressor-row selector for
    ``ROW_DISTURB`` (wrapped onto one of the epoch's active rows by the
    disturbance controller).

    ``subblocks`` refines ``ABORT_SWAP`` only: when the targeted copy
    step is a Live Migration fill, that many sub-blocks land before the
    abort fires (a micro-boundary abort); 0 aborts at the step boundary.
    """

    epoch: int
    kind: FaultKind
    param: int = 0
    subblocks: int = 0


class FaultPlan:
    """A seeded, replayable schedule of :class:`FaultEvent`s."""

    def __init__(self, events: tuple[FaultEvent, ...] | list[FaultEvent] = (),
                 *, seed: int = 0):
        self.seed = int(seed)
        self.events = tuple(sorted(events, key=lambda e: e.epoch))
        self._by_epoch: dict[int, list[FaultEvent]] = {}
        for ev in self.events:
            self._by_epoch.setdefault(ev.epoch, []).append(ev)

    @classmethod
    def random(
        cls,
        seed: int,
        n_epochs: int,
        n_slots: int,
        *,
        rate: float = 0.15,
        kinds: tuple[FaultKind, ...] | None = None,
    ) -> "FaultPlan":
        """Draw a random plan: each epoch faults with probability ``rate``."""
        if not 0 <= rate <= 1:
            raise FaultInjectionError(f"fault rate {rate} outside [0, 1]")
        rng = np.random.default_rng(seed)
        kinds = kinds or CORE_FAULT_KINDS
        events = []
        for epoch in range(n_epochs):
            if rng.random() >= rate:
                continue
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind is FaultKind.ABORT_SWAP:
                param = int(rng.integers(0, 12))          # copy step index
            elif kind is FaultKind.DRAM_TRANSIENT:
                param = int(rng.integers(1, 4))           # error count
            else:
                param = int(rng.integers(0, max(1, n_slots)))  # slot
            events.append(FaultEvent(epoch=epoch, kind=kind, param=param))
        return cls(events, seed=seed)

    def events_for_epoch(self, epoch: int) -> list[FaultEvent]:
        return self._by_epoch.get(epoch, [])

    def epoch_rng(self, epoch: int) -> np.random.Generator:
        """Fresh per-epoch RNG stream, independent of consumption order
        (checkpoint/resume must not shift later epochs' draws)."""
        return np.random.default_rng((self.seed, epoch))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, n_events={len(self.events)})"


@dataclass(frozen=True)
class EccOutcome:
    """Aggregate result of pushing one epoch's transient errors through ECC."""

    corrected: int
    retried: int
    uncorrectable: int
    extra_cycles: int


class EccModel:
    """Detect/correct/retry model for transient DRAM read errors.

    Single-bit flips are corrected inline by SECDED at a fixed cycle
    cost. Detected-but-uncorrectable errors trigger controller re-reads
    (transient errors usually vanish on retry); an error that survives
    :attr:`MAX_RETRIES` re-reads is declared uncorrectable and surfaced to
    the caller as a degradation event.
    """

    #: probability a transient error is single-bit (inline-correctable)
    P_CORRECTABLE = 0.85
    #: probability one re-read of a multi-bit transient comes back clean
    P_RETRY_OK = 0.7
    #: cycles an inline single-bit correction adds to the faulted access
    CORRECTION_CYCLES = 20
    #: cycles one detect-and-retry round trip costs
    RETRY_CYCLES = 200
    #: re-reads before a transient error is declared uncorrectable
    MAX_RETRIES = 2

    def run(self, n_errors: int, rng: np.random.Generator) -> EccOutcome:
        corrected = retried = uncorrectable = 0
        extra = 0
        for _ in range(n_errors):
            if rng.random() < self.P_CORRECTABLE:
                corrected += 1
                extra += self.CORRECTION_CYCLES
                continue
            recovered = False
            for _attempt in range(self.MAX_RETRIES):
                extra += self.RETRY_CYCLES
                if rng.random() < self.P_RETRY_OK:
                    recovered = True
                    break
            if recovered:
                retried += 1
            else:
                uncorrectable += 1
        return EccOutcome(corrected, retried, uncorrectable, extra)


# ----------------------------------------------------------------------
# file-at-rest faults for trace-robustness campaigns
# ----------------------------------------------------------------------
def truncate_trace_file(path: str | os.PathLike, drop_bytes: int) -> int:
    """Chop ``drop_bytes`` off the end of a trace file; returns new size."""
    if drop_bytes < 0:
        raise FaultInjectionError("drop_bytes must be >= 0")
    size = os.path.getsize(path)
    new_size = max(0, size - drop_bytes)
    with open(path, "r+b") as fh:
        fh.truncate(new_size)
    return new_size


def corrupt_trace_file(
    path: str | os.PathLike, offset: int, data: bytes = b"\xff"
) -> None:
    """Overwrite ``len(data)`` bytes at ``offset`` (header or body)."""
    size = os.path.getsize(path)
    if not 0 <= offset < size:
        raise FaultInjectionError(f"offset {offset} outside file of {size} bytes")
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)
