"""Versioned checkpoint/restore of a whole simulation campaign.

A checkpoint captures everything a chunked-trace run needs to continue
bit-identically: the system configuration, the simulator's complete
mutable state (translation table, epoch monitor, in-flight migration
timelines, DRAM device queues, fault plan) and the partially
accumulated :class:`~repro.core.simulator.SimulationResult` — plus a
caller-supplied ``extra`` dict (e.g. how many trace chunks were
consumed).

File format::

    8 bytes   magic  b"RPCKPT01"
    4 bytes   little-endian format version
    32 bytes  SHA-256 of the payload
    payload   pickled state bundle

The digest turns silent bit rot or truncation into a clean
:class:`~repro.errors.CheckpointError` instead of an unpickling crash
or — worse — a subtly wrong resume. Writes go through a temp file and
an atomic rename so a crash mid-checkpoint never destroys the previous
good checkpoint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import struct
from typing import Any

from ..errors import CheckpointError

CHECKPOINT_MAGIC = b"RPCKPT01"
#: 3: the migration monitor owns each epoch's last-touched sub-blocks
#: (version 2 kept them on the engine). Older files are refused: version
#: 2's engine state no longer loads, and version 1 predates RAS, tenancy
#: and data-safe abort recovery.
CHECKPOINT_VERSION = 3
_PREFIX = struct.Struct("<8sI32s")


@dataclasses.dataclass
class CheckpointBundle:
    """What :func:`load_checkpoint` hands back."""

    config: Any                 # SystemConfig
    migrate: bool
    detailed_dram: bool
    simulator_state: dict
    result: Any                 # SimulationResult
    extra: dict


def save_checkpoint(path: str | os.PathLike, simulator, result,
                    extra: dict | None = None) -> None:
    """Snapshot a simulator + partial result to ``path`` (atomically)."""
    payload = pickle.dumps(
        {
            "version": CHECKPOINT_VERSION,
            "config": simulator.config,
            "migrate": simulator.migrate,
            "detailed_dram": simulator.detailed_dram,
            "simulator_state": simulator.state_dict(),
            "result": result,
            "extra": dict(extra or {}),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    digest = hashlib.sha256(payload).digest()
    path = os.fspath(path)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_PREFIX.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, digest))
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> CheckpointBundle:
    """Read and verify a checkpoint file; raises :class:`CheckpointError`
    on bad magic, unknown version, or payload corruption."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            prefix = fh.read(_PREFIX.size)
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(prefix) != _PREFIX.size:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    magic, version, digest = _PREFIX.unpack(prefix)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(
            f"{path}: payload digest mismatch — the checkpoint is corrupt "
            f"or was truncated ({len(payload)} payload bytes)"
        )
    state = pickle.loads(payload)
    return CheckpointBundle(
        config=state["config"],
        migrate=state["migrate"],
        detailed_dram=state["detailed_dram"],
        simulator_state=state["simulator_state"],
        result=state["result"],
        extra=state["extra"],
    )


def restore_simulator(bundle: CheckpointBundle):
    """Build a fresh simulator from a bundle and load its state."""
    from ..core.simulator import EpochSimulator  # local: avoid import cycle

    simulator = EpochSimulator(
        bundle.config, migrate=bundle.migrate,
        detailed_dram=bundle.detailed_dram,
    )
    simulator.load_state_dict(bundle.simulator_state)
    return simulator


def run_resumable(
    config,
    trace_path: str | os.PathLike,
    checkpoint_path: str | os.PathLike,
    *,
    chunk_records: int = 1 << 20,
    migrate: bool = True,
    salvage: bool = False,
):
    """Run (or resume) a chunked-trace campaign with checkpoint-per-chunk.

    If ``checkpoint_path`` exists, the campaign resumes after the last
    completed chunk; otherwise it starts fresh. Either way the
    simulator state is checkpointed after every chunk, so a killed
    process loses at most one chunk of work. For the resumed result to
    be field-for-field identical to an uninterrupted run, use a
    ``chunk_records`` that is a multiple of the configured
    ``swap_interval`` (epoch boundaries then align across chunkings).

    Returns the completed :class:`~repro.core.simulator.SimulationResult`.
    """
    from ..core.simulator import EpochSimulator, SimulationResult
    from ..trace.io import TraceReader

    checkpoint_path = os.fspath(checkpoint_path)
    if os.path.exists(checkpoint_path):
        bundle = load_checkpoint(checkpoint_path)
        if bundle.extra.get("chunk_records") != chunk_records:
            raise CheckpointError(
                f"checkpoint was taken with chunk_records="
                f"{bundle.extra.get('chunk_records')}, cannot resume with "
                f"{chunk_records}"
            )
        simulator = restore_simulator(bundle)
        result = bundle.result
        chunks_done = bundle.extra["chunks_done"]
    else:
        simulator = EpochSimulator(config, migrate=migrate)
        result = SimulationResult()
        chunks_done = 0

    reader = TraceReader(trace_path, chunk_records=chunk_records,
                         salvage=salvage)
    for index, chunk in enumerate(reader):
        if index < chunks_done:
            continue                      # already folded into the result
        simulator.run_into(chunk, result)
        save_checkpoint(
            checkpoint_path, simulator, result,
            extra={"chunks_done": index + 1, "chunk_records": chunk_records},
        )
    return result
