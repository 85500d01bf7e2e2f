"""Build, cache and load the compiled kernel (``fifo_kernel.c``).

The one C source holds the simulator's two compiled loops:
:func:`fifo_service`, the DRAM fast model's FIFO pass, and
:func:`shadow_pass`, the data shadow's pass, the only code that applies
engine ops and accesses to memory contents
(:mod:`repro.datamodel.shadow`, which the protocol checker replays
through too); both come from one library. The first
import compiles the shipped C source with ``$CC``, else the
compiler Python was built with (``sysconfig``'s ``CC``), into
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``). The file name
is a sha256 of the source, flags and platform, so later imports load it
without a compiler. A build writes a private temporary file and
publishes it with an atomic :func:`os.replace`, so concurrent builds are
safe. A failed build raises :class:`~repro.errors.KernelBuildError`;
there is no fallback. The library handle is module state, so a pickled
simulator (a checkpoint) never holds it.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from ..errors import KernelBuildError, SimulationError

SOURCE = Path(__file__).with_name("fifo_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC")


def cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "repro"


def compiler() -> list[str]:
    return shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")


def library_path(directory: Path) -> Path:
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    digest.update(sysconfig.get_platform().encode())
    return directory / f"fifo_kernel-{digest.hexdigest()[:16]}.so"


def build(directory: Path, cc: list[str]) -> Path:
    """The cached kernel in ``directory``, compiled with ``cc`` if missing."""
    target = library_path(directory)
    if target.exists():
        return target
    try:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
        os.close(fd)
    except OSError as exc:
        raise KernelBuildError(f"cannot write the kernel cache {directory}: {exc}") from exc
    command = [*cc, *FLAGS, "-o", tmp, str(SOURCE)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        os.unlink(tmp)
        raise KernelBuildError(
            f"cannot run the C compiler {cc[0]!r}; set CC to a working one: {exc}",
            stderr=str(exc),
        ) from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        raise KernelBuildError(
            f"{shlex.join(command)} failed:\n{proc.stderr}", stderr=proc.stderr
        )
    os.replace(tmp, target)
    return target


def load(path: Path) -> ctypes.CDLL:
    """Load a built kernel and declare its functions' signatures."""
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as exc:
        raise KernelBuildError(f"cannot load the built kernel {path}: {exc}") from exc
    i64, ptr = ctypes.c_int64, ctypes.c_void_p
    lib.fifo_service.argtypes = (i64, ptr, ptr, ptr, i64, ptr, i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr)
    lib.fifo_service.restype = ctypes.c_int
    lib.shadow_pass.argtypes = (i64, *[ptr] * 5, i64, ptr, ptr, *[i64] * 4, *[ptr] * 9)
    lib.shadow_pass.restype = i64
    return lib


_lib = load(build(cache_dir(), compiler()))

#: why ``fifo_service`` stopped, by its nonzero status
_STATUS = {
    1: "a departure or capped backlog passes int64",
    2: "seg_starts must be non-decreasing and within the call",
    3: "an address decodes to no DRAM queue",
}


def fifo_service(  # repro-domain: arrivals=useful_cycles, ready=useful_cycles
    queues, rows, arrivals, seg_starts, open_row, ready, hit_cycles, miss_cycles, cap
):
    """One FIFO pass (``fifo_kernel.c``) over per-access queue, row and arrival.

    Returns the latencies in input order, the row-hit count and the
    per-queue ``(open_row, ready)`` after the pass, as new arrays: a
    rejected call raises :class:`SimulationError` and changes nothing.
    """
    queues, rows, arrivals, seg_starts = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (queues, rows, arrivals, seg_starts)
    )
    open_row, ready = np.array(open_row, dtype=np.int64), np.array(ready, dtype=np.int64)
    n = arrivals.size
    if queues.size != n or rows.size != n or ready.size != open_row.size:
        raise SimulationError("kernel inputs must align")
    latency, scratch = np.empty(n, dtype=np.int64), np.zeros(4 * ready.size, dtype=np.int64)
    hits = ctypes.c_int64(0)
    status = _lib.fifo_service(
        n, queues.ctypes.data, rows.ctypes.data, arrivals.ctypes.data,
        seg_starts.size, seg_starts.ctypes.data,
        ready.size, open_row.ctypes.data, ready.ctypes.data,
        hit_cycles, miss_cycles, cap, scratch.ctypes.data, latency.ctypes.data,
        ctypes.byref(hits),
    )
    if status:
        raise SimulationError(f"DRAM service rejected: {_STATUS[status]}")
    return latency, hits.value, open_row, ready


def shadow_pass(pages, subblocks, on, machine, writes, ops, landed, links, state):
    """One shadow check (``fifo_kernel.c``) over a chunk of routed accesses.

    ``ops`` holds one ``(before, kind, src, dst, n_landed)`` row per
    engine op (kind 0 copy, 1 link, 2 close), applied just before access
    ``before``, or after the last one when ``before`` is the access
    count: a call with no access applies its ops alone. ``landed`` holds
    the copies' sub-blocks back to back, and ``links`` the live
    ``(src, dst)`` location pairs. ``state`` is the shadow's ``(n_slots, dead,
    cell_page, cell_gen, held, generation)``; its arrays are updated in
    place. Returns the violations as ``(access, found page, found gen,
    expected gen)`` rows, ``(reads, writes)`` and the links after the pass.
    """
    pages, subblocks, machine, ops, landed = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (pages, subblocks, machine, ops, landed)
    )
    on, writes = (np.ascontiguousarray(a, dtype=bool) for a in (on, writes))
    n_slots, dead, cell_page, cell_gen, held, generation = state
    n, n_sb = pages.size, generation.size // dead.size
    if not subblocks.size == on.size == machine.size == writes.size == n:
        raise SimulationError("shadow inputs must align")
    # a spare row per op, for the links it may open
    pairs = np.array([*links, *[(0, 0)] * len(ops)], dtype=np.int64)
    n_links = ctypes.c_int64(len(links))
    bad, counts = np.empty((n, 4), dtype=np.int64), np.zeros(2, dtype=np.int64)
    n_bad = _lib.shadow_pass(
        n, pages.ctypes.data, subblocks.ctypes.data, on.ctypes.data,
        machine.ctypes.data, writes.ctypes.data, len(ops), ops.ctypes.data,
        landed.ctypes.data, dead.size, n_slots, held.size, n_sb, dead.ctypes.data,
        cell_page.ctypes.data, cell_gen.ctypes.data, held.ctypes.data,
        generation.ctypes.data, pairs.ctypes.data, ctypes.byref(n_links),
        counts.ctypes.data, bad.ctypes.data,
    )
    if n_bad < 0:
        raise SimulationError("shadow check rejected: a page, sub-block or location is out of range")
    return bad[:n_bad], counts.tolist(), list(map(tuple, pairs[: n_links.value].tolist()))
