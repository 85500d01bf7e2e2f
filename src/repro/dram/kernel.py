"""Build, cache and load the compiled kernel (``fifo_kernel.c``).

The one C source holds the simulator's two compiled loops:
:func:`flush_regions`, the DRAM flush (address decode, refresh warp and
the FIFO pass of both regions), the only DRAM service code, and
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
    lib.flush_regions.argtypes = (i64, *[ptr] * 5, i64, ptr, i64, *[ptr] * 5, i64, ptr, ptr)
    lib.flush_regions.restype = ctypes.c_int
    lib.shadow_pass.argtypes = (i64, ptr, i64, ptr, ptr, *[i64] * 4, *[ptr] * 7)
    lib.shadow_pass.restype = i64
    return lib


_lib = load(build(cache_dir(), compiler()))

#: why ``flush_regions`` stopped, by its nonzero status
_STATUS = {
    1: "a departure, latency or capped backlog passes int64",
    2: "seg_starts must begin with 0, be non-decreasing and stay within the call",
    3: "a region-local address is negative or passes int64",
    4: "no memory for the scratch state",
}


def _address(a) -> int | None:
    return None if a is None else a.ctypes.data


def flush_regions(  # repro-domain: arrivals=wall_cycles, return=wall_cycles
    devices, regions, on, pages, offsets, arrivals, seg_starts, extra, add=0
):
    """One pass (``fifo_kernel.c``) over a flush, through one or two devices.

    Access ``i`` goes to ``devices[on[i]]`` (``devices[0]`` when ``on``
    is None), at the region-local address composed from ``pages[i]``
    and ``offsets[i]`` (0 when None) by that device's row of
    ``regions``, an int64 ``(len(devices), 11)`` table of ``(base,
    shift, overhead, n_channels, n_banks, row_shift, hit, miss, cap,
    tREFI, tRFC)``. ``arrivals`` are wall cycles, non-decreasing (not
    checked), and ``seg_starts`` the segment starts, beginning with 0.
    Returns each access's latency plus its region's overhead, ``add``
    and ``extra[i]`` (0 when None). Each device's ``_open_row``,
    ``_ready``, ``row_hits`` and ``row_conflicts`` are updated only
    when the call succeeds; a rejected call raises
    :class:`SimulationError` and changes nothing.
    """
    pages, arrivals, seg_starts = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (pages, arrivals, seg_starts)
    )
    offsets, extra = (
        None if a is None else np.ascontiguousarray(a, dtype=np.int64) for a in (offsets, extra)
    )
    on = None if on is None else np.ascontiguousarray(on, dtype=bool)
    n = arrivals.size
    if any(a is not None and a.shape != arrivals.shape for a in (on, pages, offsets, extra)):
        raise SimulationError("flush inputs must align")
    if regions.dtype != np.int64 or regions.shape != (len(devices), 11) or (on is None) != (len(devices) == 1):
        raise SimulationError("a flush takes one region row per device, and on with two")
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    state = [_address(a) for d in devices for a in (d._open_row, d._ready)]
    counts, latency = np.zeros(2 * len(devices), dtype=np.int64), np.empty(n, dtype=np.int64)
    status = _lib.flush_regions(
        n, _address(on), pages.ctypes.data, _address(offsets), arrivals.ctypes.data,
        _address(extra), seg_starts.size, seg_starts.ctypes.data, len(devices),
        regions.ctypes.data, *state, *[None] * (4 - len(state)), add,
        counts.ctypes.data, latency.ctypes.data,
    )
    if status:
        raise SimulationError(f"DRAM service rejected: {_STATUS[status]}")
    for device, (hits, count) in zip(devices, counts.reshape(-1, 2).tolist()):
        device.row_hits += hits
        device.row_conflicts += count - hits
    return latency


def shadow_pass(accesses, ops, landed, links, state):
    """One shadow check (``fifo_kernel.c``) over a chunk of routed accesses.

    ``accesses`` is a C-contiguous int64 ``(5, n)`` array whose rows
    are the accesses' ``page``, ``subblock``, ``on``, ``machine`` and
    ``write``, in access order. ``ops`` holds one
    ``(before, kind, src, dst, n_landed)`` row per engine op (kind 0
    copy, 1 link, 2 close), applied just before access ``before``, or
    after the last one when ``before`` is the access count: a call with
    no access applies its ops alone. ``landed`` holds the copies'
    sub-blocks back to back, and ``links`` the live ``(src, dst)``
    location pairs. ``state`` is the shadow's ``(n_slots, dead, cells,
    held, generation)``, ``cells`` holding one ``(page, generation)``
    row per cell; its arrays are updated in place. Returns the
    violations as ``(access, found page, found gen, expected gen)``
    rows, ``(reads, writes)`` and the links after the pass.
    """
    ops, landed = (np.ascontiguousarray(a, dtype=np.int64) for a in (ops, landed))
    n_slots, dead, cells, held, generation = state
    n, n_sb = accesses.shape[-1], generation.size // dead.size
    if accesses.dtype != np.int64 or accesses.shape != (5, n) or not accesses.flags.c_contiguous:
        raise SimulationError("shadow accesses must be a C-contiguous int64 (5, n) array")
    # a spare row per op, for the links it may open
    pairs = np.array([*links, *[(0, 0)] * len(ops)], dtype=np.int64)
    io, bad = np.array([len(links), 0, 0], dtype=np.int64), np.empty((n, 4), dtype=np.int64)
    n_bad = _lib.shadow_pass(
        n, accesses.ctypes.data, len(ops), ops.ctypes.data, landed.ctypes.data,
        dead.size, n_slots, held.size, n_sb, dead.ctypes.data, cells.ctypes.data,
        held.ctypes.data, generation.ctypes.data, pairs.ctypes.data, io.ctypes.data,
        bad.ctypes.data,
    )
    if n_bad < 0:
        raise SimulationError("shadow check rejected: a page, sub-block or location is out of range")
    n_links, reads, writes = io.tolist()
    return bad[:n_bad], [reads, writes], list(map(tuple, pairs[:n_links].tolist()))
