"""Chunked binary trace I/O.

File format (little-endian):

* 16-byte header: magic ``b"RPTRACE1"`` + uint64 record count
* raw :data:`~repro.trace.record.TRACE_DTYPE` records

The writer appends chunks and patches the count on close; the reader
streams fixed-size chunks so multi-gigabyte traces never have to fit in
memory at once.

Robustness: :meth:`TraceWriter.close` fsyncs the data before patching
the header and patches it even when the caller's ``with`` block raised,
so a crashed producer leaves a readable file covering every record it
managed to write. :class:`TraceReader` cross-checks the header count
against the file size; ``salvage=True`` recovers the whole trailing
records of a truncated/over-long file instead of raising.
"""

from __future__ import annotations

import io
import os
import struct
from typing import Iterator

import numpy as np

from ..errors import TraceError
from .record import TRACE_DTYPE, TraceChunk

_MAGIC = b"RPTRACE1"
_HEADER = struct.Struct("<8sQ")


class TraceWriter:
    """Append-only trace file writer; use as a context manager."""

    def __init__(self, path: str | os.PathLike):
        self._path = os.fspath(path)
        self._fh: io.BufferedWriter | None = open(self._path, "wb")
        self._count = 0
        self._last_time: int | None = None
        self._fh.write(_HEADER.pack(_MAGIC, 0))

    def write(self, chunk: TraceChunk) -> None:
        if self._fh is None:
            raise TraceError("writer already closed")
        if len(chunk) == 0:
            return
        first = int(chunk.time[0])
        if self._last_time is not None and first < self._last_time:
            raise TraceError(
                f"chunk starts at t={first} before previous end t={self._last_time}"
            )
        self._last_time = int(chunk.time[-1])
        self._fh.write(chunk.records.tobytes())
        self._count += len(chunk)

    def sync(self) -> None:
        """Flush buffered records to stable storage (data only — the
        header still says 0 until :meth:`close`; a reader can recover
        the records with ``salvage=True``)."""
        if self._fh is None:
            raise TraceError("writer already closed")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Patch the record count into the header and close.

        Crash-safe ordering: the data is flushed and fsynced *before*
        the header seek/patch, so the count never claims records that
        are not durably on disk. The close itself is finally-protected —
        even if the fsync or header patch fails, the descriptor is
        released and the writer is unusable afterwards.
        """
        if self._fh is None:
            return
        fh, self._fh = self._fh, None
        try:
            fh.flush()
            os.fsync(fh.fileno())
            fh.seek(0)
            fh.write(_HEADER.pack(_MAGIC, self._count))
            fh.flush()
            os.fsync(fh.fileno())
        finally:
            fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Stream a trace file in chunks of ``chunk_records`` accesses.

    The header's record count is validated against the file size. On
    mismatch the default is a :class:`~repro.errors.TraceError` naming
    the offending byte offsets; with ``salvage=True`` the reader instead
    serves every *whole* record present in the data section (dropping a
    torn trailing partial record) — :attr:`salvaged` tells how the count
    was derived and :attr:`dropped_bytes` how much tail was discarded.
    """

    def __init__(self, path: str | os.PathLike, chunk_records: int = 1 << 20,
                 *, salvage: bool = False):
        if chunk_records <= 0:
            raise TraceError("chunk_records must be positive")
        self._path = os.fspath(path)
        self._chunk_records = chunk_records
        self.salvaged = False
        self.dropped_bytes = 0
        with open(self._path, "rb") as fh:
            header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise TraceError(
                f"{self._path}: truncated header "
                f"({len(header)} of {_HEADER.size} bytes)"
            )
        magic, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceError(f"{self._path}: bad magic {magic!r}")
        self.count = count
        itemsize = TRACE_DTYPE.itemsize
        expected = _HEADER.size + count * itemsize
        actual = os.path.getsize(self._path)
        if actual != expected:
            if not salvage:
                raise TraceError(
                    f"{self._path}: header claims {count} records "
                    f"(= bytes [{_HEADER.size}, {expected})) but the file "
                    f"is {actual} bytes; pass salvage=True to recover the "
                    f"{max(0, actual - _HEADER.size) // itemsize} whole "
                    f"records present"
                )
            data_bytes = max(0, actual - _HEADER.size)
            self.count = data_bytes // itemsize
            self.dropped_bytes = data_bytes - self.count * itemsize
            self.salvaged = True

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[TraceChunk]:
        with open(self._path, "rb") as fh:
            fh.seek(_HEADER.size)
            remaining = self.count
            while remaining > 0:
                n = min(remaining, self._chunk_records)
                raw = fh.read(n * TRACE_DTYPE.itemsize)
                if len(raw) != n * TRACE_DTYPE.itemsize:
                    raise TraceError(
                        f"{self._path}: short read at byte "
                        f"{fh.tell() - len(raw)} (file changed under us?)"
                    )
                # frombuffer views are read-only and pin `raw`; the copy
                # detaches a writable chunk and frees the raw bytes
                records = np.frombuffer(raw, dtype=TRACE_DTYPE).copy()  # repro-lint: disable=hot-path-copy
                yield TraceChunk(records, validate=False)
                remaining -= n

    def read_all(self) -> TraceChunk:
        chunks = list(self)
        if not chunks:
            return TraceChunk(np.empty(0, dtype=TRACE_DTYPE), validate=False)
        return TraceChunk(np.concatenate([c.records for c in chunks]), validate=False)


def write_trace(path: str | os.PathLike, chunk: TraceChunk) -> None:
    """Write a whole trace in one call."""
    with TraceWriter(path) as w:
        w.write(chunk)


def read_trace(path: str | os.PathLike, *, salvage: bool = False) -> TraceChunk:
    """Read a whole trace into memory."""
    return TraceReader(path, salvage=salvage).read_all()
