"""DRAM timing substrate.

Two device models service (address, arrival-time) streams and return
per-access latencies:

* :class:`~repro.dram.scheduler.EventDrivenDevice` — FR-FCFS [11] with
  open-page banks; the reference model the tests cross-validate the
  fast one against (Python-level loop, small inputs).
* :class:`~repro.dram.fastmodel.FastDevice` — per-bank FIFO with
  open-page row-hit detection, one compiled pass per call
  (:mod:`repro.dram.kernel`); the workhorse for multi-million-access
  sweeps.

Off-package: 4 channels x 8 banks of DDR3-1333; on-package: a 128-bank
many-bank die with faster I/O (Section II). The fixed latency-path
components of Table II live in :mod:`repro.dram.latency`.
"""

from .timing import DramGeometry
from .bank import Bank
from .scheduler import EventDrivenDevice, FRFCFSScheduler
from .fastmodel import FastDevice
from .latency import LatencyModel

__all__ = [
    "DramGeometry",
    "Bank",
    "FRFCFSScheduler",
    "EventDrivenDevice",
    "FastDevice",
    "LatencyModel",
]
