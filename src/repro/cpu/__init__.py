"""CPU performance model — the Simics-style comparison of Section II.

A blocking-core model: total cycles = compute cycles + memory-stall
cycles, with stalls priced by the cache hierarchy + one of four memory
organisations (Fig 5): baseline (all off-package), a 1 GB DRAM L4 cache,
static on-package mapping, or the all-on-package ideal.
"""

from .amat import MemoryOrganization, amat_for_organization
from .system import IpcModel, IpcResult

__all__ = [
    "MemoryOrganization",
    "amat_for_organization",
    "IpcModel",
    "IpcResult",
]
