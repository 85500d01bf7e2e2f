"""On-chip memory controller model.

:class:`~repro.memctrl.heterogeneous.HeterogeneousController` is Fig 3's
heterogeneity-aware controller: the address-translation stage moved
*ahead* of transaction scheduling so each access routes to the
on-package or off-package region first, the two regions schedule
independently, and a migration controller rewrites the physical->machine
mapping at run time. Fig 2's conventional controller (one scheduling
stage, one region) is the single-region baselines of
:func:`repro.core.hetero_memory.baseline_latency`; the region decode and
region-local addresses live on :class:`repro.address.AddressMap`.
"""

from .heterogeneous import HeterogeneousController

__all__ = ["HeterogeneousController"]
