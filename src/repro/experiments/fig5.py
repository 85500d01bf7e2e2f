"""Fig 5: IPC of four on-package memory organisations, ten NPB workloads.

Shape criteria (the paper's Section II argument):

* workloads whose footprint fits on-package: static mapping ~= the
  all-on-package ideal and beats the L4 cache;
* the huge-footprint workloads (DC.B, FT.C): static mapping's gain is
  small — it can lose to the L4 cache (the motivation for migration).
"""

from __future__ import annotations

from ..config import CacheHierarchyConfig, CacheLevelConfig
from ..cpu.amat import MemoryOrganization
from ..cpu.system import IpcModel
from ..stats.report import Table
from ..units import KB, MB
from ..workloads.npb import NPB_FOOTPRINTS_MB
from .common import CPU_SCALE, FAST_ACCESSES, SECTION2_ONPKG, npb_trace


def scaled_caches() -> CacheHierarchyConfig:
    """Table II's hierarchy divided by CPU_SCALE (floors keep sets valid)."""
    def scale(cap: int) -> int:
        return max(8 * 1024, cap // CPU_SCALE)

    return CacheHierarchyConfig(
        l1=CacheLevelConfig(max(4 * 1024, 32 * KB * 4 // CPU_SCALE) , 8, 2),
        l2=CacheLevelConfig(scale(256 * KB * 4), 8, 5),
        l3=CacheLevelConfig(scale(8 * MB), 16, 25, shared=True),
        n_cores=4,
    )


def ipc_improvements(n: int | None = None) -> dict[str, dict[MemoryOrganization, float]]:
    """Relative IPC over the baseline for each organisation (Fig 5 bars)."""
    n = n or FAST_ACCESSES
    model = IpcModel(
        scaled_caches(), onpkg_capacity_bytes=max(4096, SECTION2_ONPKG // CPU_SCALE)
    )
    out: dict[str, dict[MemoryOrganization, float]] = {}
    for name in sorted(NPB_FOOTPRINTS_MB):
        results = model.compare_all(npb_trace(name, n))
        base = results[MemoryOrganization.BASELINE]
        out[name] = {
            org: res.improvement_over(base) for org, res in results.items()
        }
    return out


def run(fast: bool = True) -> Table:
    improvements = ipc_improvements(200_000 if fast else None)
    table = Table(
        "Fig 5 — IPC improvement over baseline (1 GB on-package, scaled "
        f"1/{CPU_SCALE})",
        ["workload", "L4 cache", "static on-pkg", "all on-pkg (ideal)"],
    )
    for name, imp in improvements.items():
        table.add_row(
            name,
            f"{imp[MemoryOrganization.L4_CACHE]:+.1%}",
            f"{imp[MemoryOrganization.STATIC_ONPKG]:+.1%}",
            f"{imp[MemoryOrganization.ALL_ONPKG]:+.1%}",
        )
    table.add_footnote(
        "footprint < 1 GB => static ~= ideal; DC.B/FT.C => static gain small"
    )
    return table


if __name__ == "__main__":
    run().print()
