"""Configuration dataclasses mirroring the paper's Tables II and III.

Latency components (cycles at the 3.2 GHz core clock, Table II):

=====================  ======================================
Memory controller      5 (processing)
Controller-to-core     4 each way
Package pin            5 each way
PCB wire               11 round-trip
Interposer pin         3 each way
Intra-package wire     1 round-trip
DRAM core              50 (Simics model; trace model is detailed)
Queuing (off-package)  116 (Simics model; emerges in trace model)
=====================  ======================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .address import AddressMap
from .errors import ConfigError
from .units import GB, KB, MB


@dataclass(frozen=True)
class LatencyComponents:
    """Fixed latency-path components from Table II (core cycles)."""

    controller_processing: int = 5
    controller_to_core_each_way: int = 4
    package_pin_each_way: int = 5
    pcb_wire_round_trip: int = 11
    interposer_pin_each_way: int = 3
    intra_package_round_trip: int = 1

    @property
    def offpkg_overhead(self) -> int:
        """Non-DRAM, non-queuing cycles of one off-package access.

        controller traversal (processing + 2x core link) + 2x package pin
        + PCB round trip.
        """
        return (
            self.controller_processing
            + 2 * self.controller_to_core_each_way
            + 2 * self.package_pin_each_way
            + self.pcb_wire_round_trip
        )

    @property
    def onpkg_overhead(self) -> int:
        """Non-DRAM cycles of one on-package access.

        controller traversal + 2x interposer pin + intra-package round trip.
        No package pin / PCB legs and (per the paper) negligible queuing.
        """
        return (
            self.controller_processing
            + 2 * self.controller_to_core_each_way
            + 2 * self.interposer_pin_each_way
            + self.intra_package_round_trip
        )


@dataclass(frozen=True)
class DramTiming:
    """Open-page DDR3-style bank timing in core cycles.

    Defaults approximate DDR3-1333 seen from a 3.2 GHz core
    (1 memory cycle ~ 4.8 core cycles; CL=tRCD=tRP=9 memory cycles).
    ``io_cycles`` is the burst/transfer cost per access, lower for the
    high-speed on-package interface.
    """

    t_cas: int = 43          # column access (row-buffer hit cost)
    t_rcd: int = 43          # activate: row to column delay
    t_rp: int = 43           # precharge on a conflict
    io_cycles: int = 19      # data burst on the channel
    n_banks: int = 8
    n_channels: int = 4
    #: finite-queue proxy: a controller has bounded transaction queues and
    #: backpressures the cores when full; in an open-loop trace simulation
    #: that bound caps the per-request queuing wait instead of letting the
    #: backlog grow without limit under bursty overload
    max_queue_wait: int = 2000
    #: refresh modelling (disabled by default): every ``refresh_interval``
    #: cycles all banks block for ``refresh_cycles`` (tREFI ~ 7.8 us and
    #: tRFC ~ 160 ns of DDR3 give ~25000 / ~512 at 3.2 GHz)
    refresh_interval: int = 0
    refresh_cycles: int = 512

    def __post_init__(self) -> None:
        for name in ("t_cas", "t_rcd", "t_rp", "io_cycles", "n_banks", "n_channels",
                     "max_queue_wait"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"DramTiming.{name} must be positive")
        if self.refresh_interval < 0 or self.refresh_cycles <= 0:
            raise ConfigError("invalid refresh parameters")
        if self.refresh_interval and self.refresh_cycles >= self.refresh_interval:
            raise ConfigError("refresh window must be shorter than its interval")

    @property
    def hit_cycles(self) -> int:
        """Service time of a row-buffer hit."""
        return self.t_cas + self.io_cycles

    @property
    def miss_cycles(self) -> int:
        """Service time of a row-buffer conflict (precharge + activate + CAS)."""
        return self.t_rp + self.t_rcd + self.t_cas + self.io_cycles


#: core clock the cycle-denominated timings are quoted against (Table II)
DEFAULT_FREQUENCY_HZ = 3.2e9

#: refresh characteristics, in seconds. Retention is a property of the
#: DRAM cell, so both tiers share the JEDEC tREFI of 7.8 us; tRFC is a
#: property of the *array* being refreshed. The off-package DDR3 DIMM
#: refreshes multi-Gbit devices (tRFC ~ 160 ns), while the on-package
#: stacked DRAM splits capacity across 128 small banks whose short rows
#: recharge much faster (tRFC ~ 60 ns) — refresh is cheaper on-package,
#: which is what makes migration double as hot-row mitigation.
DDR3_TREFI_S = 7.8e-6
DDR3_TRFC_S = 160e-9
ONPKG_TRFC_S = 60e-9


def cycles_of(seconds: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> int:
    """A wall-clock duration in (at least one) core cycles."""
    if seconds <= 0 or frequency_hz <= 0:
        raise ConfigError("seconds and frequency_hz must be positive")
    return max(1, int(round(seconds * frequency_hz)))


def offpkg_dram_timing(
    *, refresh: bool = False, frequency_hz: float = DEFAULT_FREQUENCY_HZ
) -> DramTiming:
    """Commodity DDR3 DIMM: 4 channels x 8 banks.

    ``refresh=True`` derives tREFI/tRFC from the DDR3 datasheet values
    at the given core clock (~24 960 / ~512 cycles at 3.2 GHz).
    """
    return DramTiming(
        refresh_interval=cycles_of(DDR3_TREFI_S, frequency_hz) if refresh else 0,
        refresh_cycles=cycles_of(DDR3_TRFC_S, frequency_hz),
    )


def onpkg_dram_timing(
    *, refresh: bool = False, frequency_hz: float = DEFAULT_FREQUENCY_HZ
) -> DramTiming:
    """On-package many-bank DRAM: 128 banks, faster I/O on the interposer.

    Shares the off-package tREFI (cell retention does not change on the
    interposer) but refreshes its small banks in ~60 ns — about a third
    of the DIMM's tRFC (~192 vs ~512 cycles at 3.2 GHz).
    """
    return DramTiming(
        t_cas=43, t_rcd=43, t_rp=43, io_cycles=5, n_banks=128, n_channels=1,
        refresh_interval=cycles_of(DDR3_TREFI_S, frequency_hz) if refresh else 0,
        refresh_cycles=cycles_of(ONPKG_TRFC_S, frequency_hz),
    )


@dataclass(frozen=True)
class CacheLevelConfig:
    """One level of the SRAM cache hierarchy (Table II)."""

    capacity_bytes: int
    ways: int
    latency_cycles: int
    line_bytes: int = 64
    shared: bool = False

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.ways <= 0 or self.latency_cycles < 0:
            raise ConfigError("invalid cache level parameters")
        if self.capacity_bytes % (self.ways * self.line_bytes):
            raise ConfigError("capacity must be a whole number of sets")

    @property
    def n_sets(self) -> int:
        return self.capacity_bytes // (self.ways * self.line_bytes)


@dataclass(frozen=True)
class CacheHierarchyConfig:
    """The i7-like private L1/L2 + shared L3 of Table II."""

    l1: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(32 * KB, 8, 2)
    )
    l2: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(256 * KB, 8, 5)
    )
    l3: CacheLevelConfig = field(
        default_factory=lambda: CacheLevelConfig(8 * MB, 16, 25, shared=True)
    )
    n_cores: int = 4


class MigrationAlgorithm:
    """Names of the three swap algorithms (Section III-A)."""

    N = "N"
    N_MINUS_1 = "N-1"
    LIVE = "live"

    ALL = (N, N_MINUS_1, LIVE)


@dataclass(frozen=True)
class MigrationConfig:
    """Migration-controller knobs (Section III / Table III)."""

    algorithm: str = MigrationAlgorithm.LIVE
    swap_interval: int = 10_000          # memory accesses per epoch
    macro_page_bytes: int = 1 * MB
    subblock_bytes: int = 4 * KB
    #: pure-hardware translation adds 2 cycles per access (Section III-B)
    hw_translation_cycles: int = 2
    #: user/kernel switch cost of one OS-assisted table update [19]
    os_update_cycles: int = 127
    #: granularity threshold below which the OS-assisted scheme is used
    hw_min_page_bytes: int = 1 * MB
    #: trigger a swap only when the off-package MRU page was accessed
    #: more often than the on-package LRU page during the epoch
    hottest_coldest_trigger: bool = True
    #: live migration copies the MRU sub-block first, then wraps
    critical_block_first: bool = True
    #: extra cycles an off-package demand access pays while a (demand-
    #: priority) background copy shares the DDR channel with it
    interference_cycles: int = 12

    def __post_init__(self) -> None:
        if self.algorithm not in MigrationAlgorithm.ALL:
            raise ConfigError(f"unknown migration algorithm {self.algorithm!r}")
        if self.swap_interval <= 0:
            raise ConfigError("swap_interval must be positive")

    @property
    def os_assisted(self) -> bool:
        """True when the macro page is too small for the pure-HW table."""
        return self.macro_page_bytes < self.hw_min_page_bytes


@dataclass(frozen=True)
class BusConfig:
    """Sustained copy bandwidth in bytes per core cycle.

    Off-package: 64-bit DDR3-1333 = 10.7 GB/s ~ 3.33 B/cycle at 3.2 GHz
    (the paper: a 4 MB macro page takes 374 us to cross the boundary).
    On-package: >= 2 Tbps flip-chip SiP interconnect [3] ~ 78 B/cycle.
    A cross-boundary copy is limited by the off-package bus.
    """

    offpkg_bytes_per_cycle: float = 3.33
    onpkg_bytes_per_cycle: float = 78.0

    def __post_init__(self) -> None:
        if self.offpkg_bytes_per_cycle <= 0 or self.onpkg_bytes_per_cycle <= 0:
            raise ConfigError("bus bandwidths must be positive")

    def copy_cycles(self, nbytes: int, cross_boundary: bool) -> int:
        """Cycles to copy ``nbytes``: over the off-package bus when the
        copy crosses the package boundary, else over the on-package
        interconnect. A copy of any bytes takes at least one cycle."""
        bw = self.offpkg_bytes_per_cycle if cross_boundary else self.onpkg_bytes_per_cycle
        cycles = int(round(nbytes / bw))
        return max(1, cycles) if nbytes > 0 else 0


@dataclass(frozen=True)
class PowerConfig:
    """Energy-per-bit constants of Section IV-D [21].

    ``background_mw_per_gb`` optionally adds DRAM background power
    (refresh, PLL/DLL, standby) proportional to capacity and wall time —
    disabled by default to match the paper's pure per-bit accounting;
    ``benchmarks/bench_refresh.py`` explores how it moves Fig 16.
    """

    dram_core_pj_per_bit: float = 5.0
    onpkg_link_pj_per_bit: float = 1.66
    offpkg_link_pj_per_bit: float = 13.0
    access_bytes: int = 64               # one cache line per memory access
    background_mw_per_gb: float = 0.0    # ~50 mW/GB is typical for DDR3


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs for long trace campaigns (all opt-in).

    The defaults disable every mechanism so the simulator behaves exactly
    as before; campaigns that need crash recovery or fault injection turn
    the individual features on.
    """

    #: epochs between ``table.audit()`` invariant sweeps (0 = never)
    audit_interval: int = 0
    #: consecutive swap failures / failed audits before the migration
    #: engine quarantines itself and falls back to static mapping
    max_consecutive_failures: int = 3

    def __post_init__(self) -> None:
        if self.audit_interval < 0:
            raise ConfigError("audit_interval must be >= 0")
        if self.max_consecutive_failures <= 0:
            raise ConfigError("max_consecutive_failures must be positive")


@dataclass(frozen=True)
class RASConfig:
    """Runtime reliability (RAS) knobs: CE telemetry, patrol scrub,
    predictive page retirement, and off-package write-endurance.

    Everything defaults off (``enabled=False``); the simulator's default
    path — including the multi-epoch flush and every published number —
    is bit-identical unless a run opts in. With ``enabled=True`` the
    simulator attaches a :class:`~repro.ras.controller.RasController`
    and flushes DRAM service every epoch, because patrol scrubs go
    through the devices between epochs.
    """

    enabled: bool = False
    #: seed for the per-epoch background-CE arrival stream (independent
    #: of any attached :class:`~repro.resilience.faults.FaultPlan` seed)
    seed: int = 0
    #: probability an on-package frame takes a background correctable
    #: error in a given epoch (per usable frame, Bernoulli per epoch)
    ce_base_rate: float = 0.0
    #: leaky-bucket level at which a frame is predictively retired
    ce_threshold: int = 8
    #: bucket decay per epoch (CEs must *cluster* to trigger retirement)
    ce_leak: float = 0.25
    #: cycles one inline CE correction adds to the epoch
    ce_cost_cycles: int = 20
    #: epochs between patrol-scrub passes (0 disables the scrubber)
    scrub_interval_epochs: int = 0
    #: usable frames scrubbed per pass (round-robin cursor)
    scrub_frames_per_pass: int = 1
    #: off-package machine pages (just below the Ω ghost page) reserved
    #: as retirement spares — invisible to the trace address space
    spare_pages: int = 2
    #: never retire below this many usable on-package frames
    min_usable_frames: int = 2
    #: swap-candidate score penalty per
    #: :data:`~repro.ras.wear.WEAR_WINDOW` lifetime writes to the
    #: candidate's off-package machine page (0 = endurance-blind)
    wear_penalty: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.ce_base_rate <= 1.0:
            raise ConfigError(
                f"ce_base_rate {self.ce_base_rate} outside [0, 1]"
            )
        if self.ce_threshold <= 0:
            raise ConfigError("ce_threshold must be positive")
        if self.ce_leak < 0:
            raise ConfigError("ce_leak must be >= 0")
        if self.ce_cost_cycles < 0:
            raise ConfigError("ce_cost_cycles must be >= 0")
        if self.scrub_interval_epochs < 0:
            raise ConfigError("scrub_interval_epochs must be >= 0")
        if self.scrub_frames_per_pass <= 0:
            raise ConfigError("scrub_frames_per_pass must be positive")
        if self.spare_pages < 0:
            raise ConfigError("spare_pages must be >= 0")
        if self.min_usable_frames < 1:
            raise ConfigError("min_usable_frames must be >= 1")
        if self.wear_penalty < 0:
            raise ConfigError("wear_penalty must be >= 0")
        if self.enabled and self.spare_pages == 0:
            raise ConfigError(
                "an enabled RAS subsystem needs at least one spare page "
                "to retire into"
            )

    def reserved_pages(self, amap: AddressMap) -> frozenset[int]:
        """The spare machine pages: the ``spare_pages`` off-package
        pages directly below the Ω ghost page. Empty when disabled."""
        if not self.enabled or self.spare_pages == 0:
            return frozenset()
        return frozenset(
            range(amap.ghost_page - self.spare_pages, amap.ghost_page)
        )


@dataclass(frozen=True)
class DisturbConfig:
    """Row-disturbance (rowhammer) modelling knobs — all opt-in.

    With ``enabled=True`` the simulator attaches a
    :class:`~repro.ras.disturb.DisturbController` and flushes DRAM
    service every epoch (victim refreshes go through the devices between
    epochs): per-row activation
    telemetry (leaky buckets, like the RAS CE telemetry) watches every
    bank's activate stream; rows whose buckets cross ``act_threshold``
    between refreshes flip bits in their physical neighbours, visible to
    the data-integrity shadow memory. Mitigation is a three-rung ladder
    (targeted victim refresh -> migration bias -> throttle/retire); with
    ``mitigate=False`` the flips land unchecked so the harness can prove
    the shadow memory catches unmitigated hammering. Defaults keep every
    published number bit-identical.
    """

    enabled: bool = False
    #: seed for the victim-bit-flip stream (independent of FaultPlan)
    seed: int = 0
    #: activations of one row between refreshes before its neighbours
    #: take disturbance flips (real parts are O(10k-100k); scaled down
    #: to epoch-sized experiments like the CE rates)
    act_threshold: int = 64
    #: fraction of ``act_threshold`` at which mitigation engages
    alert_level: float = 0.5
    #: leaky-bucket decay per epoch, in activation units (refresh between
    #: epochs restores charge, so only *clustered* activation hammers)
    act_leak: float = 8.0
    #: run the mitigation ladder; False = detection-only (flips land)
    mitigate: bool = True
    #: targeted victim refreshes granted per row before escalating
    victim_refresh_max: int = 4
    #: sub-block flips landing per victim row on an unmitigated crossing
    flips_per_victim: int = 1
    #: hottest-page score bonus per bucketed activation of a page's rows
    #: (biases migration to pull aggressor pages on-package, where tRFC
    #: is short and victim refresh is cheap); 0 = no bias
    migration_bias: float = 0.0
    #: cycles charged per epoch while an escalated aggressor row is
    #: activation-throttled (graceful degradation, not correctness)
    throttle_cycles: int = 200

    def __post_init__(self) -> None:
        if self.act_threshold <= 0:
            raise ConfigError("act_threshold must be positive")
        if not 0.0 < self.alert_level <= 1.0:
            raise ConfigError(
                f"alert_level {self.alert_level} outside (0, 1]"
            )
        if self.act_leak < 0:
            raise ConfigError("act_leak must be >= 0")
        if self.victim_refresh_max < 0:
            raise ConfigError("victim_refresh_max must be >= 0")
        if self.flips_per_victim <= 0:
            raise ConfigError("flips_per_victim must be positive")
        if self.migration_bias < 0:
            raise ConfigError("migration_bias must be >= 0")
        if self.throttle_cycles < 0:
            raise ConfigError("throttle_cycles must be >= 0")


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration tying the subsystems together."""

    total_bytes: int = 4 * GB
    onpkg_bytes: int = 512 * MB
    latency: LatencyComponents = field(default_factory=LatencyComponents)
    offpkg_dram: DramTiming = field(default_factory=offpkg_dram_timing)
    onpkg_dram: DramTiming = field(default_factory=onpkg_dram_timing)
    caches: CacheHierarchyConfig = field(default_factory=CacheHierarchyConfig)
    migration: MigrationConfig = field(default_factory=MigrationConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    power: PowerConfig = field(default_factory=PowerConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    ras: RASConfig = field(default_factory=RASConfig)
    disturb: DisturbConfig = field(default_factory=DisturbConfig)
    frequency_hz: float = DEFAULT_FREQUENCY_HZ

    def __post_init__(self) -> None:
        # Fail fast: AddressMap validates the geometry.
        amap = self.address_map()
        if self.ras.enabled:
            offpkg_pages = amap.n_total_pages - amap.n_onpkg_pages - 1
            if self.ras.spare_pages >= offpkg_pages:
                raise ConfigError(
                    f"RAS reserves {self.ras.spare_pages} spare pages but "
                    f"only {offpkg_pages} off-package pages exist below Ω"
                )
            if self.ras.min_usable_frames > amap.n_onpkg_pages:
                raise ConfigError(
                    f"min_usable_frames {self.ras.min_usable_frames} exceeds "
                    f"the {amap.n_onpkg_pages} on-package frames"
                )

    def address_map(self) -> AddressMap:
        return AddressMap(
            total_bytes=self.total_bytes,
            onpkg_bytes=self.onpkg_bytes,
            macro_page_bytes=self.migration.macro_page_bytes,
            subblock_bytes=self.migration.subblock_bytes,
        )

    def with_migration(self, **kwargs) -> "SystemConfig":
        """Return a copy with migration fields replaced."""
        return replace(self, migration=replace(self.migration, **kwargs))

    def with_resilience(self, **kwargs) -> "SystemConfig":
        """Return a copy with resilience fields replaced."""
        return replace(self, resilience=replace(self.resilience, **kwargs))

    def with_ras(self, **kwargs) -> "SystemConfig":
        """Return a copy with RAS fields replaced."""
        return replace(self, ras=replace(self.ras, **kwargs))

    def with_disturb(self, **kwargs) -> "SystemConfig":
        """Return a copy with row-disturbance fields replaced."""
        return replace(self, disturb=replace(self.disturb, **kwargs))


def paper_config(**migration_kwargs) -> SystemConfig:
    """Table III configuration: 4 GB total, 512 MB on-package."""
    cfg = SystemConfig()
    if migration_kwargs:
        cfg = cfg.with_migration(**migration_kwargs)
    return cfg


def scaled_config(scale: int = 16, **migration_kwargs) -> SystemConfig:
    """Paper geometry divided by ``scale`` so runs finish quickly.

    Keeps the 12.5% on-package ratio; macro pages are not scaled (they
    are the experiment variable) but must still fit the shrunken
    on-package region.
    """
    if scale <= 0:
        raise ConfigError("scale must be positive")
    cfg = SystemConfig(total_bytes=4 * GB // scale, onpkg_bytes=512 * MB // scale)
    if migration_kwargs:
        cfg = cfg.with_migration(**migration_kwargs)
    return cfg
