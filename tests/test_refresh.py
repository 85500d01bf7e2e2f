"""Refresh-scheduling tests: the tREFI/tRFC time warp, its derived
per-tier constants, the bank-level preempt/resume semantics (the old
model only deferred *arrivals*), engine copy stretching, and the
simulator wiring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    BusConfig,
    DDR3_TREFI_S,
    DDR3_TRFC_S,
    DEFAULT_FREQUENCY_HZ,
    DramTiming,
    MigrationConfig,
    ONPKG_TRFC_S,
    SystemConfig,
    offpkg_dram_timing,
    onpkg_dram_timing,
)
from repro.core.simulator import EpochSimulator
from repro.dram.bank import Bank
from repro.dram.refresh import RefreshSchedule
from repro.errors import ConfigError
from repro.migration.algorithms import CopyStep
from repro.migration.engine import MigrationEngine
from repro.units import KB, MB

from .conftest import synthetic_trace
from .fastmodel_reference import useful_np, wall_np


# ---------------------------------------------------------------------------
# schedule construction and derived constants
# ---------------------------------------------------------------------------

class TestConstruction:
    @pytest.mark.parametrize("interval,window", [
        (0, 1), (-5, 1), (100, 0), (100, -1), (100, 100), (100, 200),
    ])
    def test_rejects_bad_parameters(self, interval, window):
        with pytest.raises(ConfigError):
            RefreshSchedule(interval, window)

    def test_timing_rejects_window_at_least_interval(self):
        with pytest.raises(ConfigError):
            DramTiming(refresh_interval=100, refresh_cycles=100)

    def test_from_timing_none_when_disabled(self):
        assert RefreshSchedule.from_timing(offpkg_dram_timing()) is None
        assert RefreshSchedule.from_timing(onpkg_dram_timing()) is None

    def test_derived_per_tier_constants(self):
        """tREFI/tRFC in core cycles at the default 3.2 GHz clock."""
        off = offpkg_dram_timing(refresh=True)
        on = onpkg_dram_timing(refresh=True)
        assert off.refresh_interval == round(DDR3_TREFI_S * DEFAULT_FREQUENCY_HZ)
        assert off.refresh_interval == 24960
        assert off.refresh_cycles == round(DDR3_TRFC_S * DEFAULT_FREQUENCY_HZ) == 512
        # retention (tREFI) is shared; the small on-package banks
        # recharge in about a third of the DIMM's tRFC
        assert on.refresh_interval == off.refresh_interval
        assert on.refresh_cycles == round(ONPKG_TRFC_S * DEFAULT_FREQUENCY_HZ) == 192

    def test_overhead_duty_cycle(self):
        sched = RefreshSchedule.from_timing(offpkg_dram_timing(refresh=True))
        assert sched.overhead == pytest.approx(512 / 24960)

    def test_half_clock_halves_the_cycle_counts(self):
        off = offpkg_dram_timing(refresh=True, frequency_hz=1.6e9)
        assert off.refresh_interval == 12480
        assert off.refresh_cycles == 256


# ---------------------------------------------------------------------------
# the time warp itself
# ---------------------------------------------------------------------------

intervals = st.integers(2, 5000)


@st.composite
def schedules(draw):
    interval = draw(intervals)
    window = draw(st.integers(1, interval - 1))
    return RefreshSchedule(interval, window)


class TestTimeWarp:
    @given(sched=schedules(), u=st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_wall_useful_round_trip(self, sched, u):
        """``useful`` is the exact left inverse of ``wall`` (both
        semantics): no useful cycle is ever created or lost."""
        assert sched.useful(sched.wall(u)) == u
        assert sched.useful(sched.wall(u, begin=True)) == u

    @given(sched=schedules(), u=st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_start_semantics_never_inside_a_window(self, sched, u):
        """Work cannot *begin* while the array is refreshing."""
        pos = sched.wall(u, begin=True) % sched.interval
        assert pos >= sched.window

    @given(sched=schedules(), u=st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_completion_semantics_at_boundary(self, sched, u):
        """Work may *finish* exactly as a window opens, never inside."""
        pos = sched.wall(u) % sched.interval
        assert pos == 0 or pos >= sched.window

    @given(sched=schedules(), t=st.integers(0, 10**9), dt=st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_useful_is_monotone_and_bounded(self, sched, t, dt):
        a, b = sched.useful(t), sched.useful(t + dt)
        assert a <= b <= a + dt  # the warp never runs faster than wall time

    @given(sched=schedules(), t=st.integers(0, 10**7))
    @settings(max_examples=200, deadline=None)
    def test_vectorised_matches_scalar(self, sched, t):
        ts = np.arange(t, t + 64, dtype=np.int64)
        # the numpy oracle's warp (the kernel's is pinned to that oracle)
        assert useful_np(sched, ts).tolist() == [sched.useful(x) for x in ts]
        us = useful_np(sched, ts)
        assert wall_np(sched, us).tolist() == [sched.wall(int(u)) for u in us]

    @given(sched=schedules(), start=st.integers(0, 10**7),
           work=st.integers(1, 10**5))
    @settings(max_examples=200, deadline=None)
    def test_stretch_at_least_the_useful_work(self, sched, start, work):
        d = sched.stretch(start, work)
        assert d >= work
        # and the stretched span really contains exactly `work` useful cycles
        assert sched.useful(start + d) - sched.useful(start) == work

    def test_stretch_examples(self):
        sched = RefreshSchedule(1000, 100)
        assert sched.stretch(100, 800) == 800       # fits between windows
        assert sched.stretch(950, 100) == 200       # suspended for one tRFC
        assert sched.stretch(0, 50) == 150          # starts inside a window
        assert sched.stretch(123, 0) == 0


# ---------------------------------------------------------------------------
# bank-level preempt/resume (regression: refresh must not only defer
# arrivals — work already queued or in service is suspended too)
# ---------------------------------------------------------------------------

def _timing(**kw):
    return DramTiming(refresh_interval=2000, refresh_cycles=100, **kw)


class TestBankRefresh:
    def test_service_crossing_a_window_is_suspended(self):
        """A conflict (148 cycles) arriving at 1950 crosses the window
        at [2000, 2100): it must absorb the full 100-cycle tRFC, not
        sail through because it *arrived* outside the window."""
        bank = Bank(_timing())
        start, finish, hit = bank.access(row=0, arrival=1950)
        assert not hit
        assert bank.timing.miss_cycles == 148
        assert start == 1950
        assert finish == 2198  # 1950 + 148 + 100, not 2098

    def test_arrival_inside_a_window_waits_for_it_to_close(self):
        bank = Bank(_timing())
        start, finish, _ = bank.access(row=0, arrival=2050)
        assert start == 2100
        assert finish == 2100 + 148

    def test_backlog_crossing_a_window_is_suspended(self):
        """Queued work (not just in-service work) is suspended: two
        back-to-back conflicts starting at 1800 straddle the window."""
        bank = Bank(_timing())
        bank.access(row=0, arrival=1800)            # busy until 1948
        _, finish, _ = bank.access(row=1, arrival=1801)
        assert finish == 1948 + 148 + 100           # second request crosses

    def test_queue_cap_counts_useful_cycles_across_a_window(self):
        """``max_queue_wait`` caps the wait on the useful clock, so a
        capped wait spanning a tRFC window absorbs the window. Arrival
        1900 is useful cycle 1800; the backlog (ready at wall 3000,
        useful 2800) is cut to 1800 + 300 = useful 2100, which is wall
        2300 once the window at [2000, 2100) is added back."""
        bank = Bank(_timing(max_queue_wait=300), open_row=0, ready_time=3000)
        start, finish, hit = bank.access(row=1, arrival=1900)
        assert not hit
        assert start == 2300        # 400 wall cycles: 300 useful + tRFC
        assert finish == 2300 + 148

    def test_far_from_windows_matches_refresh_free_bank(self):
        plain = Bank(DramTiming())
        refreshed = Bank(_timing())
        for row, arrival in [(0, 200), (0, 400), (3, 600)]:
            assert plain.access(row, arrival) == refreshed.access(row, arrival)

    @given(arrivals=st.lists(st.integers(0, 50_000), min_size=1,
                             max_size=40), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_useful_clock_recursion_is_exact(self, arrivals, data):
        """The bank recursion on the useful clock equals the classic
        recursion run in useful time, mapped back to wall time."""
        arrivals = sorted(arrivals)
        rows = [data.draw(st.integers(0, 3)) for _ in arrivals]
        timing = _timing()
        sched = RefreshSchedule(2000, 100)
        bank = Bank(timing)
        oracle = Bank(DramTiming())  # refresh-free twin on the useful clock
        for row, arrival in zip(rows, arrivals):
            start, finish, hit = bank.access(row, arrival)
            u_start, u_finish, o_hit = oracle.access(row, sched.useful(arrival))
            assert hit == o_hit
            assert start == sched.wall(u_start, begin=True)
            assert finish == sched.wall(u_finish)


# ---------------------------------------------------------------------------
# engine copy stretching
# ---------------------------------------------------------------------------

class TestCopyStretch:
    def test_copy_duration_per_region(self):
        """Hand-computed durations of one page copy per pair of endpoint
        kinds. The on-package region refreshes [k*500, k*500 + 200), the
        off-package region [k*3000, k*3000 + 300); a 64 KB page takes 128
        cycles on the on-package interconnect (512 B per cycle) and 512
        across the boundary (128 B per cycle)."""
        cfg = _cfg(refresh=False)
        assert cfg.migration.macro_page_bytes == 64 * KB
        engine = MigrationEngine(
            cfg.address_map(), cfg.migration,
            BusConfig(offpkg_bytes_per_cycle=128.0, onpkg_bytes_per_cycle=512.0),
            onpkg_refresh=RefreshSchedule(500, 200),
            offpkg_refresh=RefreshSchedule(3000, 300),
        )
        on_only = CopyStep("on", ("slot", 0), ("slot", 1))
        off_only = CopyStep("off", ("mach", 40), ("mach", 41))
        crossing = CopyStep("cross", ("mach", 40), ("slot", 0))
        # 128 cycles from 936: 64 before the window at 1000, 200 of
        # window, 64 after
        assert engine._copy_duration(936, on_only) == 328
        # 512 cycles from 2744: 256 before the window at 3000, 300 of
        # window, 256 after; the on-package windows do not apply
        assert engine._copy_duration(2744, off_only) == 812
        # 512 cycles from 2950 cross both regions' windows at 3000. The
        # off-package one costs 300 (812 in all); on-package, 50 cycles
        # run before 3000, 300 between the windows at 3000 and 3500 and
        # the last 162 after it, 400 of window (912 in all). The copy
        # waits for the longer
        assert engine._copy_duration(2950, crossing) == 912


# ---------------------------------------------------------------------------
# simulator integration
# ---------------------------------------------------------------------------

def _cfg(*, refresh, algorithm="live"):
    return SystemConfig(
        total_bytes=16 * MB,
        onpkg_bytes=2 * MB,
        offpkg_dram=offpkg_dram_timing(refresh=refresh),
        onpkg_dram=onpkg_dram_timing(refresh=refresh),
        migration=MigrationConfig(
            macro_page_bytes=64 * KB, swap_interval=500, algorithm=algorithm,
        ),
    )


class TestSimulatorWiring:
    def test_engine_gets_refresh_schedules(self):
        sim = EpochSimulator(_cfg(refresh=True))
        assert sim.engine.offpkg_refresh.window == 512
        assert sim.engine.onpkg_refresh.window == 192
        assert sim.engine.offpkg_refresh.interval == 24960

    def test_disabled_config_gets_none(self):
        sim = EpochSimulator(_cfg(refresh=False))
        assert sim.engine.offpkg_refresh is None
        assert sim.engine.onpkg_refresh is None

    def test_refresh_is_a_pure_tax_without_migration(self):
        trace = synthetic_trace(n=20_000, footprint=12 * MB, seed=7)
        base = EpochSimulator(_cfg(refresh=False), migrate=False).run(trace)
        taxed = EpochSimulator(_cfg(refresh=True), migrate=False).run(trace)
        assert taxed.total_latency > base.total_latency
        # a ~2% duty cycle cannot blow the average up by more than a
        # few percent on a non-adversarial trace
        assert taxed.average_latency < base.average_latency * 1.10

    def test_refresh_run_is_deterministic(self):
        trace = synthetic_trace(n=10_000, footprint=12 * MB, seed=11)
        a = EpochSimulator(_cfg(refresh=True)).run(trace)
        b = EpochSimulator(_cfg(refresh=True)).run(trace)
        assert a.total_latency == b.total_latency
        assert a.epoch_latency == b.epoch_latency
        assert a.swaps_triggered == b.swaps_triggered
