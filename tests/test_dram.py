"""Tests for the DRAM substrate: geometry, banks, FR-FCFS, latency paths."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DramTiming, LatencyComponents, offpkg_dram_timing, onpkg_dram_timing
from repro.dram.bank import Bank
from repro.dram.fastmodel import FastDevice
from repro.dram.latency import LatencyModel
from repro.dram.scheduler import EventDrivenDevice, FRFCFSScheduler
from repro.dram.timing import DramGeometry
from repro.errors import ConfigError, SimulationError

from .fastmodel_reference import ReferenceFastDevice

_INT64_MAX = int(np.iinfo(np.int64).max)


class TestGeometry:
    def test_decompose_interleaves_channels_then_banks(self):
        geo = DramGeometry(offpkg_dram_timing(), row_bytes=8192)
        ch, bank, row = geo.decompose(np.array([0, 8192, 8192 * 4, 8192 * 32]))
        assert ch.tolist() == [0, 1, 0, 0]
        assert bank.tolist() == [0, 0, 1, 0]
        assert row.tolist() == [0, 0, 0, 1]

    def test_queue_count(self):
        assert DramGeometry(offpkg_dram_timing()).n_queues == 32
        assert DramGeometry(onpkg_dram_timing()).n_queues == 128

    def test_rejects_bad_row_bytes(self):
        with pytest.raises(ConfigError):
            DramGeometry(offpkg_dram_timing(), row_bytes=1000)


class TestBank:
    def test_cold_access_is_conflict(self):
        bank = Bank(offpkg_dram_timing())
        start, finish, hit = bank.access(row=3, arrival=0)
        assert not hit
        assert finish - start == bank.timing.miss_cycles

    def test_row_hit_then_conflict(self):
        t = offpkg_dram_timing()
        bank = Bank(t)
        bank.access(3, 0)
        _, f1, hit1 = bank.access(3, 1000)
        assert hit1 and f1 == 1000 + t.hit_cycles
        _, _, hit2 = bank.access(4, 2000)
        assert not hit2
        assert bank.hits == 1 and bank.conflicts == 2
        assert bank.row_hit_rate == pytest.approx(1 / 3)

    def test_busy_bank_queues(self):
        t = offpkg_dram_timing()
        bank = Bank(t)
        _, f1, _ = bank.access(1, 0)
        s2, _, _ = bank.access(1, 1)
        assert s2 == f1  # waits for the bank

    def test_queue_wait_capped(self):
        t = DramTiming(max_queue_wait=100)
        bank = Bank(t)
        bank.ready_time = 10_000
        s, f, _ = bank.access(1, arrival=0)
        assert s == 100


class TestFRFCFS:
    def test_row_hit_scheduled_first(self):
        """Two pending requests: the row hit jumps the queue (FR),
        even if the conflicting request is older."""
        t = offpkg_dram_timing()
        sched = FRFCFSScheduler(t)
        # row 0 opens the buffer; then a conflict (row 9) arrives before a
        # hit (row 0), both pending while the bank is busy
        rows = np.array([0, 9, 0])
        arrivals = np.array([0, 1, 2])
        start, finish, hit = sched.service(rows, arrivals)
        assert hit.tolist() == [False, False, True]
        # the third request (hit) is serviced before the second
        assert start[2] < start[1]

    def test_fcfs_tiebreak_oldest(self):
        t = offpkg_dram_timing()
        sched = FRFCFSScheduler(t)
        rows = np.array([0, 5, 7])
        arrivals = np.array([0, 1, 2])
        start, _, _ = sched.service(rows, arrivals)
        assert start[1] < start[2]

    def test_rejects_unsorted_arrivals(self):
        sched = FRFCFSScheduler(offpkg_dram_timing())
        with pytest.raises(SimulationError):
            sched.service(np.array([0, 1]), np.array([5, 1]))


class TestDeviceCrossValidation:
    """FastDevice vs EventDrivenDevice on identical streams."""

    def _random_stream(self, n, seed, span=1 << 26, max_gap=60):
        rng = np.random.default_rng(seed)
        addr = rng.integers(0, span // 64, n) * 64
        arrivals = np.cumsum(rng.integers(1, max_gap, n))
        return addr, arrivals

    @pytest.mark.parametrize("timing", [offpkg_dram_timing(), onpkg_dram_timing()])
    def test_agree_on_light_load(self, timing):
        addr, arrivals = self._random_stream(3000, seed=1)
        geo = DramGeometry(timing)
        fast = FastDevice(geo).service(addr, arrivals)
        event = EventDrivenDevice(geo).service(addr, arrivals)
        # FR-FCFS reordering only matters when queues build; under light
        # load the two must agree almost everywhere, and closely on average
        agree = (fast == event).mean()
        assert agree > 0.95
        assert abs(fast.mean() - event.mean()) / event.mean() < 0.02

    def test_sequential_stream_row_hits(self):
        geo = DramGeometry(offpkg_dram_timing())
        addr = np.arange(5000, dtype=np.int64) * 64
        arrivals = np.arange(5000, dtype=np.int64) * 70
        dev = FastDevice(geo)
        dev.service(addr, arrivals)
        assert dev.row_hit_rate > 0.9  # 8 KB rows -> 127/128 hits

    def test_random_traffic_row_misses(self):
        geo = DramGeometry(offpkg_dram_timing())
        addr, arrivals = self._random_stream(5000, seed=2, span=1 << 30)
        dev = FastDevice(geo)
        dev.service(addr, arrivals)
        assert dev.row_hit_rate < 0.1

    def test_state_persists_across_chunks(self):
        geo = DramGeometry(offpkg_dram_timing())
        addr, arrivals = self._random_stream(2000, seed=3)
        whole = FastDevice(geo).service(addr, arrivals)
        dev = FastDevice(geo)
        parts = np.concatenate(
            [dev.service(addr[:1000], arrivals[:1000]), dev.service(addr[1000:], arrivals[1000:])]
        )
        np.testing.assert_array_equal(whole, parts)

    def test_reset(self):
        geo = DramGeometry(offpkg_dram_timing())
        dev = FastDevice(geo)
        addr, arrivals = self._random_stream(100, seed=4)
        dev.service(addr, arrivals)
        dev.reset()
        assert dev.row_hits == 0 and dev.row_conflicts == 0

    def test_empty_chunk(self):
        geo = DramGeometry(offpkg_dram_timing())
        assert FastDevice(geo).service(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_rejects_unsorted(self):
        geo = DramGeometry(offpkg_dram_timing())
        with pytest.raises(SimulationError):
            FastDevice(geo).service(np.array([0, 64]), np.array([5, 1]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(10, 400))
    def test_agreement_property(self, seed, n):
        addr, arrivals = self._random_stream(n, seed)
        geo = DramGeometry(offpkg_dram_timing())
        fast = FastDevice(geo).service(addr, arrivals)
        event = EventDrivenDevice(geo).service(addr, arrivals)
        assert fast.min() >= offpkg_dram_timing().hit_cycles
        # mean within 5% even when occasional reordering differs
        assert abs(fast.mean() - event.mean()) <= max(2.0, 0.05 * event.mean())


class TestQueuingClaims:
    """Section II's bank-count claim: heavy traffic queues on the 8-bank
    off-package DRAM but barely on the 128-bank on-package DRAM."""

    def test_many_banks_kill_queuing(self):
        rng = np.random.default_rng(0)
        n = 30000
        addr = rng.integers(0, (1 << 27) // 64, n) * 64
        arrivals = np.cumsum(rng.integers(1, 12, n))  # heavy load
        off = FastDevice(DramGeometry(offpkg_dram_timing()))
        on = FastDevice(DramGeometry(onpkg_dram_timing()))
        off_lat = off.service(addr, arrivals)
        on_lat = on.service(addr, arrivals)
        off_queue = off_lat.mean() - offpkg_dram_timing().miss_cycles
        on_queue = on_lat.mean() - onpkg_dram_timing().miss_cycles
        assert off_queue > 5 * max(on_queue, 1.0)


class TestLatencyModel:
    def test_path_overheads(self):
        parts = LatencyComponents()
        assert LatencyModel(parts, offpkg_dram_timing(), onpkg=False).path_overhead == 34
        assert LatencyModel(parts, onpkg_dram_timing(), onpkg=True).path_overhead == 20

    def test_unloaded_latency_composition(self):
        m = LatencyModel(LatencyComponents(), offpkg_dram_timing(), onpkg=False)
        assert m.unloaded_latency() == 34 + offpkg_dram_timing().miss_cycles

    def test_access_latency_adds_path(self):
        m = LatencyModel(LatencyComponents(), onpkg_dram_timing(), onpkg=True)
        lat = m.access_latency(np.array([0]), np.array([0]))
        assert lat[0] == onpkg_dram_timing().miss_cycles + 20


class TestRefresh:
    """Optional tREFI/tRFC refresh windows (extension; see bench_refresh)."""

    def _timing(self):
        return DramTiming(refresh_interval=1000, refresh_cycles=100)

    def test_access_in_window_waits(self):
        bank = Bank(self._timing())
        # arrival at cycle 2030: 70 cycles of the window remain
        start, finish, _ = bank.access(row=1, arrival=2030)
        assert start == 2100

    def test_access_outside_window_unaffected(self):
        bank = Bank(self._timing())
        start, _, _ = bank.access(row=1, arrival=2500)
        assert start == 2500

    def test_fast_model_charges_the_wait(self):
        geo = DramGeometry(self._timing())
        dev = FastDevice(geo)
        lat = dev.service(np.array([0, 0]), np.array([2030, 2500]))
        assert lat[0] - lat[1] >= 60  # ~70-cycle refresh wait, row-state aside

    def test_fast_and_bank_agree(self):
        timing = self._timing()
        geo = DramGeometry(timing)
        rng = np.random.default_rng(0)
        addr = rng.integers(0, 1 << 20, 500) // 64 * 64
        arrivals = np.cumsum(rng.integers(50, 300, 500))
        fast = FastDevice(geo).service(addr, arrivals)
        event = EventDrivenDevice(geo).service(addr, arrivals)
        assert abs(fast.mean() - event.mean()) < max(2.0, 0.05 * event.mean())

    def test_invalid_refresh_config(self):
        with pytest.raises(ConfigError):
            DramTiming(refresh_interval=100, refresh_cycles=100)
        with pytest.raises(ConfigError):
            DramTiming(refresh_interval=-1)


def _per_segment(device, addr, arrivals, seg_starts):
    """One ``service`` call per segment, concatenated."""
    bounds = list(seg_starts) + [len(addr)]
    return np.concatenate([
        device.service(addr[lo:hi], arrivals[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])


def _assert_same_state(fused, ref):
    assert (fused.row_hits, fused.row_conflicts) == (ref.row_hits, ref.row_conflicts)
    np.testing.assert_array_equal(fused._ready, ref._ready)
    np.testing.assert_array_equal(fused._open_row, ref._open_row)


class TestServiceSegmented:
    """``service_segmented`` against one ``service`` call per segment."""

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(2, 200),
        # 1 binds at nearly every boundary, 30 at most loaded ones,
        # 1 << 30 never
        cap=st.sampled_from([1, 30, 300, 1 << 30]),
        n_channels=st.sampled_from([1, 2]),
        refresh=st.booleans(),
    )
    def test_matches_per_segment_service(self, data, n, cap, n_channels, refresh):
        timing = DramTiming(
            n_channels=n_channels, n_banks=4, max_queue_wait=cap,
            refresh_interval=3000 if refresh else 0, refresh_cycles=200,
        )
        fused, ref = FastDevice(DramGeometry(timing)), FastDevice(DramGeometry(timing))
        last = 0
        for _ in range(2):  # the second call starts from the first's state
            gaps = data.draw(st.lists(st.integers(0, 120), min_size=n, max_size=n))
            arrivals = last + np.cumsum(gaps, dtype=np.int64)
            rows = data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
            addr = np.array(rows, dtype=np.int64) * 4096
            cuts = data.draw(st.lists(st.integers(0, n - 1), max_size=40))
            seg_starts = np.array([0] + sorted(cuts), dtype=np.int64)

            got = fused.service_segmented(addr, arrivals, seg_starts)
            np.testing.assert_array_equal(
                got, _per_segment(ref, addr, arrivals, seg_starts)
            )
            _assert_same_state(fused, ref)
            last = int(arrivals[-1])

    def test_cap_binding_at_every_boundary_needs_no_replay(self, monkeypatch):
        # bursts of three accesses per queue at one instant and a cap of
        # one cycle: every queue's carry is capped at every boundary it
        # crosses. Queue 3 takes only every third segment, so its carry
        # skips segments. The fused call must finish without service().
        timing = DramTiming(n_channels=2, n_banks=2, max_queue_wait=1)
        geo = DramGeometry(timing)
        segments = []
        for k in range(12):
            queues = [0, 1, 2, 3] if k % 3 == 0 else [0, 1, 2]
            rows = [k % 2, 5, k % 2]
            segments.append(np.array(
                [(r * geo.n_queues + q) * geo.row_bytes for q in queues for r in rows],
                dtype=np.int64,
            ))
        addr = np.concatenate(segments)
        seg_starts = np.cumsum([0] + [s.size for s in segments[:-1]])
        calls = [
            np.repeat(dt + 40 * np.arange(len(segments), dtype=np.int64),
                      [s.size for s in segments])
            for dt in (0, 440)  # the second call starts inside the backlog
        ]

        ref, want = FastDevice(geo), []
        for arrivals in calls:
            bounds = list(seg_starts) + [addr.size]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                want.append(ref.service(addr[lo:hi], arrivals[lo:hi]))
                touched = geo.queue_of(addr[lo:hi])
                # the carry out of every segment is capped
                assert (ref._ready[touched] == arrivals[lo] + 1).all()
        fused = FastDevice(geo)

        def no_replay(self, addr, arrivals):
            raise AssertionError("service_segmented replayed through service()")

        monkeypatch.setattr(FastDevice, "service", no_replay)
        got = [fused.service_segmented(addr, arrivals, seg_starts) for arrivals in calls]
        np.testing.assert_array_equal(np.concatenate(got), np.concatenate(want))
        _assert_same_state(fused, ref)

    def test_span_past_int64_offsets_is_exact(self):
        # one access per queue at 0 and at 1 << 59: the numpy oracle's
        # cummax restart offsets (queue x span) pass int64 in one call,
        # so it raises; the kernel keeps no offsets and serves the call
        # exactly as two calls that each span one instant
        geo = DramGeometry(offpkg_dram_timing())
        nq = geo.n_queues
        addr = np.arange(nq, dtype=np.int64) * geo.row_bytes
        split = FastDevice(geo)
        want = [split.service(addr, np.full(nq, t, dtype=np.int64)) for t in (0, 1 << 59)]
        arrivals = np.repeat(np.array([0, 1 << 59], dtype=np.int64), nq)
        device = FastDevice(geo)
        got = device.service(np.tile(addr, 2), arrivals)
        assert (got > 0).all()
        np.testing.assert_array_equal(got, np.concatenate(want))
        _assert_same_state(device, split)
        with pytest.raises(SimulationError, match="too wide"):
            ReferenceFastDevice(geo).service(np.tile(addr, 2), arrivals)

    def test_group_span_past_int64_offsets_is_exact(self):
        # one queue and 17 segments whose cap binds across a 1 << 59 span:
        # the oracle's group pass restarts 17 times and its offsets pass
        # int64; the kernel equals one service() call per segment
        timing = DramTiming(n_channels=1, n_banks=1, max_queue_wait=1)
        geo = DramGeometry(timing)
        arrivals = np.linspace(0, 1 << 59, 17).astype(np.int64)
        addr = np.zeros(17, dtype=np.int64)
        seg_starts = np.arange(17, dtype=np.int64)
        ref = FastDevice(geo)
        want = _per_segment(ref, addr, arrivals, seg_starts)
        assert (want > 0).all()
        fused = FastDevice(geo)
        np.testing.assert_array_equal(fused.service_segmented(addr, arrivals, seg_starts), want)
        _assert_same_state(fused, ref)
        with pytest.raises(SimulationError, match="too wide"):
            ReferenceFastDevice(geo).service_segmented(addr, arrivals, seg_starts)

    @pytest.mark.parametrize("cap, ready, last", [
        # max(a, prev) + s passes int64: the arrival itself is too late
        (2000, 0, _INT64_MAX - 3),
        # ... or the carried backlog is
        (2000, _INT64_MAX - 3, 0),
        # the departure fits, a + cap does not
        (1 << 40, 0, _INT64_MAX - (1 << 30)),
    ])
    def test_int64_overflow_raises_and_keeps_state(self, cap, ready, last):
        geo = DramGeometry(DramTiming(n_channels=1, n_banks=2, max_queue_wait=cap))
        addr = np.array([0, geo.row_bytes], dtype=np.int64)
        device = FastDevice(geo)
        device._ready[:] = ready
        before = (device._ready.copy(), device._open_row.copy())
        for call in (
            lambda: device.service(addr, np.array([0, last], dtype=np.int64)),
            lambda: device.service_segmented(
                addr, np.array([0, last], dtype=np.int64), np.array([0, 1])
            ),
        ):
            with pytest.raises(SimulationError, match="passes int64"):
                call()
            np.testing.assert_array_equal(device._ready, before[0])
            np.testing.assert_array_equal(device._open_row, before[1])
            assert device.row_hits + device.row_conflicts == 0


class TestKernelOracle:
    """The compiled kernel against the numpy oracle and per-segment calls."""

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 200),
        cap=st.sampled_from([1, 30, 300, 1 << 30]),
        n_channels=st.sampled_from([1, 2]),
        # 3 banks take the division path of queues_and_rows
        n_banks=st.sampled_from([3, 4]),
        refresh=st.booleans(),
    )
    def test_kernel_equals_oracle_equals_per_segment(
        self, data, n, cap, n_channels, n_banks, refresh
    ):
        timing = DramTiming(
            n_channels=n_channels, n_banks=n_banks, max_queue_wait=cap,
            refresh_interval=3000 if refresh else 0, refresh_cycles=200,
        )
        geo = DramGeometry(timing)
        kernel, oracle, ref = FastDevice(geo), ReferenceFastDevice(geo), FastDevice(geo)
        last = 0
        for _ in range(2):  # the second call starts from the first's state
            gaps = data.draw(st.lists(st.integers(0, 120), min_size=n, max_size=n))
            arrivals = last + np.cumsum(gaps, dtype=np.int64)
            rows = data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
            addr = np.array(rows, dtype=np.int64) * 4096
            cuts = data.draw(st.lists(st.integers(0, n - 1), max_size=40))
            seg_starts = np.array([0] + sorted(cuts), dtype=np.int64)

            got = kernel.service_segmented(addr, arrivals, seg_starts)
            np.testing.assert_array_equal(
                got, oracle.service_segmented(addr, arrivals, seg_starts)
            )
            np.testing.assert_array_equal(got, _per_segment(ref, addr, arrivals, seg_starts))
            _assert_same_state(kernel, oracle)
            _assert_same_state(kernel, ref)
            last = int(arrivals[-1])

    @pytest.mark.parametrize("timing", [offpkg_dram_timing(), onpkg_dram_timing()])
    def test_loaded_stream_matches_oracle(self, timing):
        # a long stream, heavy enough to queue, in three chunks
        rng = np.random.default_rng(7)
        addr = rng.integers(0, (1 << 27) // 64, 30000) * 64
        arrivals = np.cumsum(rng.integers(0, 12, 30000))
        geo = DramGeometry(timing)
        kernel, oracle = FastDevice(geo), ReferenceFastDevice(geo)
        for lo, hi in ((0, 10000), (10000, 25000), (25000, 30000)):
            np.testing.assert_array_equal(
                kernel.service(addr[lo:hi], arrivals[lo:hi]),
                oracle.service(addr[lo:hi], arrivals[lo:hi]),
            )
        _assert_same_state(kernel, oracle)

    def test_rejects_bad_segments(self):
        geo = DramGeometry(offpkg_dram_timing())
        device = FastDevice(geo)
        addr, arrivals = np.zeros(4, dtype=np.int64), np.arange(4, dtype=np.int64)
        for seg_starts in ([0, 3, 2], [0, 5]):
            with pytest.raises(SimulationError, match="seg_starts"):
                device.service_segmented(addr, arrivals, np.array(seg_starts))
        with pytest.raises(SimulationError, match="begin with 0"):
            device.service_segmented(addr, arrivals, np.array([1, 2]))
        assert device.row_hits + device.row_conflicts == 0
