"""Streaming trace→epoch fusion: chunk protocol and equivalence.

The contract (docs/API.md "Streaming traces"):

* chunk iterators deliver epoch-aligned views — peak memory is
  O(chunk), never O(trace);
* the *address stream* of ``SyntheticWorkload.stream`` is bit-identical
  to ``generate`` (same RNG walk); stamping uses per-part derived RNGs,
  so the stream is chunk-size invariant: any two chunkings of the same
  stream concatenate to the same records;
* ``stream`` builds phase parts ahead on one producer thread that
  starts at the first ``next()``: after each part taken it is handed the
  next parts until those not yet taken hold at least the run's largest
  part. Ending, closing or collecting the stream cancels the queued
  builds and joins the thread; a build error surfaces at the consumer's
  ``next()`` for that part;
* feeding an epoch-aligned stream through ``run_stream`` is
  bit-identical to materializing the same stream and calling ``run``;
* ``run`` itself feeds epoch-aligned views of about ``RUN_CHUNK``
  accesses to ``run_stream``, bit-identical to feeding the whole trace
  as one chunk and to the per-epoch flush (``fused=False``).
"""

import dataclasses
import gc
import sys
import threading

import numpy as np
import pytest

from repro.config import MigrationConfig, SystemConfig
from repro.core.hetero_memory import HeterogeneousMainMemory
from repro.core.simulator import RUN_CHUNK, SimulationResult
from repro.errors import AddressError, SimulationError, TraceError, WorkloadError
from repro.trace.record import TraceChunk, make_chunk
from repro.trace.stream import (
    aligned_chunk_size,
    iter_chunks,
    materialize,
    rechunk,
)
from repro.units import KB, MB
from repro.workloads.base import PRODUCER_NAME, PatternSpec
from repro.workloads.registry import get_workload

from .generators_reference import reference_stream


def _wl(footprint=8 * MB):
    return get_workload("pgbench", footprint_bytes=footprint)


def _cfg(swap_interval=1_000, algorithm="live"):
    return SystemConfig(
        total_bytes=32 * MB,
        onpkg_bytes=4 * MB,
        migration=MigrationConfig(
            algorithm=algorithm, macro_page_bytes=64 * KB,
            swap_interval=swap_interval,
        ),
    )


class TestAlignedChunkSize:
    def test_rounds_up_to_whole_epochs(self):
        assert aligned_chunk_size(2_500, 1_000) == 3_000
        assert aligned_chunk_size(1_000, 1_000) == 1_000
        assert aligned_chunk_size(1, 1_000) == 1_000

    def test_rejects_nonpositive(self):
        with pytest.raises(TraceError):
            aligned_chunk_size(0, 1_000)
        with pytest.raises(TraceError):
            aligned_chunk_size(1_000, 0)


class TestIterChunks:
    def test_views_not_copies(self):
        trace = _wl().generate(10_000)
        chunks = list(iter_chunks(trace, 3_000))
        assert [len(c) for c in chunks] == [3_000, 3_000, 3_000, 1_000]
        # zero-copy: every chunk aliases the original records buffer
        for c in chunks:
            assert c.records.base is not None
        merged = materialize(iter_chunks(trace, 3_000))
        assert np.array_equal(merged.records, trace.records)

    def test_empty_trace(self):
        assert list(iter_chunks(make_chunk([]), 1_000)) == []


class TestWorkloadStream:
    def test_addresses_bit_identical_to_generate(self):
        wl = _wl()
        full = wl.generate(30_000, seed=3)
        streamed = materialize(wl.stream(30_000, seed=3))
        assert np.array_equal(streamed.addr, full.addr)
        assert len(streamed) == len(full)

    def test_chunk_size_invariance(self):
        wl = _wl()
        natural = materialize(wl.stream(25_000, seed=1))
        small = materialize(wl.stream(25_000, seed=1, chunk_accesses=1_000))
        large = materialize(wl.stream(25_000, seed=1, chunk_accesses=7_000))
        assert np.array_equal(natural.records, small.records)
        assert np.array_equal(natural.records, large.records)

    def test_rechunk_exact_window_sizes(self):
        wl = _wl()
        sizes = [len(c) for c in wl.stream(25_000, chunk_accesses=4_000)]
        assert sizes[:-1] == [4_000] * (len(sizes) - 1)
        assert sum(sizes) == 25_000

    def test_time_is_monotonic_across_chunks(self):
        last = -1
        for chunk in _wl().stream(20_000, chunk_accesses=3_000):
            assert int(chunk.time[0]) >= last
            assert bool((np.diff(chunk.time.astype(np.int64)) >= 0).all())
            last = int(chunk.time[-1])


def _producers() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(PRODUCER_NAME)]


def _assert_joined(threads, baseline):
    # the stream joined its worker before returning control: there is
    # nothing left to wait for
    assert not any(t.is_alive() for t in threads)
    assert _producers() == []
    assert threading.active_count() == baseline


def _budget_ahead(sizes: list[int]) -> list[int]:
    """Parts handed to the producer when part *i* is delivered, by the
    lookahead rule: after taking a part, submit the next parts while the
    ones submitted but not taken hold fewer accesses than the largest."""
    largest = max(sizes)
    submitted, out = 0, []
    for i in range(len(sizes)):
        submitted = max(submitted, i + 1)
        while submitted < len(sizes) and sum(sizes[i + 1:submitted]) < largest:
            submitted += 1
        out.append(submitted)
    return out


class _BuildSpy:
    """Counts the phase parts the producer has started building (one
    ``PatternSpec.generate`` call each)."""

    def __init__(self, monkeypatch, hold: int = 0):
        self.started = 0
        self._cond = threading.Condition()
        #: build number ``hold`` (1-based) waits for it, if ``hold``
        self.release = threading.Event()
        generate = PatternSpec.generate

        def spy(spec, *args, **kwargs):
            with self._cond:
                self.started += 1
                held = self.started == hold
                self._cond.notify_all()
            if held:
                assert self.release.wait(timeout=10)
            return generate(spec, *args, **kwargs)

        monkeypatch.setattr(PatternSpec, "generate", spy)

    def settle(self, want: int) -> int:
        """Wait until ``want`` builds have started, then a moment more for
        one past it; return the count."""
        with self._cond:
            self._cond.wait_for(lambda: self.started >= want, timeout=10)
            self._cond.wait_for(lambda: self.started > want, timeout=0.05)
            return self.started


class TestProducerThread:
    """The thread ``stream`` builds phase parts ahead on."""

    def test_calling_stream_starts_no_thread(self):
        baseline = threading.active_count()
        streams = [_wl().stream(50_000), _wl().stream(50_000, chunk_accesses=1_000)]
        assert threading.active_count() == baseline and _producers() == []
        for s in streams:
            s.close()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize("chunk_accesses", [None, 1_000])
    def test_close_after_first_chunk_joins_the_worker(self, chunk_accesses):
        baseline = threading.active_count()
        s = _wl().stream(2_000_000, chunk_accesses=chunk_accesses)
        next(s)
        workers = _producers()
        assert len(workers) == 1
        s.close()
        _assert_joined(workers, baseline)

    def test_abandoned_stream_is_collected_and_joined(self):
        baseline = threading.active_count()
        s = _wl().stream(2_000_000, chunk_accesses=1_000)
        next(s)
        workers = _producers()
        assert len(workers) == 1
        del s
        gc.collect()
        _assert_joined(workers, baseline)

    @pytest.mark.parametrize("name", ["pgbench", "FT.C"])
    def test_lookahead_follows_the_part_budget(self, name, monkeypatch):
        # pgbench's parts are uneven (txn, stream, zipf), so the producer
        # queues up to a phase cycle; FT.C's are uniform, so it stays
        # exactly one part ahead
        wl = dataclasses.replace(get_workload(name, footprint_bytes=8 * MB),
                                 phase_len=1_000)
        n = 12_000
        sizes = [k for _, k in wl._part_sizes(n)]
        expected = _budget_ahead(sizes)
        if name == "FT.C":
            assert expected == [min(i + 2, len(sizes)) for i in range(len(sizes))]
        else:
            assert expected[0] == 4
        want = list(reference_stream(wl, n, seed=4))
        spy = _BuildSpy(monkeypatch)
        s = wl.stream(n, seed=4)
        got = []
        for i, ahead in enumerate(expected):
            got.append(next(s))
            assert spy.settle(ahead) == ahead, f"builds started at part {i}"
        assert next(s, None) is None
        assert got == want

    def test_close_cancels_the_queued_builds(self, monkeypatch):
        # past its first part a pgbench stream has handed the producer
        # parts 1-3; with part 1 in progress, close() must cancel 2 and 3
        # rather than build them for nobody
        baseline = threading.active_count()
        spy = _BuildSpy(monkeypatch, hold=2)
        s = _wl().stream(2_000_000)
        next(s)
        workers = _producers()
        before = spy.settle(2)
        assert before == 2
        spy.release.set()
        s.close()
        assert spy.started <= before + 1
        _assert_joined(workers, baseline)

    def test_build_error_surfaces_at_the_consumer(self, monkeypatch):
        # parts 1-3 are handed to the producer when part 0 is taken, so
        # each failing part here is built two or more parts ahead of the
        # consumer, which waits for the failure while it holds part 0
        generate = PatternSpec.generate
        wl = dataclasses.replace(_wl(), phase_len=1_000)
        want = list(reference_stream(wl, 10_000, seed=3))
        for failing in (2, 3):
            baseline = threading.active_count()
            calls, failed = [], threading.Event()

            def fail_once(self, *args, failing=failing, calls=calls, failed=failed,
                          **kwargs):
                calls.append(threading.current_thread().name)
                if len(calls) == failing + 1:
                    failed.set()
                    raise WorkloadError(f"injected failure building part {failing}")
                return generate(self, *args, **kwargs)

            monkeypatch.setattr(PatternSpec, "generate", fail_once)
            s = wl.stream(10_000, seed=3)
            delivered = [next(s)]
            workers = _producers()
            assert failed.wait(timeout=10)
            delivered += [next(s) for _ in range(failing - 1)]
            with pytest.raises(WorkloadError, match=f"part {failing}"):
                next(s)
            assert delivered == want[:failing]
            # only the producer thread ever generated addresses
            assert all(name.startswith(PRODUCER_NAME) for name in calls)
            _assert_joined(workers, baseline)

    def test_run_stream_leaves_no_thread(self):
        # CampaignSupervisor forks its workers, and forking a process
        # that has threads is unsafe: the producer must be gone once the
        # simulation returns
        cfg = _cfg()
        baseline = threading.active_count()
        result = HeterogeneousMainMemory(cfg).run_stream(
            _wl().stream(30_000, seed=2, chunk_accesses=3_000)
        )
        assert result.n_accesses == 30_000
        assert threading.active_count() == baseline and _producers() == []

    def test_interleaved_streams_under_fast_switching(self):
        # more producers than cores, each pipelining many small parts,
        # consumed round-robin while the interpreter switches threads
        # every microsecond: each stream must still equal its sequential
        # oracle
        baseline = threading.active_count()
        cases = [
            (dataclasses.replace(get_workload(name, footprint_bytes=8 * MB),
                                 phase_len=2_000), seed, chunk)
            for name, seed, chunk in [
                ("pgbench", 1, None), ("SPECjbb", 2, 1_500),
                ("FT.C", 3, 700), ("indexer", 4, None), ("MG.C", 5, 2_000),
            ]
        ]
        n = 100_000
        got = {i: [] for i in range(len(cases))}
        errors = []

        def consume():
            try:
                live = {i: wl.stream(n, seed, chunk_accesses=chunk)
                        for i, (wl, seed, chunk) in enumerate(cases)}
                while live:
                    for i in list(live):
                        chunk = next(live[i], None)
                        if chunk is None:
                            del live[i]
                        else:
                            got[i].append(chunk)
            except Exception as exc:  # reported by the test thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(target=consume)
            driver.start()
            driver.join(timeout=120)
            assert not driver.is_alive(), "interleaved streams did not finish"
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        for i, (wl, seed, chunk) in enumerate(cases):
            want = materialize(reference_stream(wl, n, seed, chunk_accesses=chunk))
            assert materialize(got[i]) == want, wl.name
        _assert_joined([], baseline)


class TestStreamingSimulation:
    def test_streaming_vs_materialized_bit_identical(self):
        cfg = _cfg()
        n = 40_000
        chunk = aligned_chunk_size(2_500, cfg.migration.swap_interval)
        wl = _wl()
        materialized = materialize(wl.stream(n, seed=2, chunk_accesses=chunk))
        r_mat = HeterogeneousMainMemory(cfg).run(materialized)
        r_stream = HeterogeneousMainMemory(cfg).run_stream(
            wl.stream(n, seed=2, chunk_accesses=chunk)
        )
        assert r_stream.total_latency == r_mat.total_latency
        assert r_stream.epoch_latency == r_mat.epoch_latency
        assert r_stream.swaps_triggered == r_mat.swaps_triggered
        assert r_stream.n_accesses == r_mat.n_accesses == n
        assert r_stream.duration_cycles == r_mat.duration_cycles

    def test_iter_chunks_stream_matches_run(self):
        # epoch-aligned views over a materialized trace reproduce run()
        cfg = _cfg()
        trace = _wl().generate(20_000, seed=5)
        r_run = HeterogeneousMainMemory(cfg).run(trace)
        r_stream = HeterogeneousMainMemory(cfg).run_stream(
            iter_chunks(trace, aligned_chunk_size(3_000,
                                                  cfg.migration.swap_interval))
        )
        assert r_stream.total_latency == r_run.total_latency
        assert r_stream.epoch_latency == r_run.epoch_latency

    @pytest.mark.parametrize("case", [
        "empty", "under-one-epoch", "partial-last-epoch",
        "epoch-above-run-chunk", "track-data", "ras", "N", "N-1",
    ])
    def test_run_path_equivalence(self, case):
        # run(trace) == run_stream([trace]) (the whole trace as one
        # chunk) == fused=False, field for field
        interval = 100_000 if case == "epoch-above-run-chunk" else 1_000
        assert case != "epoch-above-run-chunk" or interval > RUN_CHUNK
        cfg = _cfg(swap_interval=interval,
                   algorithm=case if case in ("N", "N-1") else "live")
        if case in ("empty", "ras"):
            # the RAS report shows whether the summary was filled in
            cfg = cfg.with_ras(enabled=True)
        n = {
            "empty": 0,
            "under-one-epoch": interval // 2 + 1,
            "epoch-above-run-chunk": 2 * interval + 777,
        }.get(case, 2 * RUN_CHUNK + 777)
        trace = _wl().generate(n, seed=4)
        track = case == "track-data"
        if case in ("N", "N-1"):
            # the migration in flight at the first view boundary runs on
            # into the next view, so its stall or copy interference spans
            # the boundary
            size = aligned_chunk_size(RUN_CHUNK, interval)
            probe = HeterogeneousMainMemory(cfg)
            probe.run_into(trace[:size], SimulationResult())
            active = probe.engine.active
            assert active is not None and active.end > int(trace.time[size])

        def system(fused=True):
            return HeterogeneousMainMemory(cfg, fused=fused, track_data=track)

        runs = [
            system().run(trace),
            system().run_stream([trace]),
            system(fused=False).run(trace),
        ]
        epochs = -(-n // interval)
        for r in runs:
            assert r.fused_epochs + r.stepwise_epochs == epochs
        flat = [
            dataclasses.replace(r, fused_epochs=0, stepwise_epochs=0)
            for r in runs
        ]
        assert flat[0] == flat[1] == flat[2]
        r = runs[0]
        assert r.n_accesses == n and len(r.epoch_latency) == epochs
        if case in ("empty", "ras"):
            # filled in even when no epoch ran
            assert r.ras is not None
        if case not in ("empty", "under-one-epoch"):
            assert r.swaps_triggered > 0

    @pytest.mark.parametrize("fault", [
        "time-reversal-at-view-boundary", "time-reversal", "address",
    ])
    def test_rejected_trace_leaves_the_simulator_untouched(self, fault):
        # run checks every view before it simulates the first, so a bad
        # access at an internal view boundary or in the last view raises
        # before any state changes
        cfg = _cfg()
        size = aligned_chunk_size(RUN_CHUNK, cfg.migration.swap_interval)
        trace = _wl().generate(2 * size + 5, seed=6)
        records = trace.records.copy()
        if fault == "address":
            records["addr"][-1] = cfg.total_bytes
        elif fault == "time-reversal":
            records["time"][-1] = records["time"][-2] - 1
        else:
            records["time"][size:] -= (
                records["time"][size] - records["time"][size - 1] + 1
            )
        bad = TraceChunk(records, validate=False)
        error = AddressError if fault == "address" else SimulationError
        system = HeterogeneousMainMemory(cfg)
        with pytest.raises(error):
            system.run(bad)
        assert system.run(trace) == HeterogeneousMainMemory(cfg).run(trace)
        with pytest.raises(error):
            HeterogeneousMainMemory(cfg).run_stream([bad])

    def test_rechunk_roundtrip_over_uneven_parts(self):
        trace = _wl().generate(13_337, seed=7)
        parts = iter_chunks(trace, 997)  # deliberately epoch-misaligned
        merged = materialize(rechunk(parts, 4_000))
        assert np.array_equal(merged.records, trace.records)
