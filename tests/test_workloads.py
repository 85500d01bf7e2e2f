"""Tests for the workload substrate: generators, models, registry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.trace.stats import access_skew, compute_stats
from repro.units import MB
from repro.workloads import generators as g
from repro.workloads.base import (
    PatternSpec,
    PhaseSpec,
    SyntheticWorkload,
    rotate_permutation,
)
from repro.workloads.npb import NPB_FOOTPRINTS_MB, npb_workload
from repro.workloads.registry import available_workloads, generate_trace, get_workload
from repro.workloads.server import pgbench_workload
from repro.workloads.spec import spec2006_mixture, spec_workload

RNG = lambda seed=0: np.random.default_rng(seed)
FOOTPRINT = 8 * MB


class TestGenerators:
    def test_addresses_in_footprint(self):
        for fn in (
            lambda: g.zipf_hot(1000, FOOTPRINT, RNG()),
            lambda: g.sequential_stream(1000, FOOTPRINT, RNG()),
            lambda: g.uniform_random(1000, FOOTPRINT, RNG()),
            lambda: g.pointer_chase(1000, FOOTPRINT, RNG()),
            lambda: g.gaussian_cluster(1000, FOOTPRINT, RNG(), center_block=10, sigma_blocks=3.0),
            lambda: g.transactional(1000, FOOTPRINT, RNG()),
            lambda: g.stream_with_hot(
                1000, FOOTPRINT, RNG(), permutation=g.make_hot_permutation(FOOTPRINT, RNG())
            ),
        ):
            addr = fn()
            assert addr.shape == (1000,)
            assert addr.min() >= 0 and addr.max() < FOOTPRINT
            assert (addr % 64 == 0).all()

    def test_zipf_skew_grows_with_alpha(self):
        perm = g.make_hot_permutation(FOOTPRINT, RNG())
        from repro.trace.record import make_chunk

        flat = make_chunk(g.zipf_hot(20000, FOOTPRINT, RNG(1), alpha=1.05, permutation=perm))
        steep = make_chunk(g.zipf_hot(20000, FOOTPRINT, RNG(1), alpha=2.0, permutation=perm))
        assert access_skew(steep, 4096) > access_skew(flat, 4096)

    def test_zipf_spread_limits_block_hotspots(self):
        perm = g.make_hot_permutation(FOOTPRINT, RNG())
        tight = g.zipf_hot(20000, FOOTPRINT, RNG(1), alpha=1.8, permutation=perm)
        spread = g.zipf_hot(
            20000, FOOTPRINT, RNG(1), alpha=1.8, permutation=perm, spread_blocks=64
        )
        def max_block_share(addr):
            _, c = np.unique(addr // 4096, return_counts=True)
            return c.max() / addr.shape[0]
        assert max_block_share(spread) < max_block_share(tight)

    def test_zipf_rejects_bad_alpha(self):
        with pytest.raises(WorkloadError):
            g.zipf_hot(10, FOOTPRINT, RNG(), alpha=1.0)

    def test_stream_is_sequential(self):
        addr = g.sequential_stream(100, FOOTPRINT, RNG(), start_block=0)
        blocks = addr // 4096
        assert (np.diff(blocks) == 1).all()

    def test_stream_wraps(self):
        n_blocks = FOOTPRINT // 4096
        addr = g.sequential_stream(n_blocks + 10, FOOTPRINT, RNG(), start_block=0)
        assert (addr[n_blocks:] // 4096 == np.arange(10)).all()

    def test_stream_rejects_zero_stride(self):
        with pytest.raises(WorkloadError):
            g.sequential_stream(10, FOOTPRINT, RNG(), stride_blocks=0)

    def test_cluster_is_clustered(self):
        addr = g.gaussian_cluster(5000, FOOTPRINT, RNG(), center_block=100, sigma_blocks=5.0)
        blocks = addr // 4096
        assert np.abs(np.median(blocks) - 100) < 20

    def test_clustered_permutation_keeps_rank_neighbours_adjacent(self):
        perm = g.make_hot_permutation(FOOTPRINT, RNG(), cluster_blocks=64)
        # within a cluster of ranks, blocks are contiguous
        assert (np.diff(perm[:64]) == 1).all()
        assert perm.shape[0] == FOOTPRINT // 4096
        assert sorted(perm.tolist()) == list(range(FOOTPRINT // 4096))

    def test_transactional_rotation_changes_hot_partitions(self):
        a = g.transactional(5000, FOOTPRINT, RNG(1), rotate_partitions=True)
        b = g.transactional(5000, FOOTPRINT, RNG(2), rotate_partitions=True)
        ua, ca = np.unique(a // (FOOTPRINT // 16), return_counts=True)
        ub, cb = np.unique(b // (FOOTPRINT // 16), return_counts=True)
        assert ua[np.argmax(ca)] != ub[np.argmax(cb)] or ca.max() != cb.max()

    def test_mix_weights_validated(self):
        with pytest.raises(WorkloadError):
            g.mix(10, RNG(), [])
        with pytest.raises(WorkloadError):
            g.mix(10, RNG(), [(-1.0, np.zeros(10, dtype=np.int64))])

    def test_mix_interleaves(self):
        a = np.zeros(100, dtype=np.int64)
        b = np.full(100, 64, dtype=np.int64)
        out = g.mix(100, RNG(), [(1.0, a), (1.0, b)])
        assert 20 < (out == 0).sum() < 80


class TestRotatePermutation:
    def test_zero_fraction_is_identity(self):
        perm = np.arange(100)
        assert rotate_permutation(perm, 0.0, RNG()) is perm

    @given(st.floats(min_value=0.01, max_value=1.0), st.integers(0, 100))
    @settings(max_examples=25)
    def test_stays_a_permutation(self, fraction, seed):
        perm = RNG(seed).permutation(64)
        out = rotate_permutation(perm, fraction, RNG(seed + 1))
        assert sorted(out.tolist()) == list(range(64))


class TestSyntheticWorkload:
    def test_reproducible_by_seed(self):
        wl = pgbench_workload(footprint_bytes=FOOTPRINT)
        a = wl.generate(2000, seed=42)
        b = wl.generate(2000, seed=42)
        assert a == b

    def test_different_seeds_differ(self):
        wl = pgbench_workload(footprint_bytes=FOOTPRINT)
        assert wl.generate(2000, seed=1) != wl.generate(2000, seed=2)

    def test_trace_is_valid(self):
        wl = npb_workload("FT.C", footprint_bytes=FOOTPRINT)
        chunk = wl.generate(3000, seed=0)
        chunk.validate()
        assert len(chunk) == 3000
        assert chunk.addr.max() < FOOTPRINT

    def test_write_fraction_approximate(self):
        wl = npb_workload("IS.C", footprint_bytes=FOOTPRINT)  # 50% writes
        s = compute_stats(wl.generate(20000, seed=0))
        assert 0.45 < s.write_fraction < 0.55

    def test_mean_gap_matches_cycles_per_access(self):
        wl = pgbench_workload(footprint_bytes=FOOTPRINT)
        chunk = wl.generate(50000, seed=0)
        mean_gap = float(np.diff(chunk.time).mean())
        assert 0.7 * wl.cycles_per_access < mean_gap < 1.3 * wl.cycles_per_access

    def test_cpu_ids_within_range(self):
        wl = npb_workload("MG.C", footprint_bytes=FOOTPRINT)
        chunk = wl.generate(1000, seed=0)
        assert chunk.cpu.min() >= 0 and chunk.cpu.max() < wl.n_cpus

    def test_needs_a_phase(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload("x", FOOTPRINT, phases=())

    def test_burst_model_validation(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(
                "x",
                FOOTPRINT,
                phases=(PhaseSpec(PatternSpec("random")),),
                cycles_per_access=2.0,
                burst_fraction=0.9,
                burst_gap=3.0,
            )

    def test_zero_accesses(self):
        wl = npb_workload("EP.C", footprint_bytes=FOOTPRINT)
        assert len(wl.generate(0)) == 0


class TestRegistry:
    def test_table1_footprints_verbatim(self):
        assert NPB_FOOTPRINTS_MB["FT.C"] == 5147
        assert NPB_FOOTPRINTS_MB["DC.B"] == 5876
        assert NPB_FOOTPRINTS_MB["MG.C"] == 3426
        under_1gb = sum(1 for mb in NPB_FOOTPRINTS_MB.values() if mb < 1024)
        assert under_1gb == 7  # "7 out of the total 10 workloads"

    def test_all_names_resolvable(self):
        for name in available_workloads():
            chunk = generate_trace(name, 500, seed=0, footprint_bytes=FOOTPRINT)
            assert len(chunk) == 500

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            get_workload("nonsense")

    def test_spec2006_is_mixture_only(self):
        with pytest.raises(WorkloadError):
            get_workload("SPEC2006")

    def test_mixture_has_four_cpus_and_disjoint_regions(self):
        chunk = spec2006_mixture(4000, seed=0, total_footprint_bytes=32 * MB)
        assert set(np.unique(chunk.cpu)) == {0, 1, 2, 3}
        for cpu in range(4):
            mine = chunk.addr[chunk.cpu == cpu]
            others = chunk.addr[chunk.cpu != cpu]
            assert len(np.intersect1d(mine // (1 << 20), others // (1 << 20))) == 0

    def test_spec_program_unknown(self):
        with pytest.raises(WorkloadError):
            spec_workload("rust_compiler")
