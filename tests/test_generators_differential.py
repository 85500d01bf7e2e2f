"""Differential tests: in-place generation against the allocating reference.

:mod:`repro.workloads.generators` and ``SyntheticWorkload._stamp_part``
work in place, and :meth:`SyntheticWorkload.stream` builds each phase
part on a producer thread. ``tests/generators_reference.py`` keeps the
allocating primitives and stamping they replaced, plus a sequential
stream built from them. For every pattern kind and branch, the in-place
primitive must return the reference's addresses bit for bit *and* leave
the RNG in the same state, which proves it consumed the same draws. The
whole stream must equal the sequential reference for every registered
workload.

``SPEC2006`` is left out of the stream test: it is a mixture of the
``spec.*`` workloads' ``generate`` outputs and has no ``stream``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.trace.stream import materialize
from repro.units import MB
from repro.workloads import generators as g
from repro.workloads.base import PatternSpec
from repro.workloads.registry import available_workloads, get_workload

from . import generators_reference as ref

#: accesses drawn per example: 0 and 1 always in reach, plus a few thousand
LENGTHS = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3_000))
SEEDS = st.integers(0, 2**32 - 1)
ALPHA_ZIPF = st.floats(1.05, 2.5)


@st.composite
def branch_cases(draw, branch: str):
    """(pattern, footprint, with_permutation) for one primitive branch."""
    n_blocks = draw(st.integers(1, 4_096))
    footprint = n_blocks * g.BLOCK + draw(st.integers(0, g.BLOCK - 1))
    start = st.one_of(st.none(), st.integers(0, n_blocks - 1))
    if branch in ("zipf", "zipf-spread"):
        spread = 1 if branch == "zipf" else draw(st.integers(2, max(2, n_blocks)))
        if spread > n_blocks:  # one block cannot be spread
            spread = 1
        params = {"alpha": draw(ALPHA_ZIPF), "spread_blocks": spread}
        return PatternSpec("zipf", params), footprint, draw(st.booleans())
    if branch in ("stream_hot-zipf", "stream_hot-uniform"):
        alpha = draw(ALPHA_ZIPF if branch == "stream_hot-zipf" else st.floats(0.0, 1.0))
        params = {
            "alpha": alpha,
            "hot_weight": draw(st.floats(0.01, 0.99)),
            "hot_fraction": draw(st.floats(0.001, 1.0)),
            "stride_blocks": draw(st.integers(-300, 300)),
            "start_block": draw(start),
        }
        return PatternSpec("stream_hot", params), footprint, True
    if branch in ("txn", "txn-rotate"):
        params = {
            "n_partitions": draw(st.integers(1, min(n_blocks, 128))),
            "partition_alpha": draw(ALPHA_ZIPF),
            "intra_alpha": draw(ALPHA_ZIPF),
            "rotate_partitions": branch == "txn-rotate",
        }
        return PatternSpec("txn", params), footprint, False
    if branch == "stream":
        stride = draw(st.integers(-500, 500).filter(bool))
        params = {"stride_blocks": stride, "start_block": draw(start)}
        return PatternSpec("stream", params), footprint, False
    if branch == "chase":
        params = {"jump_scale_blocks": draw(st.integers(1, 8_192))}
        return PatternSpec("chase", params), footprint, False
    if branch == "cluster":
        params = {
            "center_block": draw(st.integers(0, n_blocks - 1)),
            "sigma_blocks": draw(st.floats(0.5, 4_096.0)),
        }
        return PatternSpec("cluster", params), footprint, False
    assert branch == "random"
    return PatternSpec("random"), footprint, False


BRANCHES = [
    "zipf", "zipf-spread", "stream_hot-zipf", "stream_hot-uniform",
    "txn", "txn-rotate", "stream", "chase", "cluster", "random",
]


@pytest.mark.parametrize("branch", BRANCHES)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=LENGTHS, seed=SEEDS)
def test_primitive_equals_reference(branch, data, n, seed):
    spec, footprint, with_perm = data.draw(branch_cases(branch))
    # PatternSpec.generate always passes the workload's permutation;
    # zipf_hot alone also draws its own when handed none
    perm = g.make_hot_permutation(footprint, np.random.default_rng(seed + 1))
    got_rng = np.random.default_rng(seed)
    want_rng = np.random.default_rng(seed)
    if spec.kind == "zipf" and not with_perm:
        got = g.zipf_hot(n, footprint, got_rng, **spec.params)
        want = ref.zipf_hot(n, footprint, want_rng, **spec.params)
    else:
        got = spec.generate(n, footprint, got_rng, perm)
        want = ref.generate_pattern(spec, n, footprint, want_rng, perm)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    n=LENGTHS,
    base_seed=SEEDS,
    part_index=st.integers(0, 1_000),
    offset=st.integers(0, 10**9),
    t_start=st.integers(0, 10**12),
    name=st.sampled_from(["pgbench", "FT.C", "SPECjbb", "spec.perl"]),
)
def test_stamp_part_equals_reference(n, base_seed, part_index, offset, t_start, name):
    wl = get_workload(name, footprint_bytes=16 * MB)
    addr = np.arange(n, dtype=np.int64) * 64
    got = wl._stamp_part(addr, part_index, offset, t_start, base_seed)
    want = ref._stamp_part(wl, addr, part_index, offset, t_start, base_seed)
    assert got == want


STREAMED = [name for name in available_workloads() if name != "SPEC2006"]


@pytest.mark.parametrize("name", STREAMED)
@pytest.mark.parametrize("chunk_accesses", [None, 3_000])
def test_stream_equals_sequential_reference(name, chunk_accesses):
    wl = get_workload(name, footprint_bytes=16 * MB)
    # inside the first phase part, and an odd length over several parts
    # with the hot set drifting between them
    for n in (wl.phase_len // 3 + 1, 2 * wl.phase_len + 7):
        got = wl.stream(n, seed=5, chunk_accesses=chunk_accesses, start_time=99)
        want = ref.reference_stream(
            wl, n, seed=5, chunk_accesses=chunk_accesses, start_time=99
        )
        got_chunks, want_chunks = list(got), list(want)
        assert [len(c) for c in got_chunks] == [len(c) for c in want_chunks]
        assert materialize(got_chunks) == materialize(want_chunks), f"{name} n={n}"
