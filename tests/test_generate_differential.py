"""Differential test: the blocked ``generate`` against the reference one.

:meth:`repro.workloads.base.SyntheticWorkload.generate` writes each
phase part into one preallocated record array and draws each stamping
stream in blocks of :data:`~repro.workloads.base.STAMP_BLOCK` accesses.
``tests/generate_reference.py`` keeps the whole-trace version it
replaced. Both must return equal :class:`TraceChunk` records for every
registered workload, at lengths around the block and phase boundaries,
for two seeds and a non-zero ``start_time``.

``SPEC2006`` is left out: it is a mixture that interleaves the
``spec.*`` workloads' ``generate`` outputs, and those are all covered.
"""

from __future__ import annotations

import pytest

from repro.units import MB
from repro.workloads.base import STAMP_BLOCK
from repro.workloads.registry import available_workloads, get_workload

from .generate_reference import reference_generate

NAMES = [name for name in available_workloads() if name != "SPEC2006"]


def lengths(phase_len: int) -> list[int]:
    """Empty, one access, around one block, past one phase, and an odd
    length past two phases."""
    B = STAMP_BLOCK
    return [0, 1, B - 1, B, B + 1, phase_len + 1, 2 * phase_len + 1]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("seed,start_time", [(0, 0), (11, 987_654_321)])
def test_generate_matches_reference(name, seed, start_time):
    # a small footprint keeps the hot permutation cheap; it does not
    # change which RNG calls generate makes
    wl = get_workload(name, footprint_bytes=16 * MB)
    for n in lengths(wl.phase_len):
        got = wl.generate(n, seed, start_time=start_time)
        want = reference_generate(wl, n, seed, start_time=start_time)
        assert len(got) == n
        assert got == want, f"{name} n={n} seed={seed}"
