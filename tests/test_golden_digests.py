"""The benchmark suite's golden digests, pinned a second time under
``tests/``.

``benchmarks/suite/run.py`` checks every full-length run against the
digest ``benchmarks/suite/golden.json`` pins for its seed.
``tests/golden_digests.json`` holds the same digests, so that a change
to simulated numbers can re-pin them next to its tests. This is a file
comparison: no simulation runs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"
PINNED = json.loads(Path(__file__).with_name("golden_digests.json").read_text())


@pytest.fixture(scope="module")
def suite():
    """``benchmarks/suite/run.py``, imported as the suite imports it."""
    sys.path.insert(0, str(SUITE))
    try:
        import run
    finally:
        sys.path.remove(str(SUITE))
    return run


def test_every_golden_digest_is_pinned_here(suite):
    assert sorted(PINNED) == sorted(str(seed) for seed in suite.GOLDEN_SEEDS)
    for seed in suite.GOLDEN_SEEDS:
        assert sorted(PINNED[str(seed)]) == sorted(suite.WORKLOADS)
        for workload in suite.WORKLOADS:
            pinned = PINNED[str(seed)][workload]
            assert suite.golden_digest(workload, seed, 1.0) == pinned, (workload, seed)
