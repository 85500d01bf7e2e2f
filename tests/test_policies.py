"""Tests for hot/cold tracking: exact structures vs the epoch monitor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MigrationError
from repro.migration.policies import _DENSE_FOLD_PAGES, EpochMonitor, ExactPolicies


class TestExactPolicies:
    def test_observe_exactly_one_side(self):
        p = ExactPolicies(4)
        with pytest.raises(MigrationError):
            p.observe(slot=None, offpkg_page=None)
        with pytest.raises(MigrationError):
            p.observe(slot=1, offpkg_page=2)

    def test_coldest_and_hottest(self):
        p = ExactPolicies(4)
        for slot in (0, 1, 3):
            p.observe(slot=slot, offpkg_page=None)
        assert p.coldest_slot() == 2
        for _ in range(3):
            p.observe(slot=None, offpkg_page=77)
        p.observe(slot=None, offpkg_page=5)
        assert p.hottest_page() == 77

    def test_forget(self):
        p = ExactPolicies(4)
        p.observe(slot=None, offpkg_page=9)
        p.forget_page(9)
        assert p.hottest_page() is None

    def test_state_bits_match_paper(self):
        """256 slots: 256-bit clock map + 780-bit multi-queue."""
        assert ExactPolicies(256).state_bits == 256 + 780


class TestEpochMonitor:
    def test_coldest_prefers_untouched(self):
        m = EpochMonitor(4)
        m.observe_epoch(
            slots=np.array([0, 1, 3]),
            slot_times=np.array([10, 20, 30]),
            offpkg_pages=np.array([]),
            off_times=np.array([]),
        )
        assert m.coldest_slot() == 2

    def test_coldest_is_oldest_touch(self):
        m = EpochMonitor(3)
        m.observe_epoch(
            slots=np.array([0, 1, 2]),
            slot_times=np.array([30, 10, 20]),
            offpkg_pages=np.array([]),
            off_times=np.array([]),
        )
        assert m.coldest_slot() == 1

    def test_coldest_exclude(self):
        m = EpochMonitor(3)
        m.observe_epoch(
            slots=np.array([2]), slot_times=np.array([5]),
            offpkg_pages=np.array([]), off_times=np.array([]),
        )
        assert m.coldest_slot(exclude={0}) == 1
        with pytest.raises(MigrationError):
            m.coldest_slot(exclude={0, 1, 2})

    def test_hottest_by_count_then_recency(self):
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([]), slot_times=np.array([]),
            offpkg_pages=np.array([7, 7, 9, 9, 5]),
            off_times=np.array([1, 2, 3, 4, 5]),
        )
        page, count = m.hottest_page()
        assert count == 2
        assert page == 9  # ties broken by recency (9 touched later than 7)

    @pytest.mark.parametrize("base", [0, 1 << 17], ids=["dense", "sorting"])
    def test_fold_keeps_last_touched_subblock(self, base):
        """Both fold paths (bincount for small page ids, np.unique past
        the dense span) keep each page's last-touched sub-block."""
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([]), slot_times=np.array([]),
            offpkg_pages=base + np.array([7, 9, 7, 9, 5]),
            off_times=np.array([1, 2, 3, 4, 5]),
            off_subblocks=np.array([1, 2, 3, 4, 5]),
        )
        assert m.hottest_page() == (base + 9, 2)
        assert [m.last_subblock(base + p) for p in (5, 7, 8, 9)] == [5, 3, 0, 4]
        m.new_epoch()
        assert m.last_subblock(base + 9) == 0

    def test_hottest_none_without_offpkg_traffic(self):
        m = EpochMonitor(2)
        assert m.hottest_page() is None

    def test_new_epoch_clears_counts_keeps_recency(self):
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([1]), slot_times=np.array([100]),
            offpkg_pages=np.array([3]), off_times=np.array([100]),
        )
        m.new_epoch()
        assert m.hottest_page() is None
        assert m.coldest_slot() == 0  # slot 1's last touch survives epochs

    def test_slot_epoch_count(self):
        m = EpochMonitor(2)
        m.observe_epoch(
            slots=np.array([1, 1, 0]), slot_times=np.array([1, 2, 3]),
            offpkg_pages=np.array([]), off_times=np.array([]),
        )
        assert m.slot_epoch_count(1) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 1)), min_size=1, max_size=60))
    def test_monitor_agrees_with_exact_on_coldest(self, events):
        """Feeding the same slot-touch stream, the epoch monitor's coldest
        slot must be one the exact clock pseudo-LRU would also consider
        cold (its reference bit is clear, or it was never touched since
        the clock's last sweep)."""
        n_slots = 8
        exact = ExactPolicies(n_slots)
        monitor = EpochMonitor(n_slots)
        slots = [s for s, _ in events]
        times = list(range(len(slots)))
        for s in slots:
            exact.observe(slot=s, offpkg_page=None)
        monitor.observe_epoch(
            slots=np.array(slots), slot_times=np.array(times),
            offpkg_pages=np.array([]), off_times=np.array([]),
        )
        cold = monitor.coldest_slot()
        # the monitor's choice was touched no more recently than any
        # untouched slot; exact clock victim is untouched-biased too
        untouched = set(range(n_slots)) - set(slots)
        if untouched:
            assert cold in untouched

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                # a narrow time range forces ties; -1 is "never touched"
                st.lists(st.integers(-1, 4), min_size=n, max_size=n),
                st.sets(st.integers(0, n - 1)),
            )
        )
    )
    def test_coldest_matches_lexsort_reference(self, case):
        """``coldest_slot`` picks the first non-excluded slot in
        ``(last_touch, slot)`` order, and raises once all are excluded."""
        last_touch, exclude = case
        n_slots = len(last_touch)
        m = EpochMonitor(n_slots)
        m.slot_last_touch[:] = last_touch
        order = np.lexsort((np.arange(n_slots), m.slot_last_touch))
        allowed = [int(s) for s in order if int(s) not in exclude]
        if not allowed:
            with pytest.raises(MigrationError):
                m.coldest_slot(exclude=exclude)
        else:
            assert m.coldest_slot(exclude=exclude) == allowed[0]
        assert m.coldest_slot() == int(order[0])
        # the monitor's recency state is read, never written
        np.testing.assert_array_equal(m.slot_last_touch, last_touch)


@st.composite
def epoch_folds(draw):
    """One epoch's off-package pages (some span, few or many accesses,
    repeats likely), non-decreasing times with ties, and sub-blocks."""
    span = draw(st.sampled_from([1, 7, 300, 5_000, _DENSE_FOLD_PAGES]))
    n = draw(st.integers(1, 400))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pages = rng.integers(0, span, n) if draw(st.booleans()) else (
        rng.zipf(1.5, n) % span
    )
    times = np.cumsum(rng.integers(0, 3, n))
    return pages.astype(np.int64), times.astype(np.int64), rng.integers(0, 64, n)


class TestEpochFold:
    """The monitor folds an epoch densely (small page spans, ordered
    times) or by sorting; the two branches must agree exactly."""

    @settings(max_examples=300, deadline=None)
    @given(fold=epoch_folds())
    def test_dense_and_sorted_folds_agree(self, fold):
        off, times, subblocks = fold
        dense = EpochMonitor(4)
        dense.observe_epoch([], [], off, times, subblocks)
        ordered = EpochMonitor(4)
        with pytest.MonkeyPatch.context() as mp:  # no span is dense
            mp.setattr("repro.migration.policies._DENSE_FOLD_PAGES", 0)
            ordered.observe_epoch([], [], off, times, subblocks)
        assert ordered._fold_scratch is None and dense._fold_scratch is not None
        for name in ("_off_pages", "_off_counts", "_off_last", "_off_subblocks"):
            np.testing.assert_array_equal(getattr(dense, name), getattr(ordered, name))
        assert dense.hottest_page() == ordered.hottest_page()
