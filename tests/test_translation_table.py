"""Tests for the bidirectional translation table (Figs 6/7/9)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.address import AddressMap
from repro.errors import TranslationTableError
from repro.migration.table import EMPTY, PageCategory, TranslationTable
from repro.units import KB, MB


def make_table(n_slots=4, reserve=True):
    amap = AddressMap(
        total_bytes=n_slots * 4 * MB,
        onpkg_bytes=n_slots * MB,
        macro_page_bytes=1 * MB,
        subblock_bytes=4 * KB,
    )
    return TranslationTable(amap, reserve_empty_slot=reserve)


class TestInitialState:
    def test_identity_mapping(self):
        t = make_table(reserve=False)
        for page in range(t.n_slots):
            assert t.resolve(page) == (True, page)
            assert t.category(page) is PageCategory.ORIGINAL_FAST
        assert t.empty_slot() is None

    def test_n_minus_1_reserves_last_slot(self):
        t = make_table(reserve=True)
        assert t.empty_slot() == t.n_slots - 1
        ghost = t.n_slots - 1
        assert t.category(ghost) is PageCategory.GHOST
        assert t.resolve(ghost) == (False, t.amap.ghost_page)

    def test_offpkg_pages_identity(self):
        t = make_table()
        page = t.n_slots + 3
        assert t.resolve(page) == (False, page)
        assert t.category(page) is PageCategory.ORIGINAL_SLOW


class TestPairingSemantics:
    def test_pair_creates_mf_and_ms(self):
        t = make_table(reserve=False)
        hot = t.n_slots + 5
        t.set_pair(1, hot)
        assert t.category(hot) is PageCategory.MIGRATED_FAST
        assert t.resolve(hot) == (True, 1)
        # page 1's data implicitly lives at the hot page's machine slot
        assert t.category(1) is PageCategory.MIGRATED_SLOW
        assert t.resolve(1) == (False, hot)

    def test_cam_uniqueness_enforced(self):
        t = make_table(reserve=False)
        hot = t.n_slots + 5
        t.set_pair(1, hot)
        with pytest.raises(TranslationTableError):
            t.set_pair(2, hot)

    def test_pending_bit_routes_to_ghost(self):
        t = make_table(reserve=False)
        t.set_pending(1, True)
        assert t.resolve(1) == (False, t.amap.ghost_page)
        assert t.category(1) is PageCategory.GHOST
        t.set_pending(1, False)
        assert t.resolve(1) == (True, 1)

    def test_pending_does_not_block_cam(self):
        """P bypasses the RAM direction only (Section III-A)."""
        t = make_table()
        e = t.empty_slot()
        hot = t.n_slots + 2
        t.set_pair(e, hot)
        t.set_pending(e, True)
        assert t.resolve(hot) == (True, e)          # CAM still works
        assert t.resolve(e) == (False, t.amap.ghost_page)  # RAM bypassed

    def test_set_empty_clears_bits(self):
        t = make_table(reserve=False)
        t.set_pending(2, True)
        t.set_empty(2)
        assert not t.p_bit[2]
        assert t.category(2) is PageCategory.GHOST
        assert t.empty_slot() == 2

    def test_resident_pages(self):
        t = make_table()
        resident = t.resident_pages()
        assert len(resident) == t.n_slots - 1

    def test_bad_indices_rejected(self):
        t = make_table()
        with pytest.raises(TranslationTableError):
            t.set_pair(99, 0)
        with pytest.raises(TranslationTableError):
            t.set_pair(0, 10**9)
        with pytest.raises(TranslationTableError):
            t.resolve(-1)
        with pytest.raises(TranslationTableError):
            t.category(10**9)


class TestFill:
    def test_fill_routes_per_subblock(self):
        t = make_table()
        e = t.empty_slot()
        hot = t.n_slots + 1
        t.set_pair(e, hot)
        t.set_pending(e, True)
        t.begin_fill(e, source_machine_page=hot)
        assert t.filling
        # nothing landed: resolve off-package to the old copy
        assert t.resolve(hot, subblock=0) == (False, hot)
        t.fill_subblock(3)
        assert t.resolve(hot, subblock=3) == (True, e)
        assert t.resolve(hot, subblock=4) == (False, hot)
        # vectorised resolution stays conservative during the fill
        on, machine = t.resolve_many(np.array([hot]))
        assert not on[0] and machine[0] == hot

    def test_fill_completes_when_bitmap_full(self):
        t = make_table()
        e = t.empty_slot()
        hot = t.n_slots + 1
        t.set_pair(e, hot)
        t.begin_fill(e, hot)
        for sb in range(t.amap.subblocks_per_page):
            t.fill_subblock(sb)
        assert not t.filling
        assert t.resolve(hot) == (True, e)

    def test_end_fill_early(self):
        t = make_table()
        e = t.empty_slot()
        hot = t.n_slots + 1
        t.set_pair(e, hot)
        t.begin_fill(e, hot)
        t.end_fill()
        assert not t.filling
        assert t.resolve(hot) == (True, e)

    def test_single_fill_at_a_time(self):
        t = make_table(n_slots=8)
        t.set_pair(0, t.n_slots + 1)
        t.begin_fill(0, t.n_slots + 1)
        with pytest.raises(TranslationTableError):
            t.begin_fill(1, t.n_slots + 2)

    def test_fill_needs_mapped_page(self):
        t = make_table()
        with pytest.raises(TranslationTableError):
            t.begin_fill(t.empty_slot(), 0)

    def test_fill_without_begin_rejected(self):
        t = make_table()
        with pytest.raises(TranslationTableError):
            t.fill_subblock(0)

    def test_end_fill_clears_bitmap_residue(self):
        # regression (found by the protocol model checker): a fill driven
        # to completion through fill_subblock left the bitmap all-ones,
        # which the next between-epoch audit rejects as stray state
        t = make_table()
        e = t.empty_slot()
        hot = t.n_slots + 1
        t.set_pair(e, hot)
        t.begin_fill(e, hot)
        for sb in range(t.amap.subblocks_per_page):
            t.fill_subblock(sb)
        assert not t.filling
        assert not bool(t.fill_bitmap.any())
        t.audit()


class TestInvariants:
    def test_fresh_table_passes(self):
        make_table().check_invariants()
        make_table(reserve=False).check_invariants()

    def test_detects_cam_duplicate(self):
        t = make_table(reserve=False)
        t.pair[0] = 99  # corrupt behind the API
        t.pair[1] = 99
        with pytest.raises(TranslationTableError):
            t.check_invariants()

    @pytest.mark.parametrize(
        "page, on, machine", [(3, True, 55), (200, False, 7)],
        ids=["migrated-low-page", "unmapped-high-page"],
    )
    def test_detects_stale_mirror_entry(self, page, on, machine):
        # neither page sits in a slot, and resolve() reads the mirrors
        # themselves: only a rebuild from the table proper sees the lie
        t = make_table(n_slots=64)
        t.set_pair(3, 100)
        t.check_invariants()
        t.onpkg[page], t.machine_of[page] = on, machine
        for check in (t.check_invariants, t.audit):
            with pytest.raises(TranslationTableError, match="dense mirror"):
                check()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 40)), max_size=20))
    def test_random_mutations_keep_resolvability(self, ops):
        """However the table is driven through its public API, every page
        must always resolve to exactly one machine location."""
        t = make_table(n_slots=8)
        for slot, page in ops:
            try:
                t.set_pair(slot, page % t.amap.n_total_pages)
            except TranslationTableError:
                continue
        t.check_invariants()
        machines = set()
        for page in range(t.amap.n_total_pages):
            on, machine = t.resolve(page)
            key = ("on", machine) if on else ("off", machine)
            assert key not in machines or machine == t.amap.ghost_page
            machines.add(key)
