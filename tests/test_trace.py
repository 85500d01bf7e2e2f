"""Tests for the trace substrate: records, I/O, stats, filters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.trace.record import READ, TRACE_DTYPE, WRITE, TraceChunk, make_chunk
from repro.trace.io import TraceReader, TraceWriter, read_trace, write_trace
from repro.trace.stats import access_skew, compute_stats, footprint_bytes, page_access_counts
from repro.trace.filters import concat, downsample, interleave, time_window


class TestRecord:
    def test_make_chunk_defaults(self):
        c = make_chunk([0, 64, 128])
        assert len(c) == 3
        np.testing.assert_array_equal(c.time, [0, 1, 2])
        assert (c.rw == READ).all()
        assert (c.cpu == 0).all()

    def test_fields_are_views(self):
        c = make_chunk([0, 64])
        assert c.addr.base is c.records

    def test_slice_is_zero_copy_view(self):
        # the documented aliasing contract: slices share the parent's
        # records buffer; masks/fancy indexing copy
        c = make_chunk([0, 64, 128, 192])
        view = c[1:3]
        assert view.records.base is c.records
        c.records["addr"][1] = 4096
        assert view.addr[0] == 4096

    def test_mask_index_copies(self):
        c = make_chunk([0, 64, 128, 192])
        picked = c[np.array([True, False, True, False])]
        c.records["addr"][0] = 4096
        assert picked.addr[0] == 0

    def test_validation_rejects_negative_addr(self):
        with pytest.raises(TraceError):
            make_chunk([-1])

    def test_validation_rejects_time_regression(self):
        with pytest.raises(TraceError):
            make_chunk([0, 64], time=[5, 4])

    def test_validation_rejects_bad_rw(self):
        rec = np.zeros(1, dtype=TRACE_DTYPE)
        rec["rw"] = 7
        with pytest.raises(TraceError):
            TraceChunk(rec)

    def test_scalar_indexing_rejected(self):
        c = make_chunk([0, 64])
        with pytest.raises(TraceError):
            c[0]

    def test_slicing(self):
        c = make_chunk([0, 64, 128, 192])
        assert len(c[1:3]) == 2
        assert c[::2].addr.tolist() == [0, 128]

    def test_equality_and_copy(self):
        c = make_chunk([0, 64])
        assert c == c.copy()
        assert c != make_chunk([0, 128])

    def test_repr(self):
        assert "TraceChunk" in repr(make_chunk([0]))
        assert "empty" in repr(make_chunk([]))


class TestIO:
    def test_roundtrip(self, tmp_path):
        c = make_chunk([0, 64, 4096], time=[1, 5, 9], cpu=[0, 1, 2], rw=[0, 1, 0])
        path = tmp_path / "t.rptrace"
        write_trace(path, c)
        assert read_trace(path) == c

    def test_chunked_write_and_read(self, tmp_path):
        path = tmp_path / "t.rptrace"
        c1 = make_chunk([0, 64], time=[0, 1])
        c2 = make_chunk([128], time=[2])
        with TraceWriter(path) as w:
            w.write(c1)
            w.write(c2)
        reader = TraceReader(path, chunk_records=2)
        chunks = list(reader)
        assert len(reader) == 3
        assert [len(c) for c in chunks] == [2, 1]
        assert concat(chunks) == concat([c1, c2])

    def test_writer_rejects_time_regression_across_chunks(self, tmp_path):
        path = tmp_path / "t.rptrace"
        with TraceWriter(path) as w:
            w.write(make_chunk([0], time=[10]))
            with pytest.raises(TraceError):
                w.write(make_chunk([0], time=[5]))

    def test_reader_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rptrace"
        path.write_bytes(b"NOTATRACE" + b"\0" * 7)
        with pytest.raises(TraceError):
            TraceReader(path)

    def test_reader_rejects_truncated_body(self, tmp_path):
        path = tmp_path / "t.rptrace"
        write_trace(path, make_chunk([0, 64]))
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(TraceError):
            TraceReader(path)

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.rptrace"
        write_trace(path, make_chunk([]))
        assert len(read_trace(path)) == 0

    @settings(max_examples=20)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 40), max_size=50))
    def test_roundtrip_property(self, tmp_path_factory, addrs):
        path = tmp_path_factory.mktemp("t") / "p.rptrace"
        c = make_chunk(addrs)
        write_trace(path, c)
        assert read_trace(path) == c


class TestStats:
    def test_footprint_counts_unique_pages(self):
        c = make_chunk([0, 64, 4096, 4096 + 64, 8192])
        assert footprint_bytes(c, 4096) == 3 * 4096

    def test_compute_stats(self):
        c = make_chunk([0, 4096], time=[10, 30], rw=[WRITE, READ])
        s = compute_stats(c)
        assert s.n_accesses == 2
        assert s.n_writes == 1
        assert s.write_fraction == 0.5
        assert s.duration_cycles == 20
        assert "accesses" in s.describe()

    def test_empty_stats(self):
        s = compute_stats(make_chunk([]))
        assert s.n_accesses == 0 and s.write_fraction == 0.0

    def test_page_access_counts_sorted(self):
        c = make_chunk([0, 0, 0, 4096])
        pages, counts = page_access_counts(c, 4096)
        assert pages[0] == 0 and counts[0] == 3

    def test_access_skew_uniform_vs_hot(self):
        rng = np.random.default_rng(0)
        uniform = make_chunk(rng.integers(0, 1000, 5000) * 4096)
        hot = make_chunk(
            np.where(rng.random(5000) < 0.9, rng.integers(0, 10, 5000), rng.integers(0, 1000, 5000)) * 4096
        )
        assert access_skew(hot, 4096) > access_skew(uniform, 4096)


class TestFilters:
    def test_time_window(self):
        c = make_chunk([0, 64, 128, 192], time=[0, 10, 20, 30])
        w = time_window(c, 10, 30)
        assert w.time.tolist() == [10, 20]
        with pytest.raises(TraceError):
            time_window(c, 30, 10)

    def test_downsample(self):
        c = make_chunk([0, 64, 128, 192])
        assert len(downsample(c, 2)) == 2
        with pytest.raises(TraceError):
            downsample(c, 0)

    def test_interleave_merges_by_time(self):
        a = make_chunk([0, 64], time=[0, 10])
        b = make_chunk([128], time=[5])
        merged = interleave([a, b], cpu_ids=[0, 1])
        assert merged.time.tolist() == [0, 5, 10]
        assert merged.cpu.tolist() == [0, 1, 0]

    def test_interleave_offsets_separate_footprints(self):
        a = make_chunk([0], time=[0])
        b = make_chunk([0], time=[1])
        merged = interleave([a, b], offsets=[0, 1 << 20])
        assert merged.addr.tolist() == [0, 1 << 20]

    def test_interleave_validates_lengths(self):
        with pytest.raises(TraceError):
            interleave([make_chunk([0])], cpu_ids=[0, 1])

    def test_interleave_empty(self):
        assert len(interleave([])) == 0
