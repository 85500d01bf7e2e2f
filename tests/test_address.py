"""Unit and property tests for repro.address."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.address import AddressMap, PHYSICAL_ADDRESS_BITS
from repro.errors import AddressError, ConfigError
from repro.units import GB, KB, MB


class TestAddressMapGeometry:
    def test_paper_geometry(self):
        """The Fig 6 example: 4 MB pages -> 22 offset bits, 26-bit page ids;
        1 GB on-package -> N = 256."""
        amap = AddressMap(8 * GB, 1 * GB, 4 * MB)
        assert amap.offset_bits == 22
        assert amap.page_bits == PHYSICAL_ADDRESS_BITS - 22 == 26
        assert amap.n_onpkg_pages == 256

    def test_table3_geometry(self):
        amap = AddressMap(4 * GB, 512 * MB, 4 * KB)
        assert amap.n_onpkg_pages == 512 * MB // (4 * KB)
        assert amap.n_total_pages == 4 * GB // (4 * KB)
        assert amap.subblocks_per_page == 1

    def test_ghost_is_last_page(self, tiny_amap):
        assert tiny_amap.ghost_page == tiny_amap.n_total_pages - 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(total_bytes=3 * MB, onpkg_bytes=1 * MB, macro_page_bytes=4 * KB),
            dict(total_bytes=4 * MB, onpkg_bytes=4 * MB, macro_page_bytes=4 * KB),
            dict(total_bytes=16 * MB, onpkg_bytes=1 * MB, macro_page_bytes=2 * MB),
            dict(total_bytes=16 * MB, onpkg_bytes=4 * MB, macro_page_bytes=4 * KB,
                 subblock_bytes=8 * KB),
        ],
    )
    def test_invalid_geometries_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AddressMap(**kwargs)


class TestDecomposition:
    def test_page_and_offset(self, tiny_amap):
        addr = 5 * tiny_amap.macro_page_bytes + 12345
        assert tiny_amap.page_of(addr) == 5
        assert tiny_amap.offset_of(addr) == 12345

    def test_vectorised(self, tiny_amap):
        addr = np.array([0, 1 * MB, 1 * MB + 7, 15 * MB + 42])
        np.testing.assert_array_equal(tiny_amap.page_of(addr), [0, 1, 1, 15])
        np.testing.assert_array_equal(tiny_amap.offset_of(addr), [0, 0, 7, 42])

    def test_compose_validates(self, tiny_amap):
        with pytest.raises(AddressError):
            tiny_amap.compose(0, tiny_amap.macro_page_bytes)
        with pytest.raises(AddressError):
            tiny_amap.compose(-1, 0)

    def test_subblock_of(self, tiny_amap):
        assert tiny_amap.subblock_of(4 * KB) == 1
        assert tiny_amap.subblock_of(1 * MB - 1) == tiny_amap.subblocks_per_page - 1

    def test_check_addresses(self, tiny_amap):
        tiny_amap.check_addresses(np.array([0, 16 * MB - 1]))
        with pytest.raises(AddressError):
            tiny_amap.check_addresses(np.array([16 * MB]))
        with pytest.raises(AddressError):
            tiny_amap.check_addresses(np.array([-1]))

    @given(
        page=st.integers(min_value=0, max_value=(1 << 26) - 1),
        offset=st.integers(min_value=0, max_value=4 * MB - 1),
    )
    def test_compose_decompose_roundtrip(self, page, offset):
        amap = AddressMap(8 * GB, 1 * GB, 4 * MB)
        addr = amap.compose(page, offset)
        assert amap.page_of(addr) == page
        assert amap.offset_of(addr) == offset


class TestRegionDecode:
    def test_msb_decode(self, tiny_amap):
        machine = np.arange(tiny_amap.n_total_pages)
        on = tiny_amap.is_onpkg_machine_page(machine)
        assert on[: tiny_amap.n_onpkg_pages].all()
        assert not on[tiny_amap.n_onpkg_pages :].any()
