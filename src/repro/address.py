"""Physical-address arithmetic: macro pages, sub-blocks, region decode.

The paper assumes a 48-bit physical address. With 4 MB macro pages the
low 22 bits are the in-page offset and the upper 26 bits are the macro
page index (Fig 6). The memory controller decodes the region (on- vs
off-package) from the MSBs of the *machine* address: machine pages
``[0, n_onpkg_pages)`` live on package, the rest on the DIMMs.

Everything here is vectorised: functions accept scalars or numpy arrays
of addresses and return the matching shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AddressError, ConfigError
from .units import is_power_of_two, log2_exact

#: Width of the physical address space assumed by the paper (Fig 6).
PHYSICAL_ADDRESS_BITS = 48


@dataclass(frozen=True)
class AddressMap:
    """Geometry of the heterogeneous memory space.

    Parameters
    ----------
    total_bytes:
        Capacity of the whole main memory (on- plus off-package).
    onpkg_bytes:
        Capacity of the on-package region. Machine pages below
        ``onpkg_bytes / macro_page_bytes`` are on-package.
    macro_page_bytes:
        Migration granularity (4 KB .. 4 MB in the paper).
    subblock_bytes:
        Live-migration transfer unit (4 KB in the paper).
    """

    total_bytes: int
    onpkg_bytes: int
    macro_page_bytes: int
    subblock_bytes: int = 4096

    def __post_init__(self) -> None:
        for name in ("total_bytes", "onpkg_bytes", "macro_page_bytes", "subblock_bytes"):
            v = getattr(self, name)
            if not is_power_of_two(v):
                raise ConfigError(f"{name}={v} must be a power of two")
        if self.onpkg_bytes >= self.total_bytes:
            raise ConfigError(
                "on-package capacity must be smaller than total memory: "
                f"{self.onpkg_bytes} >= {self.total_bytes}"
            )
        if self.macro_page_bytes > self.onpkg_bytes:
            raise ConfigError("macro page cannot exceed on-package capacity")
        if self.subblock_bytes > self.macro_page_bytes:
            raise ConfigError("sub-block cannot exceed the macro page")
        if self.total_bytes > (1 << PHYSICAL_ADDRESS_BITS):
            raise ConfigError("total memory exceeds the 48-bit physical space")

    # -- derived geometry ------------------------------------------------
    @property
    def offset_bits(self) -> int:
        """Bits of in-macro-page offset (22 for 4 MB pages)."""
        return log2_exact(self.macro_page_bytes)

    @property
    def page_bits(self) -> int:
        """Bits of macro page index within the 48-bit space."""
        return PHYSICAL_ADDRESS_BITS - self.offset_bits

    @property
    def n_total_pages(self) -> int:
        """Macro pages covering the whole memory."""
        return self.total_bytes // self.macro_page_bytes

    @property
    def n_onpkg_pages(self) -> int:
        """Macro pages (slots) in the on-package region — the paper's *N*."""
        return self.onpkg_bytes // self.macro_page_bytes

    @property
    def subblocks_per_page(self) -> int:
        return self.macro_page_bytes // self.subblock_bytes

    @property
    def ghost_page(self) -> int:
        """Reserved off-package macro page Ω backing the empty slot.

        The paper reserves the highest macro page of the space (e.g.
        0x800 in an 8 GB space with 4 MB pages).
        """
        return self.n_total_pages - 1

    # -- vectorised address decomposition ---------------------------------
    def page_of(self, addr):
        """Macro page index of physical address(es)."""
        return np.asarray(addr, dtype=np.int64) >> self.offset_bits

    def offset_of(self, addr):
        """In-page offset of physical address(es)."""
        return np.asarray(addr, dtype=np.int64) & (self.macro_page_bytes - 1)

    def compose(self, page, offset=0):
        """Rebuild address(es) from macro page index and offset."""
        page = np.asarray(page, dtype=np.int64)
        offset = np.asarray(offset, dtype=np.int64)
        if np.any(page < 0) or np.any(page >= (1 << self.page_bits)):
            raise AddressError("macro page index out of the 48-bit space")
        if np.any(offset < 0) or np.any(offset >= self.macro_page_bytes):
            raise AddressError("offset outside the macro page")
        return (page << self.offset_bits) | offset

    def local_address(self, machine_page, offset, onpkg: bool):
        """Address within a region: on-package machine pages are slots
        (0-based already); off-package ones rebase to 0 at the DIMMs.

        Unchecked arrays in, a fresh array out — the controller's flush
        path composes every access here; :meth:`compose` is the checked
        form.
        """
        page = np.asarray(machine_page, dtype=np.int64)
        if onpkg:
            addr = np.left_shift(page, self.offset_bits)
        else:
            addr = np.subtract(page, self.n_onpkg_pages)
            np.left_shift(addr, self.offset_bits, out=addr)
        np.bitwise_or(addr, offset, out=addr)
        return addr

    def subblock_of(self, addr):
        """Sub-block index *within its macro page* of address(es)."""
        return self.offset_of(addr) >> log2_exact(self.subblock_bytes)

    def is_onpkg_machine_page(self, machine_page):
        """Region decode: True where a *machine* page is on-package.

        This is the MSB decode of Section II-A — pages below N map to the
        on-package region.
        """
        return np.asarray(machine_page, dtype=np.int64) < self.n_onpkg_pages

    def check_addresses(self, addr) -> None:
        """Validate that address(es) fall inside the configured memory."""
        a = np.asarray(addr, dtype=np.int64)
        if a.size and (a.min() < 0 or a.max() >= self.total_bytes):
            raise AddressError(
                f"address outside [0, {self.total_bytes}): "
                f"min={a.min() if a.size else None} max={a.max() if a.size else None}"
            )
