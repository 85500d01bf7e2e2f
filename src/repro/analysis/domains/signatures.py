"""Declarative domain signatures for the core APIs (highest tier).

Each :class:`Signature` records the parameter and return domains of one
callable on the clock or address path. The analysis is intra-procedural
and untyped, so call sites are matched by *callable name* (the
attribute in ``table.slot_of(p)``); only names that are unambiguous
across the codebase are matched that way — ambiguous ones (``access``,
``split``, ``service``…) are registered under their qualname only, and
still seed parameter/return domains when the analyzer walks the
method's own body (matched via the enclosing ``class`` name).

A ``None`` domain means "no claim" — the parameter or return is
domain-neutral (booleans, counts, generic bit-packing helpers).
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Domain

D = Domain


@dataclass(frozen=True)
class Signature:
    """Domain contract of one callable."""

    qualname: str
    #: positional parameter order, ``self`` excluded
    params: tuple[tuple[str, Domain | None], ...] = ()
    #: return domain; a tuple for multi-value returns; None = no claim
    returns: "Domain | tuple[Domain | None, ...] | None" = None
    #: match call sites by bare name (only when the name is unambiguous
    #: across the tree); qualname matching for body analysis always works
    match_calls: bool = True

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def param_domain(self, index: int, keyword: str | None) -> Domain | None:
        if keyword is not None:
            for pname, dom in self.params:
                if pname == keyword:
                    return dom
            return None
        if 0 <= index < len(self.params):
            return self.params[index][1]
        return None


SIGNATURES: tuple[Signature, ...] = (
    # ---- the refresh time warp (repro.dram.refresh) ------------------
    Signature("RefreshSchedule.useful",
              (("t", D.WALL_CYCLES),), D.USEFUL_CYCLES),
    Signature("RefreshSchedule.useful_np",
              (("t", D.WALL_CYCLES),), D.USEFUL_CYCLES),
    Signature("RefreshSchedule.wall",
              (("u", D.USEFUL_CYCLES), ("begin", None)), D.WALL_CYCLES),
    Signature("RefreshSchedule.wall_np",
              (("u", D.USEFUL_CYCLES),), D.WALL_CYCLES),
    Signature("RefreshSchedule.stretch",
              (("start", D.WALL_CYCLES), ("useful_cycles", D.USEFUL_CYCLES)),
              D.WALL_CYCLES),
    # ---- address decomposition (repro.address) -----------------------
    Signature("AddressMap.page_of",
              (("addr", D.BYTE_ADDR),), D.VIRTUAL_PAGE),
    Signature("AddressMap.offset_of",
              (("addr", D.BYTE_ADDR),), D.BYTE_ADDR),
    Signature("AddressMap.subblock_of",
              (("addr", D.BYTE_ADDR),), D.SUBBLOCK_IDX),
    # compose is generic bit packing: it rebuilds *either* a physical or
    # a machine address, so the page parameter carries no claim
    Signature("AddressMap.compose",
              (("page", None), ("offset", D.BYTE_ADDR)), D.BYTE_ADDR),
    Signature("AddressMap.is_onpkg_machine_page",
              (("machine_page", D.MACHINE_FRAME),), None),
    Signature("AddressMap.check_addresses",
              (("addr", D.BYTE_ADDR),), None),
    # region-local addresses are composed from *machine* pages
    Signature("AddressMap.local_address",
              (("machine_page", D.MACHINE_FRAME), ("offset", D.BYTE_ADDR),
               ("onpkg", None)),
              D.BYTE_ADDR),
    # ---- the translation table (repro.migration.table) ---------------
    Signature("TranslationTable.resolve",
              (("page", D.VIRTUAL_PAGE), ("subblock", D.SUBBLOCK_IDX)),
              (None, D.MACHINE_FRAME)),
    Signature("TranslationTable.location",
              (("page", D.VIRTUAL_PAGE), ("subblock", D.SUBBLOCK_IDX)),
              (None, D.MACHINE_FRAME)),
    Signature("TranslationTable.resolve_many",
              (("pages", D.VIRTUAL_PAGE),), (None, D.MACHINE_FRAME)),
    Signature("TranslationTable.slot_of",
              (("page", D.VIRTUAL_PAGE),), D.MACHINE_FRAME),
    Signature("TranslationTable.page_in_slot",
              (("slot", D.MACHINE_FRAME),), D.VIRTUAL_PAGE),
    Signature("TranslationTable.set_pair",
              (("slot", D.MACHINE_FRAME), ("page", D.VIRTUAL_PAGE)), None),
    Signature("TranslationTable.set_empty",
              (("slot", D.MACHINE_FRAME),), None),
    Signature("TranslationTable.set_pending",
              (("slot", D.MACHINE_FRAME), ("value", None)), None),
    Signature("TranslationTable.begin_fill",
              (("slot", D.MACHINE_FRAME),
               ("source_machine_page", D.MACHINE_FRAME)), None),
    Signature("TranslationTable.fill_subblock",
              (("subblock", D.SUBBLOCK_IDX),), None),
    Signature("TranslationTable.category",
              (("page", D.VIRTUAL_PAGE),), None),
    Signature("TranslationTable.is_retired_home",
              (("page", D.VIRTUAL_PAGE),), None),
    Signature("TranslationTable.retire_slot",
              (("slot", D.MACHINE_FRAME), ("spare", D.MACHINE_FRAME)),
              D.VIRTUAL_PAGE),
    Signature("TranslationTable.empty_slot", (), D.MACHINE_FRAME),
    # ---- DRAM geometry (repro.dram.timing / bank) --------------------
    Signature("DramGeometry.decompose",
              (("addr", D.BYTE_ADDR),), (None, None, D.DRAM_ROW)),
    Signature("DramGeometry.queue_of",
              (("addr", D.BYTE_ADDR),), None),
    Signature("DramGeometry.rows_of",
              (("addr", D.BYTE_ADDR),), D.DRAM_ROW),
    Signature("DramGeometry.queues_and_rows",
              (("addr", D.BYTE_ADDR),), (None, D.DRAM_ROW)),
    Signature("Bank.would_hit", (("row", D.DRAM_ROW),), None),
    Signature("Bank.service_cycles", (("row", D.DRAM_ROW),), None),
    # "access" collides with cache/controller APIs: qualname-only
    Signature("Bank.access",
              (("row", D.DRAM_ROW), ("arrival", D.WALL_CYCLES)),
              (D.WALL_CYCLES, D.WALL_CYCLES, None), match_calls=False),
)

#: call-site lookup: bare callable name -> signature (unambiguous only)
BY_NAME: dict[str, Signature] = {}
for _sig in SIGNATURES:
    if _sig.match_calls:
        if _sig.name in BY_NAME:
            raise ValueError(
                f"ambiguous call-site signature name {_sig.name!r}; "
                "set match_calls=False on one of them"
            )
        BY_NAME[_sig.name] = _sig

#: body-analysis lookup: "Class.method" (and bare module functions)
BY_QUALNAME: dict[str, Signature] = {s.qualname: s for s in SIGNATURES}


def signature_for_call(name: str) -> Signature | None:
    """The signature a call spelled ``obj.name(...)`` resolves to."""
    return BY_NAME.get(name)


def signature_for_def(class_name: str | None, func_name: str) -> Signature | None:
    """The signature seeding a function body's parameter domains."""
    if class_name is not None:
        return BY_QUALNAME.get(f"{class_name}.{func_name}")
    return BY_QUALNAME.get(func_name)
