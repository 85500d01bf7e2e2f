"""Paper-style table formatting."""

from .report import Table, format_cycles, ras_table, resilience_table, tenant_table

__all__ = [
    "Table",
    "format_cycles",
    "ras_table",
    "resilience_table",
    "tenant_table",
]
