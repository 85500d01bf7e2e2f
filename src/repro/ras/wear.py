"""Off-package write-endurance counters and the wear-leveling penalty.

MigrantStore's observation (PAPERS.md): migration traffic, not demand
traffic, dominates writes to the slow tier, so endurance-aware
placement must charge the *swaps* — every demotion rewrites a whole
macro page onto some machine frame. The model keeps a lifetime write
counter per machine page (demand writes count one cache line each, a
copy counts one whole macro page) and exposes a penalty the migration
engine subtracts from swap-candidate scores: a candidate whose machine
frame is already worn loses the swap to a slightly-colder page on a
fresher frame, spreading migration writes across the array.
"""

from __future__ import annotations

import numpy as np

#: one demand write wears one cache line
LINE_BYTES = 64
#: the penalty's normalisation: ``penalty_weight`` per this many
#: lifetime writes (the units of the swap trigger's epoch counts)
WEAR_WINDOW = 1024


class WearModel:
    """Lifetime write counters over every machine page."""

    def __init__(
        self, n_machine_pages: int, *, penalty_weight: float, page_bytes: int
    ):
        self.penalty_weight = float(penalty_weight)
        #: line-sized writes one macro-page copy adds
        self.copy_writes = max(1, int(page_bytes) // LINE_BYTES)
        #: line-sized write equivalents absorbed by each machine page
        self.writes = np.zeros(int(n_machine_pages), dtype=np.int64)

    def observe_demand(self, machine_pages: np.ndarray) -> None:
        """One epoch's off-package demand-write machine pages."""
        pages = np.asarray(machine_pages, dtype=np.int64)
        if pages.size:
            np.add.at(self.writes, pages, 1)

    def observe_copy(self, machine_page: int) -> None:
        """A migration/retirement copy of one macro page landed on
        ``machine_page``."""
        self.writes[machine_page] += self.copy_writes

    def penalty(self, machine_pages: np.ndarray) -> np.ndarray:
        """Score penalty per machine page: ``penalty_weight`` per
        :data:`WEAR_WINDOW` lifetime writes."""
        pages = np.asarray(machine_pages, dtype=np.int64)
        return self.penalty_weight * self.writes[pages] / WEAR_WINDOW

    @property
    def total_writes(self) -> int:
        return int(self.writes.sum())

    @property
    def max_page_writes(self) -> int:
        return int(self.writes.max()) if self.writes.size else 0
