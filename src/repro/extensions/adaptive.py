"""Adaptive migration granularity (the paper's future-work hook).

Fixed macro-page sizes are a compromise: Figs 12-14 show the optimum is
workload- and frequency-dependent. This controller probes the ladder
online with an explore-then-commit policy:

* the trace is consumed in *segments* of ``adapt_every`` epochs;
* during the exploration phase each candidate granularity runs for one
  settling segment (discarded — the fresh table is still capturing the
  hot set) plus one measured segment;
* the controller then commits to the granularity with the best measured
  segment latency for the rest of the run;
* switching granularity rebuilds the translation table, which requires
  flushing every migrated page home first — the flush traffic is charged
  at the cross-package copy bandwidth and accounted as a one-off stall
  (hardware would overlap it; this is the conservative model).

Explore-then-commit beats per-segment hill climbing here because a
granularity switch resets the placement: comparing the segment right
after a switch against a warmed-up one systematically favours staying
put, which makes naive hill climbing oscillate. The policy needs one
latency register per candidate — still trivially implementable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig
from ..core.simulator import EpochSimulator, SimulationResult
from ..errors import ConfigError
from ..migration.table import EMPTY
from ..trace.record import TraceChunk
from ..units import KB, MB

#: the granularity ladder of Figs 11-14
DEFAULT_LADDER = (4 * KB, 16 * KB, 64 * KB, 256 * KB, 1 * MB, 4 * MB)


@dataclass
class AdaptiveResult(SimulationResult):
    """Simulation outcome plus the adaptation trajectory."""

    granularity_trace: list[int] = field(default_factory=list)
    switches: int = 0
    flush_bytes: int = 0

    @property
    def final_granularity(self) -> int:
        return self.granularity_trace[-1] if self.granularity_trace else 0


class AdaptiveGranularitySimulator:
    """Explore-then-commit over the macro-page-size ladder."""

    def __init__(
        self,
        config: SystemConfig,
        *,
        ladder: tuple[int, ...] = DEFAULT_LADDER,
        adapt_every: int = 16,
    ):
        if not ladder or list(ladder) != sorted(ladder):
            raise ConfigError("ladder must be ascending and non-empty")
        if adapt_every <= 0:
            raise ConfigError("adapt_every must be positive")
        self.base_config = config
        self.ladder = ladder
        self.adapt_every = adapt_every
        start = config.migration.macro_page_bytes
        self._idx = ladder.index(start) if start in ladder else len(ladder) // 2
        self._probe_order = list(range(len(ladder)))
        self._probe_pos = 0
        self._settling = True          # first segment at a granularity
        self._measured: dict[int, float] = {}
        self._committed = False

    def _config_at(self, idx: int) -> SystemConfig:
        return self.base_config.with_migration(macro_page_bytes=self.ladder[idx])

    def _flush_cost(self, sim: EpochSimulator) -> tuple[int, int]:
        """(bytes, cycles) to send every migrated-in page home before the
        table is re-keyed at a new granularity."""
        table = sim.engine.table
        page_bytes = table.amap.macro_page_bytes
        migrated = sum(
            1
            for slot in range(table.n_slots)
            for page in [table.page_in_slot(slot)]
            # identity-home test: slot s natively holds page s, so
            # page != slot means the pair is migrated and must be flushed
            if page != EMPTY and page != slot  # repro-lint: disable=domain-confusion
        )
        nbytes = 2 * migrated * page_bytes  # each pairing restores 2 copies
        cycles = self.base_config.bus.copy_cycles(nbytes, cross_boundary=True)
        return nbytes, cycles

    def run(self, trace: TraceChunk) -> AdaptiveResult:
        result = AdaptiveResult()
        interval = self.base_config.migration.swap_interval
        segment_accesses = self.adapt_every * interval
        # probe starting from the configured granularity, then the rest
        self._probe_order = [self._idx] + [
            i for i in range(len(self.ladder)) if i != self._idx
        ]
        sim = EpochSimulator(self._config_at(self._idx))
        pending_flush_cycles = 0

        for start in range(0, len(trace), segment_accesses):
            segment = trace[start : start + segment_accesses]
            before = result.total_latency
            sim.run_into(segment, result)
            result.granularity_trace.append(self.ladder[self._idx])
            # charge the previous switch's flush as a one-off stall
            if pending_flush_cycles:
                result.total_latency += pending_flush_cycles
                pending_flush_cycles = 0
            seg_latency = (result.total_latency - before) / max(1, len(segment))

            new_idx = self._decide(seg_latency)
            if new_idx != self._idx:
                nbytes, cycles = self._flush_cost(sim)
                result.flush_bytes += nbytes
                result.migrated_bytes += nbytes
                result.cross_boundary_migrated_bytes += nbytes
                pending_flush_cycles = cycles
                result.switches += 1
                self._idx = new_idx
                old_sim = sim
                sim = EpochSimulator(self._config_at(self._idx))
                sim._last_time = old_sim._last_time
        return result

    def _decide(self, seg_latency: float) -> int:
        """Explore-then-commit: settle, measure, move on; then lock in."""
        if self._committed:
            return self._idx
        if self._settling:
            # discard the first (cold-table) segment at this granularity
            self._settling = False
            return self._idx
        self._measured[self._idx] = seg_latency
        self._probe_pos += 1
        if self._probe_pos < len(self._probe_order):
            self._settling = True
            return self._probe_order[self._probe_pos]
        # all candidates measured: commit to the best
        self._committed = True
        return min(self._measured, key=self._measured.get)
