"""Runtime RAS (reliability, availability, serviceability) subsystem.

On-chip memory-controller support (the paper's central premise) gives
the controller visibility the OS never had — so reliability machinery
can live next to the migration engine: per-frame correctable-error
telemetry with leaky-bucket thresholds, a patrol scrubber whose reads
share the FIFO device models with demand traffic, predictive frame
retirement with graceful on-package capacity degradation, and
write-endurance counters that steer the swap policy away from worn
off-package frames. Everything is gated behind
``RASConfig(enabled=False)``: the default configuration is bit-identical
to a build without this package.
"""

from .controller import RasController, RasReport, RetirementEvent
from .disturb import ActivationTelemetry, DisturbController, DisturbReport
from .scrub import PatrolScrubber
from .telemetry import CETelemetry
from .wear import LINE_BYTES, WearModel

__all__ = [
    "ActivationTelemetry",
    "CETelemetry",
    "DisturbController",
    "DisturbReport",
    "LINE_BYTES",
    "PatrolScrubber",
    "RasController",
    "RasReport",
    "RetirementEvent",
    "WearModel",
]
