"""How a scenario is instrumented when its profile turns metrics on.

:class:`MetricsConfig` is what ``RunProfile(metrics=...)`` normalizes
to; the builder hands it to :func:`repro.obs.probes.instrument_scenario`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["MetricsConfig"]


@dataclass(frozen=True)
class MetricsConfig:
    """How a scenario should be instrumented when metrics are on."""

    #: Sampling cadence in simulated seconds.
    interval: float = 1.0
    #: Ring capacity per series; oldest samples drop beyond this.
    capacity: int = 4096

    def __post_init__(self) -> None:
        if not (math.isfinite(self.interval) and self.interval > 0):
            raise ValueError(f"metrics interval must be a finite number > 0, "
                             f"got {self.interval}")
        if self.capacity < 1:
            raise ValueError(f"metrics capacity must be >= 1, got {self.capacity}")
