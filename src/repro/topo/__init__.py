"""Topology: stations, scenario construction, and the paper's figures.

* :mod:`repro.topo.station` — pads and base stations (§2.1 terminology).
* :mod:`repro.topo.builder` — declarative scenario construction: pick a
  medium, place stations, wire links or cells, attach streams, schedule
  mid-run events (power-off, mobility), then :meth:`build` and
  :meth:`~repro.topo.builder.Scenario.run`; :func:`capturing` collects
  each run's digest, records, metrics dump and sanitizer counts.
* :mod:`repro.topo.figures` — one constructor per paper figure (1–11),
  so every experiment names its configuration the way the paper does.
"""

from repro.topo.station import Station
from repro.topo.builder import Scenario, ScenarioBuilder, ScenarioRun, capturing

__all__ = ["Station", "Scenario", "ScenarioBuilder", "ScenarioRun", "capturing"]
