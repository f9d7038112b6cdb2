"""Live instrumentation: typed metrics, kernel-hooked samplers, exporters.

The observability subsystem turns an opaque simulation run into
time-resolved telemetry without perturbing it:

* :mod:`repro.obs.registry` — counters, gauges, fixed-bucket histograms;
* :mod:`repro.obs.sampler` — periodic snapshots into ring-buffered time
  series, driven by the kernel's passive clock observer;
* :mod:`repro.obs.probes` — the probe catalogue over MAC, channel and
  transport layers (``instrument_scenario``);
* :mod:`repro.obs.runtime` — :class:`MetricsConfig`, what
  ``RunProfile(metrics=...)`` normalizes to;
* :mod:`repro.obs.export` / :mod:`repro.obs.aggregate` — JSONL/CSV
  output and cross-seed mean/min/max bands.

The determinism contract: instrumentation schedules no events, writes no
trace records and draws no randomness, so a seeded run produces the same
``Trace.digest()`` and ``events_fired`` with metrics on or off
(tests/verify/test_metrics_determinism.py holds this to account).

Quick start::

    from repro.core.config import RunProfile
    from repro.topo.builder import ScenarioBuilder

    builder = ScenarioBuilder(seed=1, profile=RunProfile(metrics=0.5))
    ...
    scenario = builder.build().run(500)
    t, backoff = scenario.metrics.series("mac.backoff", station="P1")
"""

from repro.obs.aggregate import aggregate_files, bands
from repro.obs.export import load_jsonl, write_csv, write_jsonl
from repro.obs.probes import ScenarioMetrics, instrument_scenario
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import MetricsConfig
from repro.obs.sampler import RingSeries, Sampler

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsConfig",
    "MetricsRegistry",
    "RingSeries",
    "Sampler",
    "ScenarioMetrics",
    "aggregate_files",
    "bands",
    "instrument_scenario",
    "load_jsonl",
    "write_csv",
    "write_jsonl",
]
