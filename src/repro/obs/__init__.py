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

from importlib import import_module
from typing import TYPE_CHECKING, Any, List

if TYPE_CHECKING:  # pragma: no cover - the names resolve lazily below
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

#: Public name -> its defining module, imported on first access (PEP 562).
_EXPORTS = {
    "aggregate_files": "repro.obs.aggregate",
    "bands": "repro.obs.aggregate",
    "load_jsonl": "repro.obs.export",
    "write_csv": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "ScenarioMetrics": "repro.obs.probes",
    "instrument_scenario": "repro.obs.probes",
    "Counter": "repro.obs.registry",
    "Gauge": "repro.obs.registry",
    "Histogram": "repro.obs.registry",
    "MetricsRegistry": "repro.obs.registry",
    "MetricsConfig": "repro.obs.runtime",
    "RingSeries": "repro.obs.sampler",
    "Sampler": "repro.obs.sampler",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name]), name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
