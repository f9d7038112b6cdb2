"""Verification tooling: protocol conformance and static analysis.

Two independent layers keep the reproduction honest:

* **Protocol conformance** (:mod:`repro.verify.statecharts`,
  :mod:`repro.verify.conformance`) — declarative transition tables for
  Appendix A (MACA) and Appendix B (MACAW) plus a trace linter that
  replays a :class:`repro.sim.trace.Trace` and flags illegal state
  transitions, CTS-without-RTS, DATA-without-DS, ACK/ESN sequence
  violations, overlapping transmissions and non-monotonic clocks.
* **Static analysis** (:mod:`repro.verify.analysis`) — a pluggable
  two-pass AST engine enforcing the rules that make a single seed
  reproduce an entire run (no ``random.*`` or wall-clock calls in model
  code, no mutable default arguments, no mutation of the kernel clock)
  plus the cross-module contracts: the layer DAG, frozen-value
  immutability, order-stable iteration and kernel-callback discipline.
  Run it with ``macaw-sim analyze src/repro``; see DESIGN.md §10.

Sanitized runs are opted into through the run profile
(``RunProfile(sanitize=True)``, whose unset default follows the
``REPRO_SANITIZE`` environment variable) or from the command line
(``macaw-sim verify-trace <experiment>``).
"""

from repro.verify.conformance import (
    ConformanceError,
    ConformanceReport,
    StationProfile,
    Violation,
    check_scenario,
    check_trace,
    profile_for_mac,
)
from repro.verify.statecharts import (
    MACA_STATECHART,
    MACAW_STATECHART,
    Statechart,
    statechart_for,
)

__all__ = [
    "ConformanceError",
    "ConformanceReport",
    "StationProfile",
    "Violation",
    "check_scenario",
    "check_trace",
    "profile_for_mac",
    "MACA_STATECHART",
    "MACAW_STATECHART",
    "Statechart",
    "statechart_for",
]
