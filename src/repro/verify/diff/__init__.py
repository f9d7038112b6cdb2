"""Differential execution oracle, first-divergence bisector and fuzzer.

The repo's central correctness claim is that a run's ``Trace.digest()``
is byte-identical across every *execution mode*: heap vs wheel event
queues, serial vs worker processes, metrics instrumentation on or off.  Each mode is supposed to be a pure
performance/observability knob — when one of them leaks into the event
stream (PR 6's mid-reschedule compaction bug), results silently change
and only a hand-written parity test catches it.

This package is the machine that finds such bugs first:

* :class:`~repro.verify.diff.oracle.DiffOracle` runs an experiment grid
  under a configurable matrix of :class:`~repro.verify.diff.modes.ExecMode`
  values and asserts per-cell digest equality;
* :mod:`~repro.verify.diff.bisect` replays a divergent pair with
  shrinking ``run(until=...)`` horizons and localizes the *first
  divergent trace record* (time, seq, record), emitting a minimal-repro
  JSON that replays standalone;
* :mod:`~repro.verify.diff.fuzz` generates random scenarios (topology,
  traffic, fault schedules) from dedicated ``fuzz:*`` RNG substreams,
  feeds them to the oracle, and greedily shrinks failures
  (:mod:`~repro.verify.diff.shrink`).

The package is the library only: ``macaw-sim diff`` and ``macaw-sim
fuzz`` are parsed in :mod:`repro.cli` with the other subcommands.  Like
the CLI, it sits *above* the stack — it orchestrates experiments and
the runner, so it is exempt from the ``verify`` layer's usual import
surface (see ``repro.verify.analysis.layers.SUBTREE_ALLOWED_IMPORTS``).  The
``fuzz:*`` substream namespace is reserved for this package; analyzer
rule REPRO116 keeps generation randomness out of the protocol stack.
"""

from repro.verify.diff.bisect import DivergencePoint, locate_first_divergence
from repro.verify.diff.modes import ExecMode, default_matrix, full_matrix
from repro.verify.diff.oracle import (
    CellDivergence,
    DiffOracle,
    OracleReport,
    ScenarioOracle,
)
from repro.verify.diff.fuzz import FuzzFailure, FuzzScenario, generate_case, run_fuzz
from repro.verify.diff.shrink import shrink_case

__all__ = [
    "CellDivergence",
    "DiffOracle",
    "DivergencePoint",
    "ExecMode",
    "FuzzFailure",
    "FuzzScenario",
    "OracleReport",
    "ScenarioOracle",
    "default_matrix",
    "full_matrix",
    "generate_case",
    "locate_first_divergence",
    "run_fuzz",
    "shrink_case",
]
