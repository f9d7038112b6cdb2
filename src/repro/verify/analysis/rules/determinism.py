"""REPRO101 unseeded-randomness, REPRO102 wall-clock, REPRO108 fault-randomness.

All randomness must flow through ``Simulator.streams`` (REPRO101);
simulated time comes only from ``Simulator.now`` (REPRO102);
fault-injection code may draw only from dedicated ``fault:*`` substreams
so chaos runs never perturb the clean runs they are compared against
(REPRO108).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.verify.analysis.facts import ModuleFacts
from repro.verify.analysis.findings import Finding
from repro.verify.analysis.project import ProjectIndex
from repro.verify.analysis.registry import rule

_RANDOM_IMPORT_MSG = (
    "stdlib 'random' is banned in model code; draw from"
    " Simulator.streams instead"
)
_FAULT_STREAM_MSG = (
    "fault code must draw only from named 'fault:*'"
    " substreams of Simulator.streams"
)


@rule("REPRO101", name="unseeded-randomness",
      summary="all randomness must flow through Simulator.streams")
def check_randomness(
    facts: ModuleFacts, project: Optional[ProjectIndex]
) -> Iterator[Finding]:
    for binding in facts.imports:
        if binding.root == "random":
            yield Finding(facts.path, binding.line, binding.col,
                          "REPRO101", _RANDOM_IMPORT_MSG)
    for event in facts.attr_events:
        if event.random_alias_base:
            yield Finding(
                facts.path, event.line, event.col, "REPRO101",
                f"'{event.base_name}.{event.attr}' bypasses the seeded stream"
                " registry (Simulator.streams)",
            )
        if event.numpy_random and not facts.is_rng_module:
            yield Finding(
                facts.path, event.line, event.col, "REPRO101",
                "direct numpy.random use outside repro.sim.rng; derive a"
                " named stream from Simulator.streams",
            )


@rule("REPRO102", name="wall-clock",
      summary="simulated time comes from Simulator.now only")
def check_wallclock(
    facts: ModuleFacts, project: Optional[ProjectIndex]
) -> Iterator[Finding]:
    for event in facts.attr_events:
        if event.time_wallclock or event.datetime_wallclock:
            yield Finding(
                facts.path, event.line, event.col, "REPRO102",
                f"wall-clock call '{event.base_name}.{event.attr}' in"
                " simulation code; use Simulator.now",
            )
        elif event.datetime_chain is not None:
            root, mid = event.datetime_chain
            yield Finding(
                facts.path, event.line, event.col, "REPRO102",
                f"wall-clock call '{root}.{mid}.{event.attr}'"
                " in simulation code; use Simulator.now",
            )
    for event in facts.call_events:
        if event.wallclock_name:
            yield Finding(
                facts.path, event.line, event.col, "REPRO102",
                f"wall-clock call '{event.func_name}()' in simulation code;"
                " use Simulator.now",
            )


@rule("REPRO108", name="fault-randomness",
      summary="fault code draws only from 'fault:*' substreams")
def check_fault_streams(
    facts: ModuleFacts, project: Optional[ProjectIndex]
) -> Iterator[Finding]:
    if not facts.is_fault_module:
        return
    for binding in facts.imports:
        if binding.root == "random":
            yield Finding(facts.path, binding.line, binding.col,
                          "REPRO108", _FAULT_STREAM_MSG)
    for event in facts.attr_events:
        if event.numpy_random and not facts.is_rng_module:
            yield Finding(facts.path, event.line, event.col,
                          "REPRO108", _FAULT_STREAM_MSG)
    for event in facts.call_events:
        if event.fault_private_universe:
            yield Finding(
                facts.path, event.line, event.col, "REPRO108",
                "private RandomStreams(...) universe in fault code; use the"
                " simulator's registry via a 'fault:*' substream",
            )
        elif event.fault_stream_violation:
            yield Finding(
                facts.path, event.line, event.col, "REPRO108",
                "fault code drawing from a non-'fault:*' stream; faults must"
                " never share protocol/traffic/noise randomness",
            )


@rule("REPRO116", name="fuzz-randomness",
      summary="'fuzz:*' substreams belong to repro/verify/diff/ only")
def check_fuzz_streams(
    facts: ModuleFacts, project: Optional[ProjectIndex]
) -> Iterator[Finding]:
    """The fuzzer's reserved namespace must not leak into the stack.

    Scenario generation draws from dedicated ``fuzz:*`` substreams so a
    fuzz case is reproducible from (seed, index) alone; protocol,
    traffic or fault code drawing from that namespace would entangle
    model behaviour with the fuzzing harness — the same containment
    REPRO108 gives the ``fault:*`` namespace, pointed the other way.
    """
    if facts.is_diff_module:
        return
    for event in facts.call_events:
        if event.fuzz_stream_call:
            yield Finding(
                facts.path, event.line, event.col, "REPRO116",
                "'fuzz:*' substreams are reserved for the differential"
                " fuzzer (repro/verify/diff/); model code must use its"
                " own stream namespace",
            )
