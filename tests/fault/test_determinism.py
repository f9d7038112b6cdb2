"""The fault determinism contract.

* An empty schedule is indistinguishable from no schedule: identical
  ``events_fired`` and byte-identical trace digests.
* A non-empty schedule is a pure function of ``(schedule, seed)``: repeat
  runs are byte-identical, and a pool worker produces the same digest as
  a serial run.
"""

import pytest

from repro.core.config import RunProfile
from repro.fault import FaultSchedule, GilbertElliott, LinkFlapProcess, PoissonChurn
from repro.runner import expand_cells
from repro.service import run_cells
from repro.topo.builder import ScenarioBuilder

#: Short horizon — determinism, not accuracy, is under test.
DURATION = 30.0

#: Aggressive generator mix so every process fires within DURATION.
CHAOS = FaultSchedule((
    GilbertElliott(mean_good_s=5.0, mean_bad_s=2.0, error_rate=0.4),
    LinkFlapProcess(mean_up_s=8.0, mean_down_s=2.0),
    PoissonChurn(rate_per_s=0.2, mean_outage_s=3.0),
))


def run_once(protocol, schedule, seed=3):
    profile = RunProfile(trace=True, faults=schedule)
    builder = ScenarioBuilder(seed=seed, protocol=protocol, profile=profile)
    builder.add_base("B")
    builder.add_pad("P1")
    builder.add_pad("P2")
    builder.clique("B", "P1", "P2")
    builder.udp("P1", "B", 16.0)
    builder.udp("P2", "B", 16.0)
    scenario = builder.build().run(DURATION)
    return scenario.sim.trace.digest(), scenario.sim.events_fired, scenario


@pytest.mark.parametrize("protocol", ["macaw", "maca", "csma"])
def test_empty_schedule_is_digest_identical_to_none(protocol):
    clean_digest, clean_fired, _ = run_once(protocol, None)
    empty_digest, empty_fired, scenario = run_once(protocol, FaultSchedule.empty())
    assert empty_digest == clean_digest
    assert empty_fired == clean_fired
    assert scenario.fault_injector is None


def test_same_seed_fault_runs_are_byte_identical():
    first_digest, first_fired, first = run_once("macaw", CHAOS)
    again_digest, again_fired, again = run_once("macaw", CHAOS)
    assert again_digest == first_digest
    assert again_fired == first_fired
    assert again.fault_injector.injected == first.fault_injector.injected
    assert again.fault_injector.recoveries == first.fault_injector.recoveries
    # The chaos mix actually did something, and something of every kind.
    assert all(count > 0 for count in first.fault_injector.injected.values())


def test_faulted_digest_differs_from_clean():
    clean_digest, _, _ = run_once("macaw", None)
    chaos_digest, _, _ = run_once("macaw", CHAOS)
    assert chaos_digest != clean_digest


def test_fault_digests_are_seed_sensitive():
    one, _, _ = run_once("macaw", CHAOS, seed=3)
    two, _, _ = run_once("macaw", CHAOS, seed=4)
    assert one != two


def test_run_cells_fault_profile_matches_across_worker_processes():
    profile = RunProfile(faults=CHAOS)
    cells = expand_cells(["table9"], [0, 1], duration=DURATION, warmup=5.0)
    serial = run_cells(cells, jobs=1, collect_digests=True, profile=profile)
    parallel = run_cells(cells, jobs=2, collect_digests=True, profile=profile)
    assert [o.digest for o in serial] == [o.digest for o in parallel]
    assert all(o.digest is not None for o in serial)
    plain = run_cells(cells, jobs=1, collect_digests=True)
    assert [o.digest for o in plain] != [o.digest for o in serial]
