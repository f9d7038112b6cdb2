"""The conformance sanitizer reads every row of a real contended trace."""

from repro.api import RunProfile, run
from repro.topo.builder import capturing


def test_sanitized_table2_examines_every_trace_record():
    with capturing(traces=True) as runs:
        run("table2", seed=1, duration=10.0, warmup=1.0,
            profile=RunProfile(sanitize=True))
    assert len(runs) == 2  # the BEB and MILD scenarios
    assert all(r.violations == 0 for r in runs)
    for r in runs:
        assert r.examined == len(r.records)
    assert sum(r.examined for r in runs) > 10_000
