"""The conformance sanitizer reads every row of a real contended trace."""

from repro.api import RunProfile, run
from repro.verify.runtime import capturing_traces, sanitized


def test_sanitized_table2_examines_every_trace_record():
    with sanitized() as stats, capturing_traces() as traces:
        run("table2", seed=1, duration=10.0, warmup=1.0, profile=RunProfile())
    assert stats.runs == len(traces) == 2  # the BEB and MILD scenarios
    assert stats.violations == 0
    assert stats.records == sum(len(records) for records in traces) > 10_000
