"""Worker failures through the CLI's run path.

With ``--jobs N`` a dead worker or a raising cell ends the command with
one ``macaw-sim:`` message and exit 1, as ``sweep`` does, instead of a
traceback or a hang.
"""

import pytest

from repro.cli import main

FAILURES = [
    ("svc-crash-always", "retry budget"),
    ("svc-raise", "deliberate in-cell failure"),
]


def _reported_once(capsys, expected):
    err = capsys.readouterr().err
    assert err.startswith("macaw-sim: ") and err.count("macaw-sim:") == 1, err
    assert expected in err


@pytest.mark.parametrize("exp_id,expected", FAILURES)
def test_run_reports_worker_failure(fake_experiments, deadline, capsys,
                                    exp_id, expected):
    assert main([exp_id, "--seeds", "0,1", "--jobs", "2"]) == 1
    _reported_once(capsys, expected)
