"""The options each ``macaw-sim`` subcommand accepts are a pinned list.

Every flag is a promise to users and scripts, and each one costs a line
of parsing and a line of help.  This test reads the options out of each
subcommand's ``--help`` usage block (the help text below it mentions
other flags) and compares them with the list here, so a new flag has to
change this test to get in, as ``tests/test_env_surface.py`` does for
environment variables.
"""

import re

import pytest

from repro.cli import main

ALLOWED = {
    "run": {  # the run command: macaw-sim EXPERIMENT
        "--seed", "--seeds", "--duration", "--warmup", "--no-paper",
        "--jobs", "--queue", "--faults", "--chaos", "--digest", "--cache",
        "--cache-dir", "--metrics", "--metrics-interval", "--metrics-out",
    },
    "verify-trace": {"--seed", "--duration", "--warmup"},
    "chaos": {
        "--faults", "--list", "--seed", "--duration", "--warmup",
        "--metrics", "--metrics-interval", "--metrics-out",
    },
    "sweep": {
        "--resume", "--list", "--seed", "--seeds", "--adaptive",
        "--epsilon", "--metric", "--min-seeds", "--max-seeds", "--step",
        "--confidence", "--duration", "--warmup", "--jobs", "--queue",
        "--faults", "--chaos", "--job-dir", "--cache-dir", "--no-digest",
        "--retries", "--backoff",
    },
    "diff": {
        "--seed", "--seeds", "--duration", "--warmup", "--queues", "--out",
        "--full", "--no-bisect",
    },
    "fuzz": {
        "--budget", "--seed", "--duration", "--queues", "--out",
        "--no-shrink", "--quiet",
    },
    "analyze": {"--rules", "--format", "--output", "--fix", "--list-rules"},
}


def _usage_options(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(([] if command == "run" else [command]) + ["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert usage.startswith("usage:"), usage
    return set(re.findall(r"--[a-z][a-z-]*", usage))


@pytest.mark.parametrize("command", sorted(ALLOWED))
def test_usage_lists_exactly_the_allowed_options(command, capsys):
    assert _usage_options(command, capsys) == ALLOWED[command]


def test_option_count():
    assert sum(len(options) for options in ALLOWED.values()) == 68
