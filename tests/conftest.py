"""Fixtures shared across the test tree."""

import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that outlives 60 s instead of letting it hang.

    For calls whose failure mode is a hang (a parent waiting on a dead
    worker forever): SIGALRM interrupts the blocked wait.
    """
    def expire(signum, frame):
        raise TimeoutError("test still running after its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
