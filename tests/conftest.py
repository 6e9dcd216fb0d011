"""Shared fixtures."""

import contextlib
import signal

import pytest


@pytest.fixture
def deadline():
    """`with deadline(seconds): ...` fails the test if the block runs longer.

    Built on the real-time interval timer: the alarm fails the test at the
    next bytecode, so a single long C call finishes first.  Main thread only.
    """

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            pytest.fail(f"did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
