import signal

import pytest


@pytest.fixture
def deadline():
    """Fail a test that blocks for a minute, instead of letting it hang."""

    def expire(signum, frame):
        raise TimeoutError("the test blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
