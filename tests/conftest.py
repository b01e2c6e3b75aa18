import sys

import pytest

from navsto import nonlinearity as nl


@pytest.fixture
def fft_workers():
    """nonlinearity.set_fft_workers for one test; the old setting comes back after it."""
    saved = nl.FFT_WORKERS
    yield nl.set_fft_workers
    nl.set_fft_workers(saved)


@pytest.fixture
def fine_thread_switching():
    """A 1 us thread switch interval for one test, so tile threads interleave finely.

    Only for light kernel tests: under it, every thread handoff costs a
    context switch, and Python-heavy threaded work slows down by orders of
    magnitude on a loaded host.
    """
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(saved)
