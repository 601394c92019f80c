"""Suite-wide checks shared by every test package."""

import multiprocessing
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Fail the test if it leaves worker processes alive.

    A runtime keeps its pool until it is closed or dropped, so a test
    that holds a pooled runtime past its end leaks the pool's workers.
    Children alive before the test are not its leaks.
    """
    before = set(multiprocessing.active_children())
    yield
    leaked = set(multiprocessing.active_children()) - before
    assert not leaked, f"test left worker processes alive: {sorted(leaked, key=str)}"


@pytest.fixture
def traced_peak():
    """A function giving the ``tracemalloc`` peak, in MB, of one call.

    NumPy reports its buffers to ``tracemalloc``, so the reading counts
    the arrays a call holds at once, not the interpreter's footprint.
    """

    def peak(call) -> float:
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            if started:
                tracemalloc.stop()

    return peak
