"""Suite-wide checks shared by every test package."""

import multiprocessing

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
