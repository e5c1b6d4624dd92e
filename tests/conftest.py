import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pidenet import autodiff


class CountingPool(ThreadPoolExecutor):
    """A thread pool that counts the tasks submitted to it.

    ``most_in_flight`` is the most tasks that were ever submitted and
    whose result the caller had not yet taken.
    """

    def __init__(self, workers):
        super().__init__(workers)
        self.tasks = 0
        self.in_flight = 0
        self.most_in_flight = 0

    def submit(self, fn, /, *args, **kwargs):
        self.tasks += 1
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        future = super().submit(fn, *args, **kwargs)

        def taken(timeout=None):
            # back to the class's method: the future and this closure no
            # longer hold each other, so the result dies with the future
            del future.result
            self.in_flight -= 1
            return future.result(timeout)

        future.result = taken
        return future


@pytest.fixture
def chunk_workers(monkeypatch):
    """Call with n to run ``Tape.mlp``'s row chunks on a pool of n workers, which it returns.

    Every node of two chunks or more then goes to that pool, however
    small: the pool's cut-off ``POOL_MACS`` is set to 0.  The pool's
    ``tasks`` counts what reached it.
    """
    pools = []
    monkeypatch.setattr(autodiff, "POOL_MACS", 0)

    def use(n):
        pools.append(CountingPool(n))
        monkeypatch.setattr(autodiff, "_pool", pools[-1])
        return pools[-1]

    yield use
    for pool in pools:
        pool.shutdown()


@pytest.fixture
def tape_variables(monkeypatch):
    """Every Variable that a tape returns from here on, in the order made.

    Values belong to the Variables, not the tape, so tests that inspect
    recorded values read them here.  Holding the Variables keeps their
    values alive.
    """
    made = []

    def recording(method):
        def wrapper(*args, **kwargs):
            var = method(*args, **kwargs)
            made.append(var)
            return var

        return wrapper

    for name in ("_append", "constant", "param"):
        monkeypatch.setattr(autodiff.Tape, name, recording(getattr(autodiff.Tape, name)))
    return made
