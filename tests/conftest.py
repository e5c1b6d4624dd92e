import os

# Pin BLAS to one thread before numpy loads, as the package does: threaded
# BLAS splits a product by the thread count, so results would depend on the
# host's cores.  Parallelism comes from ``Tape.mlp``'s row chunks instead.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pidenet import autodiff


@pytest.fixture
def chunk_workers(monkeypatch):
    """Call with n to run ``Tape.mlp``'s row chunks on a pool of n workers."""
    pools = []

    def use(n):
        pools.append(ThreadPoolExecutor(n))
        monkeypatch.setattr(autodiff, "_pool", pools[-1])

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
