"""Deep solver for semi-linear parabolic PIDEs.

The solver simulates the forward jump-diffusion process with an
Euler-Maruyama scheme, approximates the value function with a single
multilayer perceptron, obtains the diffusion term from the network's
input gradient and the non-local jump integral from network
re-evaluations at jumped states, and trains by minimizing the squared
one-step residuals of the backward recursion plus the terminal misfit.
"""

import os
import sys

# Single-threaded BLAS: threaded BLAS splits a product in ways that
# depend on the thread count, so outputs would depend on the host's cores.
# A large network node uses every core through its own row chunks instead
# (``autodiff.CHUNK_ROWS``), which run one-thread BLAS calls in parallel.
# numpy reads them only when first imported, so a numpy loaded before this
# package is pinned through its OpenBLAS.  A value in the environment wins.
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_loaded_blas() -> None:
    """One thread for the OpenBLAS in numpy's wheel libraries; a warning where none is found."""
    import ctypes
    import glob
    import warnings

    libs = os.path.join(os.path.dirname(os.path.dirname(sys.modules["numpy"].__file__)),
                        "numpy.libs", "lib*openblas*")
    for path in glob.glob(libs):  # dlopen returns the handle of the loaded library
        setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:  # the OpenBLAS that numpy 2 wheels bundle
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(1)
            return
    warnings.warn("numpy was imported before pidenet with no BLAS thread count set, so "
                  "outputs may depend on the number of cores", RuntimeWarning, stacklevel=2)


if "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    _pin_loaded_blas()
for _var in _BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
