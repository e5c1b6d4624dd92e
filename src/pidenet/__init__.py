"""Deep solver for semi-linear parabolic PIDEs.

The solver simulates the forward jump-diffusion process with an
Euler-Maruyama scheme, approximates the value function with a single
multilayer perceptron, obtains the diffusion term from the network's
input gradient and the non-local jump integral from network
re-evaluations at jumped states, and trains by minimizing the squared
one-step residuals of the backward recursion plus the terminal misfit.
"""

import os

# Single-threaded BLAS: threaded BLAS splits a product in ways that
# depend on the thread count, so outputs would depend on the host's cores.
# The network node uses every core through its own row chunks instead
# (``autodiff.CHUNK_ROWS``), which run one-thread BLAS calls in parallel.
# Set at package import, before any module of the package loads numpy; a
# value already in the environment wins.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
