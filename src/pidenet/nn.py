"""Scalar-output MLP on (t, x) inputs with tape-expressible input gradients.

The network reads one (rows, 1+d) input array per pass: time in column
0, the state in the d columns after it.  On a tape the network has one
entry point, ``TapeMlp.value_and_grad``, which returns one fused tape
primitive, the ``Tape.mlp`` node ``[u | grad_x u]``: the value column,
then the spatial gradient, whose blocks a loss reads with ``Tape.slice``.
The node's VJP differentiates the gradient as well, so any loss
containing it remains differentiable with respect to the parameters in
a single reverse pass.  Its parameters are one vector,
``MlpParams.theta``.  A pass that nothing differentiates, such as the
held-out one, binds it with ``trainable=False``: it is then a tape
constant, and the node keeps no VJP state.  The package holds no other
forward pass: the network runs only inside the loss's node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Variable, mlp_layers

_ACTIVATIONS = ("tanh", "leaky_relu")


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer plan: input width 1+d, hidden widths, scalar output.

    The hidden layers apply "tanh" or "leaky_relu"; relu is leaky relu at
    ``alpha`` 0.  ``alpha``, leaky relu's negative slope, must lie in
    [0, 1] whatever the activation: on that range ``Tape.mlp`` rebuilds
    the slopes from one-byte masks exactly.
    """

    input_dim: int
    hidden: tuple[int, ...]
    activation: str = "tanh"
    alpha: float = 0.01  # leaky-relu negative slope

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(w) for w in self.hidden))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.hidden) < 1 or any(w < 1 for w in self.hidden):
            raise ValueError(f"need at least one hidden layer of width >= 1, got {self.hidden}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; "
                             f"the activations are {', '.join(_ACTIVATIONS)}")
        if not 0.0 <= self.alpha <= 1.0:  # NaN fails too
            raise ValueError(f"leaky relu alpha must be in [0, 1], got {self.alpha}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, 1]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class MlpParams:
    """Float64 parameter vector ``theta`` and its per-layer views from ``autodiff.mlp_layers``."""

    arch: MlpArchitecture
    theta: np.ndarray = field(repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.weights, self.biases = mlp_layers(self.theta, self.arch.layer_dims)


def init(arch: MlpArchitecture, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    params = MlpParams(arch, np.zeros(sum((fi + 1) * fo for fi, fo in arch.layer_dims)))
    for w, (fan_in, fan_out) in zip(params.weights, arch.layer_dims):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return params


class TapeMlp:
    """Network bound to one tape; the parameter vector registered once as a leaf, ``param_var``.

    ``trainable=False`` registers it as a constant: nothing on the tape
    can then be differentiated with respect to it, and the network node
    keeps no VJP state, so a pass that is never differentiated holds
    only its values.
    """

    def __init__(self, tape: Tape, params: MlpParams, trainable: bool = True):
        self.tape = tape
        self.arch = params.arch
        self.param_var = (tape.param if trainable else tape.constant)(params.theta)

    def value_and_grad(self, inp: np.ndarray, grad_rows: int | None = None,
                       repeat: int = 1) -> Variable:
        """The network node ``[u | grad_x u]`` of ``inp``: value column, then spatial gradient.

        ``inp`` is the (rows, 1+d) input, time first; the node is one
        fused ``Tape.mlp`` node of the same width, which rejects any
        other.  The gradient covers only the x columns; nothing in the
        scheme differentiates with respect to time.  Only the first
        ``grad_rows`` input rows (all if None) get a gradient; the rest
        are value-only rows, whose gradient columns are zero.  The first
        input row stands for ``repeat`` rows of the node, so it has
        ``rows + repeat - 1`` rows.
        """
        arch = self.arch
        return self.tape.mlp(inp, self.param_var, arch.layer_dims, arch.activation, arch.alpha,
                             grad_rows, repeat)

