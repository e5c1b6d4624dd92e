"""Scalar-output MLP on (t, x) inputs with tape-expressible input gradients.

The network reads one (rows, 1+d) input array per pass: time in column
0, the state in the d columns after it.  On a tape the network has one
entry point, ``TapeMlp.value_and_grad``: the value and spatial gradient
come from one fused tape primitive, ``Tape.mlp``, whose VJP
differentiates the gradient as well, so any loss containing it remains
differentiable with respect to the parameters in a single reverse pass.
A pass that nothing differentiates, such as the held-out one, binds the
parameters with ``trainable=False``: they are then tape constants, and
the node keeps no VJP state.  ``evaluate``, a plain tape-free forward
pass, is the tests' reference for its value column; the program never
calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tape, Variable

_ACTIVATIONS = ("tanh", "relu", "leaky_relu")


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer plan: input width 1+d, hidden widths, scalar output.

    ``alpha``, leaky relu's negative slope, must lie in [0, 1] whatever
    the activation: on that range ``Tape.mlp`` rebuilds the slopes from
    one-byte masks exactly.
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
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.alpha <= 1.0:  # NaN fails too
            raise ValueError(f"leaky relu alpha must be in [0, 1], got {self.alpha}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden, 1]
        return list(zip(dims[:-1], dims[1:]))


@dataclass
class MlpParams:
    """Weight matrices (fan_in, fan_out) and bias vectors per layer."""

    arch: MlpArchitecture
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        expected = self.arch.layer_dims
        if len(self.weights) != len(expected) or len(self.biases) != len(expected):
            raise ValueError("layer count does not match architecture")
        for w, b, (fi, fo) in zip(self.weights, self.biases, expected):
            if w.shape != (fi, fo) or b.shape != (fo,):
                raise ValueError(f"layer shapes {w.shape}/{b.shape} do not chain as ({fi},{fo})")

    def flat_list(self) -> list[np.ndarray]:
        """Interleaved [w0, b0, w1, b1, ...]; the order used for gradients."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def replace_flat(self, arrays: list[np.ndarray]) -> "MlpParams":
        ws = [np.asarray(arrays[2 * i], dtype=np.float64) for i in range(len(self.weights))]
        bs = [np.asarray(arrays[2 * i + 1], dtype=np.float64) for i in range(len(self.weights))]
        return MlpParams(self.arch, ws, bs)


def init(arch: MlpArchitecture, seed: int) -> MlpParams:
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in arch.layer_dims:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(arch, weights, biases)


class TapeMlp:
    """Network bound to one tape; parameters registered once as leaves.

    ``trainable=False`` registers them as constants: nothing on the tape
    can then be differentiated with respect to them, and the network
    node keeps no VJP state, so a pass that is never differentiated
    holds only its values.
    """

    def __init__(self, tape: Tape, params: MlpParams, trainable: bool = True):
        self.tape = tape
        self.arch = params.arch
        leaf = tape.param if trainable else tape.constant
        self.param_vars = [leaf(a) for a in params.flat_list()]  # w0, b0, w1, b1, ...

    def value_and_grad(self, inp: np.ndarray) -> tuple[Variable, Variable]:
        """Value plus the gradient in the spatial coordinates, both on tape.

        ``inp`` is the (rows, 1+d) input, time first.  Both results are
        column blocks of one fused ``Tape.mlp`` node, which rejects any
        other width.  The gradient covers only the x columns; nothing in
        the scheme differentiates with respect to time.
        """
        tape = self.tape
        packed = tape.mlp(inp, self.param_vars[0::2], self.param_vars[1::2],
                          self.arch.activation, self.arch.alpha)
        return tape.slice(packed, cols=(0, 1)), tape.slice(packed, cols=(1, self.arch.input_dim))


def evaluate(params: MlpParams, inp: np.ndarray) -> np.ndarray:
    """Plain forward pass over the (rows, 1+d) input, time first.

    Bit-identical to the value column of the tape's ``Tape.mlp`` node, as
    ``test_fused_value_column_bit_identical_to_evaluate`` asserts.
    """
    h, arch = np.asarray(inp, dtype=np.float64), params.arch
    if h.ndim != 2 or h.shape[1] != arch.input_dim:
        raise ShapeMismatchError(f"evaluate: input {h.shape}, expected width {arch.input_dim}")
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w + b
        if arch.activation == "tanh":
            h = np.tanh(z)
        elif arch.activation == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = np.where(z > 0.0, z, arch.alpha * z)
    return h @ params.weights[-1] + params.biases[-1]

