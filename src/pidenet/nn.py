"""Scalar-output MLP on (t, x) inputs with tape-expressible input gradients.

On a tape the network has one entry point, ``TapeMlp.value_and_grad``:
the value and spatial gradient come from one fused tape primitive,
``Tape.mlp``, whose VJP differentiates the gradient as well, so any loss
containing it remains differentiable with respect to the parameters in a
single reverse pass.  A pass that nothing differentiates, such as the
held-out one, binds the parameters with ``trainable=False``: they are
then tape constants, and the node keeps no VJP state.  ``evaluate``, a
plain tape-free forward pass, is the tests' reference for its value
column; the program never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeMismatchError, Tape, Variable

_ACTIVATIONS = ("tanh", "relu", "leaky_relu")


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer plan: input width 1+d, hidden widths, scalar output."""

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

    @property
    def count(self) -> int:
        return sum((fi + 1) * fo for fi, fo in self.arch.layer_dims)

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


def _assemble_input(arch: MlpArchitecture, t, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != arch.input_dim - 1:
        raise ShapeMismatchError(
            f"mlp input: x has width {x.shape[1]}, architecture expects {arch.input_dim - 1}"
        )
    t_col = np.full((x.shape[0], 1), float(t)) if np.ndim(t) == 0 else np.asarray(t, dtype=np.float64).reshape(-1, 1)
    if t_col.shape[0] != x.shape[0]:
        raise ShapeMismatchError(f"mlp input: t rows {t_col.shape[0]} vs x rows {x.shape[0]}")
    return np.concatenate([t_col, x], axis=1)


class TapeMlp:
    """Network bound to one tape; parameters registered once as leaves.

    ``trainable=False`` registers them as constants: nothing on the tape
    can then be differentiated with respect to them, and the network
    node keeps no VJP state, so a pass that is never differentiated
    holds only its values.
    """

    def __init__(self, tape: Tape, params: MlpParams, trainable: bool = True):
        self.tape = tape
        self.params = params
        self.arch = params.arch
        leaf = tape.param if trainable else tape.constant
        self._w_vars = [leaf(w) for w in params.weights]
        self._b_vars = [leaf(b) for b in params.biases]

    @property
    def param_vars(self) -> list[Variable]:
        out = []
        for w, b in zip(self._w_vars, self._b_vars):
            out.extend((w, b))
        return out

    def value_and_grad(self, t_in, x: np.ndarray) -> tuple[Variable, Variable]:
        """Value plus the gradient in the spatial coordinates, both on tape.

        Both are column blocks of one fused ``Tape.mlp`` node.  The
        gradient covers only the x part of the (t, x) input; nothing in
        the scheme differentiates with respect to time.
        """
        tape = self.tape
        packed = tape.mlp(
            _assemble_input(self.arch, t_in, x), self._w_vars, self._b_vars,
            self.arch.activation, self.arch.alpha,
        )
        return tape.slice(packed, cols=(0, 1)), tape.slice(packed, cols=(1, self.arch.input_dim))


def bind(tape: Tape, params: MlpParams, trainable: bool = True) -> TapeMlp:
    """``params`` on ``tape``: as gradient leaves, or as constants if not ``trainable``."""
    return TapeMlp(tape, params, trainable)


def evaluate(params: MlpParams, t, x: np.ndarray) -> np.ndarray:
    """Plain forward pass, equal to the tape value column up to BLAS blocking."""
    h = _assemble_input(params.arch, t, x)
    act = params.arch.activation
    alpha = params.arch.alpha
    n_hidden = len(params.arch.hidden)
    for i in range(n_hidden):
        z = h @ params.weights[i] + params.biases[i]
        if act == "tanh":
            h = np.tanh(z)
        elif act == "relu":
            h = np.maximum(z, 0.0)
        else:
            h = np.where(z > 0.0, z, alpha * z)
    return h @ params.weights[-1] + params.biases[-1]

