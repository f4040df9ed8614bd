"""A small feedforward classifier with exact forward/backward passes.

Flattened inputs pass through zero or more rectified-linear hidden layers
into a final linear classifier W with no bias, so a mixed classifier
W @ y_tilde is an exact interpolation of the class weight columns. The
optimizer is SGD with classical heavy-ball momentum, L2 weight decay on
weight matrices (not biases), and a step learning-rate schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import container
from .numerics import RngState, matrix


@dataclass
class DenseLayer:
    """One hidden layer's weight and bias."""

    w: np.ndarray  # fan_in x fan_out
    b: np.ndarray  # fan_out


class ModelParams:
    """Every parameter tensor as a view into one C-contiguous float64 vector.

    ``flat`` holds the weight matrices first (hidden0.w, ..., final_weights)
    and the hidden biases after them, so weight decay covers the prefix
    ``flat[:num_decayed]``. Gradients and momentum share this layout, and
    this class is the only code that knows the tensor order and offsets.
    The constructor copies the given tensors into a new vector.
    """

    def __init__(self, hidden: list[DenseLayer], final_weights: np.ndarray):
        dim = None
        for i, layer in enumerate(hidden):
            if layer.w.ndim != 2 or layer.b.shape != (layer.w.shape[1],):
                raise ValueError(f"hidden layer {i} has inconsistent shapes")
            if dim is not None and layer.w.shape[0] != dim:
                raise ValueError(f"hidden layer {i} input width {layer.w.shape[0]} != {dim}")
            dim = layer.w.shape[1]
        if final_weights.ndim != 2:
            raise ValueError("final_weights must be 2-D")
        if dim is not None and final_weights.shape[0] != dim:
            raise ValueError("final_weights input width does not chain with the hidden stack")
        tensors = [layer.w for layer in hidden] + [final_weights] + [layer.b for layer in hidden]
        ends = np.cumsum([0] + [t.size for t in tensors]).tolist()
        table = tuple(zip(ends, ends[1:], [t.shape for t in tensors]))
        self._bind(np.concatenate([t.ravel() for t in tensors], dtype=np.float64), table)

    def _bind(self, flat: np.ndarray, table: tuple) -> None:
        n = len(table) // 2  # hidden layers: the table holds n weights, final_weights, n biases
        views = [flat[start:stop].reshape(shape) for start, stop, shape in table]
        self.flat, self._table = flat, table
        self.hidden = [DenseLayer(w, b) for w, b in zip(views[:n], views[n + 1:])]
        self.final_weights = views[n]
        self.num_decayed = table[n][1]

    def empty_like(self) -> ModelParams:
        """Tensors of this layout on a new, uninitialized vector."""
        out = object.__new__(ModelParams)
        out._bind(np.empty_like(self.flat), self._table)
        return out

    @property
    def input_dim(self) -> int:
        return int(self.hidden[0].w.shape[0]) if self.hidden else int(self.final_weights.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.final_weights.shape[1])


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, enough to run backward."""

    inputs: np.ndarray
    activations: list[np.ndarray]  # relu outputs: relu(z) > 0 exactly where z > 0, so they give backward its mask
    features: np.ndarray  # penultimate output, B x D
    logits: np.ndarray    # B x C


def init_model(input_dim: int, hidden_dims, num_classes: int, rng: RngState) -> ModelParams:
    """He-style fan-in scaled uniform init; biases start at zero.

    Entries are drawn row-major per tensor, tensors in layer order, so the
    parameters are a pure function of (architecture, rng state).
    """
    dims = [int(input_dim), *map(int, hidden_dims), int(num_classes)]
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(np.array([(2.0 * rng.random() - 1.0) * limit for _ in range(fan_in * fan_out)],
                                dtype=np.float64).reshape(fan_in, fan_out))
    return ModelParams([DenseLayer(w, np.zeros(w.shape[1])) for w in weights[:-1]], weights[-1])


def forward(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """Run the network, keeping every intermediate for the backward pass.

    Raw uint8 pixels are refused: ``data.standardize`` turns them into features.
    """
    if np.asarray(inputs).dtype == np.uint8:
        raise ValueError("inputs are raw uint8 pixels; standardize them first")
    x = matrix(inputs, name="inputs")
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input width {x.shape[1]} != model input width {params.input_dim}")
    act = []
    h = x
    for layer in params.hidden:
        h = h @ layer.w
        h += layer.b
        np.maximum(h, 0.0, out=h)
        act.append(h)
    logits = h @ params.final_weights
    return ForwardCache(x, act, h, logits)


def backward(params: ModelParams, cache: ForwardCache, grad_logits: np.ndarray) -> ModelParams:
    """Gradients for every parameter, in the layout of ``params``, given d(loss)/d(logits)."""
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != cache.logits.shape:
        raise ValueError(f"grad_logits {grad_logits.shape} != logits {cache.logits.shape}")
    grads = params.empty_like()
    np.matmul(cache.features.T, grad_logits, out=grads.final_weights)
    # upstream gradient and the weights it flows back through; the gradient
    # with respect to the inputs is never formed, since nothing reads it
    upstream, w = grad_logits, params.final_weights
    for k in range(len(params.hidden) - 1, -1, -1):
        dz = (upstream @ w.T) * (cache.activations[k] > 0.0)
        prev = cache.activations[k - 1] if k > 0 else cache.inputs
        np.matmul(prev.T, dz, out=grads.hidden[k].w)
        dz.sum(axis=0, out=grads.hidden[k].b)
        upstream, w = dz, params.hidden[k].w
    return grads


@dataclass(frozen=True)
class SgdConfig:
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay: float = 0.2
    lr_steps: tuple[int, ...] = (50, 100, 150)


def lr_for_epoch(config: SgdConfig, epoch: int) -> float:
    """Base rate decayed once for every schedule boundary already crossed."""
    crossings = sum(1 for s in config.lr_steps if epoch > s)
    return config.lr * config.lr_decay ** crossings


class OptimizerState:
    """The momentum vector, in the parameters' flat layout, and the current learning rate."""

    def __init__(self, params: ModelParams, config: SgdConfig):
        self.config = config
        self.lr = config.lr
        self.momentum = np.zeros_like(params.flat)

    def set_epoch(self, epoch: int) -> None:
        self.lr = lr_for_epoch(self.config, int(epoch))


def sgd_step(params: ModelParams, grads: ModelParams, state: OptimizerState) -> None:
    """One heavy-ball update, in place: m = m*mu + (g + wd*p), p -= lr*m.

    Weight decay covers the weight prefix of the flat vector. The biases
    keep the ``0.0 * p`` term of a zero decay: dropping it would flip the
    sign of some zero momentum entries, and with them some zero parameters.
    """
    cfg = state.config
    n = params.num_decayed
    p, g, m = params.flat, grads.flat, state.momentum
    m *= cfg.momentum
    m[:n] += g[:n] + cfg.weight_decay * p[:n]
    m[n:] += g[n:] + 0.0 * p[n:]
    p -= state.lr * m


def save_checkpoint(params: ModelParams, path) -> None:
    """Write parameters to the flat binary container (kind 1).

    Array order is hidden0.w, hidden0.b, ..., final_weights; metadata holds
    the hidden-layer count.
    """
    arrays: list[np.ndarray] = []
    for layer in params.hidden:
        arrays.append(layer.w)
        arrays.append(layer.b)
    arrays.append(params.final_weights)
    container.write_container(path, container.KIND_CHECKPOINT, (len(params.hidden), 0), arrays)


def load_checkpoint(path) -> ModelParams:
    kind, meta, arrays = container.read_container(path)
    if kind != container.KIND_CHECKPOINT:
        raise ValueError(f"{path}: container kind {kind} is not a checkpoint")
    n_hidden = meta[0]
    if len(arrays) != 2 * n_hidden + 1:
        raise ValueError(f"{path}: expected {2 * n_hidden + 1} arrays, found {len(arrays)}")
    hidden = [DenseLayer(arrays[2 * i], arrays[2 * i + 1]) for i in range(n_hidden)]
    params = ModelParams(hidden, arrays[2 * n_hidden])
    if not np.all(np.isfinite(params.flat)):
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return params
