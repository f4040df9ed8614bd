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
    """Weight/bias pair; also reused as the gradient container shape."""

    w: np.ndarray  # fan_in x fan_out
    b: np.ndarray  # fan_out


@dataclass
class ModelParams:
    hidden: list[DenseLayer]
    final_weights: np.ndarray  # D x C, no bias

    def __post_init__(self):
        dim = None
        for i, layer in enumerate(self.hidden):
            if layer.w.ndim != 2 or layer.b.shape != (layer.w.shape[1],):
                raise ValueError(f"hidden layer {i} has inconsistent shapes")
            if dim is not None and layer.w.shape[0] != dim:
                raise ValueError(f"hidden layer {i} input width {layer.w.shape[0]} != {dim}")
            dim = layer.w.shape[1]
        if self.final_weights.ndim != 2:
            raise ValueError("final_weights must be 2-D")
        if dim is not None and self.final_weights.shape[0] != dim:
            raise ValueError("final_weights input width does not chain with the hidden stack")

    @property
    def input_dim(self) -> int:
        return int(self.hidden[0].w.shape[0]) if self.hidden else int(self.final_weights.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.final_weights.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.final_weights.shape[1])


@dataclass
class ParamGrads:
    hidden: list[DenseLayer]
    final_weights: np.ndarray


@dataclass
class ForwardCache:
    """Intermediates of one forward pass, enough to run backward."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray]
    activations: list[np.ndarray]
    features: np.ndarray  # penultimate output, B x D
    logits: np.ndarray    # B x C


def init_model(input_dim: int, hidden_dims, num_classes: int, rng: RngState) -> ModelParams:
    """He-style fan-in scaled uniform init; biases start at zero.

    Entries are drawn row-major per tensor, tensors in layer order, so the
    parameters are a pure function of (architecture, rng state).
    """
    hidden = []
    fan_in = int(input_dim)
    for width in hidden_dims:
        limit = math.sqrt(6.0 / fan_in)
        w = np.array(
            [(2.0 * rng.random() - 1.0) * limit for _ in range(fan_in * width)],
            dtype=np.float64,
        ).reshape(fan_in, width)
        hidden.append(DenseLayer(w, np.zeros(width, dtype=np.float64)))
        fan_in = int(width)
    limit = math.sqrt(6.0 / fan_in)
    final = np.array(
        [(2.0 * rng.random() - 1.0) * limit for _ in range(fan_in * num_classes)],
        dtype=np.float64,
    ).reshape(fan_in, num_classes)
    return ModelParams(hidden, final)


def forward(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """Run the network, keeping every intermediate for the backward pass."""
    x = matrix(inputs, name="inputs")
    if x.shape[1] != params.input_dim:
        raise ValueError(f"input width {x.shape[1]} != model input width {params.input_dim}")
    pre, act = [], []
    h = x
    for layer in params.hidden:
        z = h @ layer.w + layer.b
        h = np.maximum(z, 0.0)
        pre.append(z)
        act.append(h)
    logits = h @ params.final_weights
    return ForwardCache(x, pre, act, h, logits)


def backward(params: ModelParams, cache: ForwardCache, grad_logits: np.ndarray) -> ParamGrads:
    """Gradients for every parameter tensor given d(loss)/d(logits)."""
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != cache.logits.shape:
        raise ValueError(f"grad_logits {grad_logits.shape} != logits {cache.logits.shape}")
    grad_final = cache.features.T @ grad_logits
    g = grad_logits @ params.final_weights.T
    hidden_grads: list[DenseLayer | None] = [None] * len(params.hidden)
    for k in range(len(params.hidden) - 1, -1, -1):
        dz = g * (cache.pre_activations[k] > 0.0)
        prev = cache.activations[k - 1] if k > 0 else cache.inputs
        hidden_grads[k] = DenseLayer(prev.T @ dz, dz.sum(axis=0))
        g = dz @ params.hidden[k].w.T
    return ParamGrads(hidden_grads, grad_final)


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
    """Momentum buffers plus the current learning rate and epoch counter."""

    def __init__(self, params: ModelParams, config: SgdConfig):
        self.config = config
        self.lr = config.lr
        self.epoch = 1
        self.buffers = ParamGrads(
            [DenseLayer(np.zeros_like(l.w), np.zeros_like(l.b)) for l in params.hidden],
            np.zeros_like(params.final_weights),
        )

    def set_epoch(self, epoch: int) -> None:
        self.epoch = int(epoch)
        self.lr = lr_for_epoch(self.config, self.epoch)


def _apply(param: np.ndarray, grad: np.ndarray, buf: np.ndarray, lr: float, momentum: float, wd: float) -> None:
    buf *= momentum
    buf += grad + wd * param
    param -= lr * buf


def sgd_step(params: ModelParams, grads: ParamGrads, state: OptimizerState) -> None:
    """One heavy-ball update, in place. Weight decay skips biases."""
    cfg = state.config
    for layer, g, buf in zip(params.hidden, grads.hidden, state.buffers.hidden):
        _apply(layer.w, g.w, buf.w, state.lr, cfg.momentum, cfg.weight_decay)
        _apply(layer.b, g.b, buf.b, state.lr, cfg.momentum, 0.0)
    _apply(params.final_weights, grads.final_weights, state.buffers.final_weights,
           state.lr, cfg.momentum, cfg.weight_decay)


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
    return ModelParams(hidden, arrays[2 * n_hidden])
