"""A small feedforward classifier with exact forward/backward passes.

Flattened inputs pass through zero or more rectified-linear hidden layers
into a final linear classifier W with no bias, so a mixed classifier
W @ y_tilde is an exact interpolation of the class weight columns. The
optimizer is SGD with classical heavy-ball momentum, L2 weight decay on
weight matrices (not biases); the training loop sets the learning rate.
"""

from __future__ import annotations

import itertools
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


def _layout(dims) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each tensor's shape in flat order (the weight matrices, then the hidden biases), and the
    flat index of each tensor in checkpoint order (hidden0.w, hidden0.b, ..., final_weights)."""
    n = len(dims) - 2  # hidden layers
    shapes = [*zip(dims, dims[1:]), *((d,) for d in dims[1:-1])]
    return shapes, [i for k in range(n) for i in (k, n + 1 + k)] + [n]


class ModelParams:
    """Every parameter tensor as a view into one C-contiguous float64 vector.

    ``dims`` are the layer widths ``[input, *hidden, classes]``. ``flat``
    holds the weight matrices first (hidden0.w, ..., final_weights) and the
    hidden biases after them, so weight decay covers the prefix
    ``flat[:num_decayed]``. Gradients and momentum share this layout, and
    ``_layout`` and this class are the only code that knows the tensor order
    and offsets. Without ``flat``, the vector starts at zero.
    """

    def __init__(self, dims, flat: np.ndarray | None = None):
        self.dims = [int(d) for d in dims]
        shapes, self._checkpoint_index = _layout(self.dims)
        ends = [0, *itertools.accumulate(map(math.prod, shapes))]
        self.flat = np.zeros(ends[-1]) if flat is None else flat
        if self.flat.shape != (ends[-1],):
            raise ValueError(f"flat has shape {self.flat.shape}, widths {self.dims} need ({ends[-1]},)")
        self._views = [self.flat[start:stop].reshape(s) for start, stop, s in zip(ends, ends[1:], shapes)]
        n = len(self.dims) - 2  # hidden layers
        self.hidden = [DenseLayer(w, b) for w, b in zip(self._views[:n], self._views[n + 1:])]
        self.final_weights = self._views[n]
        self.num_decayed = ends[n + 1]

    @staticmethod
    def checkpoint_shapes(dims) -> list[tuple[int, ...]]:
        """The shapes of ``checkpoint_order()`` for layer widths ``dims``, found without allocating."""
        shapes, index = _layout(dims)
        return [shapes[i] for i in index]

    def checkpoint_order(self) -> list[np.ndarray]:
        """The tensors in checkpoint order: hidden0.w, hidden0.b, ..., final_weights."""
        return [self._views[i] for i in self._checkpoint_index]

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def num_classes(self) -> int:
        return self.dims[-1]


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
    params = ModelParams([input_dim, *hidden_dims, num_classes])
    params.flat[:params.num_decayed] = rng.uniforms(params.num_decayed)
    for w in [layer.w for layer in params.hidden] + [params.final_weights]:
        w *= 2.0
        w -= 1.0
        w *= math.sqrt(6.0 / w.shape[0])
    return params


def forward(params: ModelParams, inputs: np.ndarray) -> ForwardCache:
    """Run the network, keeping every intermediate for the backward pass.

    Raw uint8 pixels are refused: ``Dataset.rows`` turns them into features.
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
    grads = ModelParams(params.dims, np.empty_like(params.flat))
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


# flat entries per block of sgd_step: the four vectors' blocks (1 MB in all) stay in cache between ops
_SGD_BLOCK = 32768


def sgd_step(params: ModelParams, grads: ModelParams, momentum: np.ndarray,
             lr: float, mu: float, weight_decay: float) -> None:
    """One heavy-ball update, in place: m = m*mu + (g + wd*p), p -= lr*m.

    ``momentum`` is a vector in the parameters' flat layout. Weight decay
    covers the weight prefix of the flat vector. The biases keep the
    ``0.0 * p`` term of a zero decay: dropping it would flip the sign of some
    zero momentum entries, and with them some zero parameters. The update
    runs over blocks of the flat vector, each through the same elementwise
    ops, so the result does not depend on the block size.
    """
    n = params.num_decayed
    p, g, m = params.flat, grads.flat, momentum
    scratch = np.empty(min(_SGD_BLOCK, p.size))
    for start in range(0, p.size, _SGD_BLOCK):
        stop = start + _SGD_BLOCK
        pb, gb, mb, t = p[start:stop], g[start:stop], m[start:stop], scratch[:p.size - start]
        k = max(n - start, 0)  # the block's decayed prefix
        mb *= mu
        np.multiply(pb[:k], weight_decay, t[:k])
        np.multiply(pb[k:], 0.0, t[k:])
        t += gb
        mb += t
        np.multiply(mb, lr, t)
        pb -= t


def save_checkpoint(params: ModelParams, path) -> None:
    """Write ``params.checkpoint_order()`` to the flat binary container (kind 1),
    with the hidden-layer count as metadata."""
    container.write_container(path, container.KIND_CHECKPOINT, (len(params.hidden), 0),
                              params.checkpoint_order())


def load_checkpoint(path) -> ModelParams:
    """Read a kind-1 checkpoint; every error names ``path``.

    The layer widths are the first weight matrix's rows and every weight
    matrix's columns (arrays 0, 2, ..., 2 * n_hidden). Each array's shape is
    checked against them before the parameter vector is allocated, so a
    crafted header cannot make the loader allocate more than the file holds.
    """
    kind, meta, arrays = container.read_container(path)
    if kind != container.KIND_CHECKPOINT:
        raise ValueError(f"{path}: container kind {kind} is not a checkpoint")
    n_hidden = meta[0]
    if len(arrays) != 2 * n_hidden + 1:
        raise ValueError(f"{path}: expected {2 * n_hidden + 1} arrays, found {len(arrays)}")
    weights = [a.shape for a in arrays[0::2]]
    dims = [s[0] if s else 0 for s in weights[:1]] + [s[-1] if s else 0 for s in weights]
    if min(dims) < 1:
        raise ValueError(f"{path}: layer widths {dims} must all be at least 1")
    for i, (a, expected) in enumerate(zip(arrays, ModelParams.checkpoint_shapes(dims))):
        if a.shape != expected:
            raise ValueError(f"{path}: array {i} has shape {a.shape}, expected {expected}")
    params = ModelParams(dims)
    for a, view in zip(arrays, params.checkpoint_order()):
        view[...] = a
    if not np.all(np.isfinite(params.flat)):
        raise ValueError(f"{path}: checkpoint holds non-finite parameters")
    return params
