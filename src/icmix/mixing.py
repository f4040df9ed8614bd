"""Mixed-batch construction.

Covers the standard pairing scheme (the batch interpolated against a random
permutation of itself), the remix label-ratio adjustment for long-tailed
class frequencies, and the regmixup composition that trains on clean and
mixed samples side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngState, matrix

METHODS = ("none", "mixup", "ic_mixup", "regmixup", "ic_regmixup", "remix", "ic_remix")
AXES = ("cc", "ci", "both")

IC_METHODS = frozenset({"ic_mixup", "ic_regmixup", "ic_remix"})
REGMIXUP_METHODS = frozenset({"regmixup", "ic_regmixup"})
REMIX_METHODS = frozenset({"remix", "ic_remix"})

# Beta(alpha, alpha) draws slow down without bound as alpha shrinks: the
# sampler's Gamma boost u**(1/alpha) underflows to 0 and the draw is retried.
MIN_ALPHA = 1e-3


@dataclass(frozen=True)
class MixConfig:
    """Which mixing method to run and its knobs.

    ``alpha`` parameterizes the Beta(alpha, alpha) interpolation draw.
    ``tau`` and ``kappa`` are the remix interpolation and imbalance-ratio
    thresholds. ``axes`` selects the contrastive axis for the ic_* methods
    and is ignored otherwise.
    """

    method: str = "none"
    alpha: float = 0.2
    tau: float = 0.5
    kappa: float = 3.0
    axes: str = "both"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.axes not in AXES:
            raise ValueError(f"unknown axes {self.axes!r}, expected one of {AXES}")
        if not self.alpha >= MIN_ALPHA:
            raise ValueError(f"alpha must be >= {MIN_ALPHA:g}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if not self.kappa >= 1.0:
            raise ValueError("kappa must be >= 1")

    @property
    def contrastive(self) -> bool:
        return self.method in IC_METHODS

    @property
    def regmixup(self) -> bool:
        return self.method in REGMIXUP_METHODS


@dataclass
class MixBatch:
    """A batch after mixing.

    ``inputs`` holds the interpolated samples, ``mix_weights`` the per-sample
    class-contribution rows (at most two nonzero entries, summing to 1),
    ``lambdas`` the input interpolation ratios, and ``pair_indices`` the
    (first, second) source rows of each pair.
    """

    inputs: np.ndarray
    mix_weights: np.ndarray
    lambdas: np.ndarray
    pair_indices: np.ndarray

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass
class ClassHistogram:
    """Per-class sample counts of a training set."""

    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or np.any(self.counts < 0):
            raise ValueError("counts must be a 1-D vector of non-negative integers")

    @classmethod
    def from_labels(cls, labels, num_classes: int) -> "ClassHistogram":
        return cls(np.bincount(np.asarray(labels, dtype=np.int64), minlength=num_classes))

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])


def one_hot(labels, num_classes: int) -> np.ndarray:
    """B x C one-hot matrix from integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def remix_label_ratio(lam: float, n_i: int, n_j: int, tau: float, kappa: float) -> float:
    """Label-mixing ratio for a pair with class counts (n_i, n_j).

    Returns 0 when the first class outnumbers the second by at least kappa
    and lam < tau, 1 in the mirrored case, and lam otherwise. The input
    interpolation ratio itself is never touched; only the label side is
    reassigned, which biases mixed labels toward the rarer class.
    """
    if n_i < 1 or n_j < 1:
        raise ValueError("class counts must be >= 1")
    ratio = n_i / n_j
    if ratio >= kappa and lam < tau:
        return 0.0
    if ratio <= 1.0 / kappa and 1.0 - lam < tau:
        return 1.0
    return float(lam)


def mix_batch(
    inputs: np.ndarray,
    labels,
    config: MixConfig,
    histogram: ClassHistogram,
    rng: RngState,
) -> MixBatch:
    """Build a mixed batch by pairing the batch against a permutation of itself.

    Each row i is interpolated with row perm[i] using its own Beta(alpha,
    alpha) draw; label weights use the same ratio for mixup-style methods and
    the remix rule for remix-style methods. Method "none" passes inputs
    through unchanged with one-hot weights. For regmixup methods this builds
    only the mixed half; compose with the clean batch via
    :func:`regmixup_compose`.

    Draw order is fixed (one permutation, then one lambda per row), so the
    batch is fully determined by the generator state.
    """
    inputs = matrix(inputs, name="inputs")
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = histogram.num_classes
    b = inputs.shape[0]
    if labels.shape != (b,):
        raise ValueError("labels length must match the batch size")

    if config.method == "none":
        weights = one_hot(labels, num_classes)
        pairs = np.stack([np.arange(b), np.arange(b)], axis=1)
        return MixBatch(inputs, weights, np.ones(b, dtype=np.float64), pairs)

    if b < 2:
        raise ValueError("batch too small to pair")

    perm = rng.permutation(b)
    lambdas = np.array([rng.sample_beta(config.alpha) for _ in range(b)], dtype=np.float64)

    lam_col = lambdas[:, None]
    mixed_inputs = lam_col * inputs + (1.0 - lam_col) * inputs[perm]

    if config.method in REMIX_METHODS:
        counts = histogram.counts
        lam_y = np.array(
            [
                remix_label_ratio(
                    lambdas[i], int(counts[labels[i]]), int(counts[labels[perm[i]]]),
                    config.tau, config.kappa,
                )
                for i in range(b)
            ],
            dtype=np.float64,
        )
    else:
        lam_y = lambdas

    lam_y_col = lam_y[:, None]
    weights = lam_y_col * one_hot(labels, num_classes) + (1.0 - lam_y_col) * one_hot(labels[perm], num_classes)

    pairs = np.stack([np.arange(b), perm], axis=1)
    return MixBatch(mixed_inputs, weights, lambdas, pairs)


def regmixup_compose(clean_inputs: np.ndarray, clean_labels, mixed: MixBatch) -> MixBatch:
    """Stack a clean batch (one-hot weights, lambda = 1) on top of a mixed one.

    The composite batch of size 2B realizes the clean-plus-mixed objective
    through a single forward pass: any per-sample loss over the composite is
    the clean cross-entropy term plus the mixed term.
    """
    clean_inputs = matrix(clean_inputs, name="clean_inputs")
    clean_labels = np.asarray(clean_labels, dtype=np.int64)
    b, d = clean_inputs.shape
    num_classes = mixed.mix_weights.shape[1]
    if mixed.inputs.shape != (b, d):
        raise ValueError(
            f"clean batch {clean_inputs.shape} and mixed batch {mixed.inputs.shape} disagree"
        )
    if clean_labels.shape != (b,):
        raise ValueError("clean labels length must match the batch size")

    inputs = np.vstack([clean_inputs, mixed.inputs])
    weights = np.vstack([one_hot(clean_labels, num_classes), mixed.mix_weights])
    lambdas = np.concatenate([np.ones(b, dtype=np.float64), mixed.lambdas])
    clean_pairs = np.stack([np.arange(b), np.arange(b)], axis=1)
    pairs = np.vstack([clean_pairs, mixed.pair_indices])
    return MixBatch(inputs, weights, lambdas, pairs)
