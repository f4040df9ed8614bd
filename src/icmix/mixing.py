"""Mixed-batch construction.

Covers the standard pairing scheme (the batch interpolated against a random
permutation of itself), the remix label-ratio adjustment for long-tailed
class frequencies, and the regmixup composition that trains on clean and
mixed samples side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import matrix

METHODS = ("none", "mixup", "ic_mixup", "regmixup", "ic_regmixup", "remix", "ic_remix")
AXES = ("cc", "ci", "both")

IC_METHODS = frozenset({"ic_mixup", "ic_regmixup", "ic_remix"})
REGMIXUP_METHODS = frozenset({"regmixup", "ic_regmixup"})
REMIX_METHODS = frozenset({"remix", "ic_remix"})


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


def _checked_labels(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be 1-D")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return labels


def _checked_partners(partners, b: int) -> np.ndarray:
    """``partners`` as an array, each a row of the batch: in [0, b), so none wraps around from the end."""
    partners = np.asarray(partners)
    if partners.size and (partners.min() < 0 or partners.max() >= b):
        raise ValueError(f"partners must lie in [0, {b})")
    return partners


def one_hot(labels, num_classes: int) -> np.ndarray:
    """B x C one-hot matrix from integer labels."""
    labels = _checked_labels(labels, num_classes)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def mix_weights(labels, partners, lam_y, num_classes: int) -> np.ndarray:
    """Target rows lam_y[i] * e(labels[i]) + (1 - lam_y[i]) * e(labels[partners[i]]).

    The one row rule: a mixed row, a remix row (lam_y snapped to 0 or 1) and
    a clean row (its own partner, lam_y = 1) are all built here. Each row
    starts at zero, takes lam_y at its own class, then adds 1 - lam_y at its
    partner's class. These are the bits of ``one_hot(labels) * lam_y[:, None]``
    plus the partner term, since 1.0 * lam is lam and 0.0 * lam is +0.0 for
    every ratio in [0, 1]. Labels and partners are checked: a partner outside
    [0, B) is a ValueError.
    """
    labels = _checked_labels(labels, num_classes)
    return _mix_weights(labels, _checked_partners(partners, labels.shape[0]), lam_y, num_classes)


def _mix_weights(labels: np.ndarray, partners, lam_y, num_classes: int) -> np.ndarray:
    """``mix_weights`` of labels an entry point has already checked."""
    rows = np.arange(labels.shape[0])
    out = np.zeros((labels.shape[0], num_classes))
    out[rows, labels] = lam_y
    out[rows, labels[partners]] += 1.0 - lam_y
    return out


def remix_label_ratio(lam, n_i, n_j, tau: float, kappa: float):
    """Label-mixing ratio for pairs with class counts (n_i, n_j), elementwise.

    Returns 0 when the first class outnumbers the second by at least kappa
    and lam < tau, 1 in the mirrored case, and lam otherwise; when both
    cases hold, 0 wins. The input interpolation ratio itself is never
    touched; only the label side is reassigned, which biases mixed labels
    toward the rarer class. Scalar arguments give a scalar. The snap to 1
    is applied first and the snap to 0 stored over it, which is how 0 wins.
    """
    lam, n_i, n_j = np.asarray(lam, dtype=np.float64), np.asarray(n_i), np.asarray(n_j)
    if (n_i < 1).any() or (n_j < 1).any():
        raise ValueError("class counts must be >= 1")
    ratio = n_i / n_j
    out = np.where((ratio <= 1.0 / kappa) & (1.0 - lam < tau), 1.0, lam)
    out[(ratio >= kappa) & (lam < tau)] = 0.0
    return out[()]


def mix_batch(
    inputs: np.ndarray,
    labels,
    config,
    histogram: ClassHistogram,
    draws: tuple[np.ndarray, np.ndarray] | None,
) -> MixBatch:
    """Build a mixed batch by pairing the batch against a permutation of itself.

    ``draws`` is a (partners, lambdas) pair: row i is interpolated with row
    ``partners[i]`` at its own Beta(alpha, alpha) ratio ``lambdas[i]``, as
    :func:`icmix.numerics.plan_epoch` draws them; label weights use the same
    ratio for mixup-style methods and the remix rule for remix-style methods.
    Method "none" passes inputs through unchanged with one-hot weights and
    needs no draws. A partner outside [0, B) is a ValueError. For regmixup
    methods this builds only the mixed half; compose with the clean batch
    via :func:`regmixup_compose`. Of ``config``
    (a :class:`icmix.harness.MixConfig`) only ``method``, ``tau`` and ``kappa`` are read.
    """
    inputs = matrix(inputs, name="inputs")
    labels = _checked_labels(labels, histogram.num_classes)
    b = inputs.shape[0]
    if labels.shape != (b,):
        raise ValueError("labels length must match the batch size")
    if config.method == "none":
        return _clean(inputs, labels, histogram.num_classes)
    if b < 2:
        raise ValueError("batch too small to pair")
    perm, lambdas = draws
    if perm.shape != (b,) or lambdas.shape != (b,):
        raise ValueError("draws must hold one partner and one ratio per row")
    _checked_partners(perm, b)

    lam_col = lambdas[:, None]
    mixed_inputs = lam_col * inputs + (1.0 - lam_col) * inputs[perm]
    lam_y = lambdas
    if config.method in REMIX_METHODS:
        counts = histogram.counts
        lam_y = remix_label_ratio(lambdas, counts[labels], counts[labels[perm]], config.tau, config.kappa)
    weights = _mix_weights(labels, perm, lam_y, histogram.num_classes)
    return MixBatch(mixed_inputs, weights, lambdas, _pairs(np.arange(b), perm))


def _pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The (B, 2) int64 ``pair_indices`` of a batch."""
    pairs = np.empty((first.shape[0], 2), dtype=np.int64)
    pairs[:, 0] = first
    pairs[:, 1] = second
    return pairs


def _clean(inputs: np.ndarray, labels: np.ndarray, num_classes: int) -> MixBatch:
    """The batch unmixed: each row its own partner, lambda 1, one-hot weights; ``labels`` already checked."""
    rows = np.arange(inputs.shape[0])
    ones = np.ones(inputs.shape[0], dtype=np.float64)
    return MixBatch(inputs, _mix_weights(labels, rows, ones, num_classes), ones, _pairs(rows, rows))


def regmixup_compose(clean_inputs: np.ndarray, clean_labels, mixed: MixBatch) -> MixBatch:
    """Stack a clean batch (one-hot weights, lambda = 1) on top of a mixed one.

    The composite batch of size 2B realizes the clean-plus-mixed objective
    through a single forward pass: any per-sample loss over the composite is
    the clean cross-entropy term plus the mixed term.
    """
    clean_inputs = matrix(clean_inputs, name="clean_inputs")
    clean_labels = np.asarray(clean_labels, dtype=np.int64)
    if mixed.inputs.shape != clean_inputs.shape:
        raise ValueError(
            f"clean batch {clean_inputs.shape} and mixed batch {mixed.inputs.shape} disagree"
        )
    if clean_labels.shape != (clean_inputs.shape[0],):
        raise ValueError("clean labels length must match the batch size")
    num_classes = mixed.mix_weights.shape[1]
    clean = _clean(clean_inputs, _checked_labels(clean_labels, num_classes), num_classes)
    return MixBatch(*(np.concatenate([getattr(clean, f.name), getattr(mixed, f.name)]) for f in fields(MixBatch)))
