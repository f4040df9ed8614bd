"""Training objectives over interpolated classifiers.

A mixed sample's target is a classifier vector W @ y_tilde interpolated from
the original class weights. A batch of B mixed samples holds B interpolated
classifiers, but not B distinct ones: every clean row of a regmixup batch,
every same-class pair and every row remix snaps to one class holds a
one-hot classifier e_c. ``MixedScoreMatrix.from_logits`` groups the batch
into its U distinct classifiers, keyed in O(B): a one-hot row by its class,
every other row as its own classifier. It scores each sample against them,
``s_tilde = S @ classifiers.T`` (B x U), and keeps each classifier's count
n_u and each row's own column. The two contrastive objectives are
cross-entropy along each axis of the B x B matrix ``s_tilde[:, column]``
with diagonal targets, computed on B x U with each column weighted by its
count:

  cc  rows:    each sample against every interpolated class in the batch
               (a row softmax of s_tilde + log n)
  ci  columns: each interpolated class against every sample in the batch
               (one column softmax per distinct classifier)

This is the dense objective, not an approximation: a duplicate still counts
as a negative, n_u times. When every classifier is distinct the operations
are the dense ones in the same order, and give the same bits.

The joint objective sums both. Standard soft-label mixup cross-entropy is
included for the baselines, together with closed-form gradients of all
three objectives with respect to the final-layer weights. The closed forms
follow the sum-over-batch log-likelihood (ascent) convention, so each
equals -B times the gradient of the corresponding mean loss; they exist to
cross-check the chain-rule path and are verified against it in the tests.
They expand ``s_tilde`` to B x B, so they stay a separate computation.

All losses reduce by mean over the batch, and gradients are taken with
respect to the logits S; propagation into W and the network body is the
model's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mixing import AXES
from .numerics import softmax_log_z


class ScoreBuffer:
    """Memory for the B x U score array of each batch's contrastive loss, kept for a whole run.

    Allocated fresh for every batch, the array changes size with U; freed
    into the heap, such arrays left 0-13 MB resident between batches,
    depending on the sequence of U, so a run's peak memory depended on its
    seed. One buffer of B^2 entries, taken on first use and touched only as
    far as the largest U reaches, holds it for every batch instead.
    """

    def __init__(self) -> None:
        self._flat = np.empty(0)

    def take(self, b: int, u: int) -> np.ndarray:
        """A B x U array over the buffer; the next call reuses its memory."""
        if self._flat.size < b * u:
            self._flat = np.empty(0)  # free the old buffer before allocating its successor
            self._flat = np.empty(b * b)
        return self._flat[:b * u].reshape(b, u)


@dataclass
class MixedScoreMatrix:
    """Logits to the original classes plus scores to the batch's distinct interpolated classifiers.

    ``s`` is B x C (features against the original classifiers),
    ``classifiers`` the U x C distinct rows of the batch's mix weights in
    order of first occurrence, ``counts`` how many rows hold each,
    ``column`` each row's own classifier, and ``s_tilde`` the B x U product
    s @ classifiers.T. The B x B dense score matrix is ``s_tilde[:, column]``.
    Each loss call works in ``s_tilde`` itself and fills it with the same
    scores again before it returns.
    """

    s: np.ndarray
    s_tilde: np.ndarray
    classifiers: np.ndarray
    counts: np.ndarray
    column: np.ndarray

    @classmethod
    def from_logits(cls, s: np.ndarray, mix_weights: np.ndarray,
                    buffer: ScoreBuffer | None = None) -> "MixedScoreMatrix":
        """Group the B x C ``mix_weights`` rows and score ``s`` against each distinct one.

        A row whose only nonzero entry is exactly 1.0 is e_c and is keyed by
        c; every other row is its own classifier, so unequal rows never merge.
        With ``buffer``, ``s_tilde`` lives in its memory and holds only until
        its next use.
        """
        s = np.asarray(s, dtype=np.float64)
        mix_weights = np.asarray(mix_weights, dtype=np.float64)
        if s.ndim != 2 or mix_weights.ndim != 2 or s.shape != mix_weights.shape:
            raise ValueError(
                f"logits {s.shape} and mix weights {mix_weights.shape} must both be B x C"
            )
        b, c = s.shape
        rows = np.arange(b)
        hot = (mix_weights.max(axis=1) == 1.0) & (np.count_nonzero(mix_weights, axis=1) == 1)
        hot_class = mix_weights.argmax(axis=1)
        first = np.full(c, b)  # the first row holding each one-hot class
        np.minimum.at(first, hot_class[hot], rows[hot])
        owner = np.where(hot, first[hot_class], rows)  # the first row holding each row's classifier
        leads = owner == rows
        column = (np.cumsum(leads) - 1)[owner]
        classifiers = mix_weights[leads]
        u = len(classifiers)
        s_tilde = np.empty((b, u)) if buffer is None else buffer.take(b, u)
        np.matmul(s, classifiers.T, out=s_tilde)
        return cls(s, s_tilde, classifiers, np.bincount(column, minlength=u), column)

    @property
    def mix_weights(self) -> np.ndarray:
        """The B x C mix weights, each row its own classifier."""
        return self.classifiers[self.column]


@dataclass
class LossResult:
    """Scalar mean-per-sample loss with its gradient w.r.t. the logits S."""

    value: float
    grad_s: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def mixed_scores(r: np.ndarray, w: np.ndarray, y_tilde: np.ndarray) -> MixedScoreMatrix:
    """Score features against original classes and in-batch mixed classes."""
    r = np.asarray(r, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    y_tilde = np.asarray(y_tilde, dtype=np.float64)
    if r.ndim != 2 or w.ndim != 2 or r.shape[1] != w.shape[0]:
        raise ValueError(f"features {r.shape} incompatible with weights {w.shape}")
    if y_tilde.shape != (r.shape[0], w.shape[1]):
        raise ValueError(f"mix weights {y_tilde.shape} must be {(r.shape[0], w.shape[1])}")
    return MixedScoreMatrix.from_logits(r @ w, y_tilde)


def _diagonal_ce(ms: MixedScoreMatrix, axis: int) -> LossResult:
    """Cross-entropy along ``axis`` of s_tilde[:, column] with diagonal targets, on the B x U scores.

    cc (axis 1) is a row softmax of s_tilde + log n, which counts classifier
    u n_u times; ci (axis 0) is one column softmax per distinct classifier,
    whose column u then stands for n_u equal columns. Sums run along
    ``axis`` of s_tilde itself: a contiguous transpose would sum in another
    order. The softmax overwrites s_tilde, so the scores are computed into
    it again at the end, by the call ``from_logits`` made: the same bits.
    """
    rows = np.arange(len(ms.column))
    z = ms.s_tilde
    diag = z[rows, ms.column]  # a copy, taken before the softmax overwrites z
    if axis == 1:
        z += np.log(ms.counts)
        z, log_z = softmax_log_z(z, 1, out=z)
    else:
        z, log_z = softmax_log_z(z, 0, out=z)
        z *= ms.counts
        log_z = log_z[ms.column]
    z[rows, ms.column] -= 1.0  # softmax minus each row's own classifier
    z /= len(rows)
    result = LossResult(float(np.mean(log_z - diag)), z @ ms.classifiers)
    np.matmul(ms.s, ms.classifiers.T, out=ms.s_tilde)
    return result


def loss_cc(ms: MixedScoreMatrix) -> LossResult:
    """Class-axis contrastive loss: each sample's row of s_tilde against its own column.

    Negatives are the other interpolated classes scored on the same sample,
    a duplicate of its own classifier included.
    """
    return _diagonal_ce(ms, axis=1)


def loss_ci(ms: MixedScoreMatrix) -> LossResult:
    """Pair-axis contrastive loss: each sample's own column of s_tilde against its row.

    Negatives are the other mixed samples scored with the same interpolated
    classifier; identical to loss_cc applied to the dense s_tilde[:, column]
    transposed.
    """
    return _diagonal_ce(ms, axis=0)


def loss_ic_joint(ms: MixedScoreMatrix, axes: str = "both") -> LossResult:
    """Contrastive loss over the selected axes of the mixed score matrix.

    With axes="both" the value is the plain (unweighted) sum of the cc and
    ci losses and the gradient is the sum of their gradients.
    """
    if axes not in AXES:
        raise ValueError(f"unknown axes {axes!r}, expected one of {AXES}")
    if axes == "cc":
        return loss_cc(ms)
    if axes == "ci":
        return loss_ci(ms)
    cc, ci = loss_cc(ms), loss_ci(ms)
    return LossResult(cc.value + ci.value, cc.grad_s + ci.grad_s, {"loss_cc": cc.value, "loss_ci": ci.value})


def loss_mixup_ce(s: np.ndarray, y_tilde: np.ndarray) -> LossResult:
    """Soft-label cross-entropy against the original C classes.

    This is the standard mixup objective; with one-hot rows it degenerates
    to plain hard-label cross-entropy.
    """
    s = np.asarray(s, dtype=np.float64)
    y_tilde = np.asarray(y_tilde, dtype=np.float64)
    if s.shape != y_tilde.shape:
        raise ValueError(f"logits {s.shape} and targets {y_tilde.shape} must match")
    b = s.shape[0]
    p, log_z = softmax_log_z(s)
    value = float(-(y_tilde * (s - log_z[:, None])).sum() / b)
    p -= y_tilde
    p /= b
    return LossResult(value, p)


def grad_w_mixup(r: np.ndarray, s: np.ndarray, y_tilde: np.ndarray) -> np.ndarray:
    """Closed-form final-layer gradient of the mixup log-likelihood.

    Column c is sum_i r_i (y_tilde_ic - p(c|x_i)): the ground-truth class
    contribution minus the expected (predicted) contribution. Ascent
    convention; equals -B times the mean-loss gradient w.r.t. W.
    """
    r = np.asarray(r, dtype=np.float64)
    p, _ = softmax_log_z(s)
    return r.T @ (np.asarray(y_tilde, dtype=np.float64) - p)


def grad_w_cc(r: np.ndarray, ms: MixedScoreMatrix) -> np.ndarray:
    """Closed-form final-layer gradient of the class-axis log-likelihood.

    Column c is sum_i r_i (y_tilde_ic - sum_j p_cc(j|i) y_tilde_jc), with
    p_cc the row softmax of s_tilde: the expected class contribution is
    estimated over the batch's interpolated classes. Ascent convention.
    """
    r = np.asarray(r, dtype=np.float64)
    y = ms.mix_weights
    p, _ = softmax_log_z(ms.s_tilde[:, ms.column])
    return r.T @ (y - p @ y)


def grad_w_ci(r: np.ndarray, ms: MixedScoreMatrix) -> np.ndarray:
    """Closed-form final-layer gradient of the pair-axis log-likelihood.

    Column c is sum_i y_tilde_ic (r_i - sum_j p_ci(i|j) r_j): each class
    contribution is weighted by the sample's feature vector minus the
    expected feature vector under that class's column softmax. Ascent
    convention.
    """
    r = np.asarray(r, dtype=np.float64)
    q, _ = softmax_log_z(ms.s_tilde[:, ms.column], axis=0)  # q[j, i] = p_ci(class i | sample j)
    centered = r.T - r.T @ q  # column i: r_i - expected feature under class i
    return centered @ ms.mix_weights
