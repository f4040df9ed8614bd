"""Training objectives over interpolated classifiers.

A mixed sample's target is a classifier vector W @ y_tilde interpolated from
the original class weights. Scoring a batch of B mixed samples against the
B interpolated classifiers of that batch gives the B x B matrix
``s_tilde = S @ Y_tilde.T`` whose diagonal holds the positive pairs. The two
contrastive objectives are cross-entropy with diagonal targets along each
axis of that matrix:

  cc  rows:    each sample against every interpolated class in the batch
  ci  columns: each interpolated class against every sample in the batch

The joint objective sums both. Standard soft-label mixup cross-entropy is
included for the baselines, together with closed-form gradients of all
three objectives with respect to the final-layer weights. The closed forms
follow the sum-over-batch log-likelihood (ascent) convention, so each
equals -B times the gradient of the corresponding mean loss; they exist to
cross-check the chain-rule path and are verified against it in the tests.

All losses reduce by mean over the batch, and gradients are taken with
respect to the logits S; propagation into W and the network body is the
model's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mixing import AXES
from .numerics import softmax_log_z


@dataclass
class MixedScoreMatrix:
    """Logits to the original classes plus scores to the in-batch mixed classes.

    ``s`` is B x C (features against the original classifiers), ``s_tilde``
    the B x B product s @ mix_weights.T, and ``mix_weights`` the B x C matrix
    of per-sample class contributions.
    """

    s: np.ndarray
    s_tilde: np.ndarray
    mix_weights: np.ndarray

    @classmethod
    def from_logits(cls, s: np.ndarray, mix_weights: np.ndarray) -> "MixedScoreMatrix":
        s = np.asarray(s, dtype=np.float64)
        mix_weights = np.asarray(mix_weights, dtype=np.float64)
        if s.ndim != 2 or mix_weights.ndim != 2 or s.shape != mix_weights.shape:
            raise ValueError(
                f"logits {s.shape} and mix weights {mix_weights.shape} must both be B x C"
            )
        return cls(s, s @ mix_weights.T, mix_weights)


@dataclass
class LossResult:
    """Scalar mean-per-sample loss with its gradient w.r.t. the logits S."""

    value: float
    grad_s: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def build_mixed_classifier(w: np.ndarray, y_tilde: np.ndarray) -> np.ndarray:
    """Interpolated classifier vector W @ y_tilde (length D).

    For a one-hot y_tilde this is exactly the corresponding column of W.
    """
    w = np.asarray(w, dtype=np.float64)
    y_tilde = np.asarray(y_tilde, dtype=np.float64).ravel()
    if w.ndim != 2 or w.shape[1] != y_tilde.shape[0]:
        raise ValueError(f"weights {w.shape} incompatible with mixing vector of length {y_tilde.shape[0]}")
    return w @ y_tilde


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


def _diagonal_ce(ms: MixedScoreMatrix, axis: int, name: str) -> LossResult:
    """Cross-entropy along ``axis`` of s_tilde with diagonal targets, from one exponential.

    Sums run along ``axis`` of s_tilde itself: a contiguous transpose would sum in another order.
    """
    z, log_z = softmax_log_z(ms.s_tilde, axis)
    z.flat[:: len(z) + 1] -= 1.0  # softmax minus the identity
    z /= len(z)
    return LossResult(float(np.mean(log_z - np.diag(ms.s_tilde))), z @ ms.mix_weights,
                      {"axis": name, f"log_z_{name}": log_z})


def loss_cc(ms: MixedScoreMatrix) -> LossResult:
    """Class-axis contrastive loss: each row of s_tilde against its diagonal.

    Negatives are the other interpolated classes scored on the same sample.
    """
    return _diagonal_ce(ms, axis=1, name="cc")


def loss_ci(ms: MixedScoreMatrix) -> LossResult:
    """Pair-axis contrastive loss: each column of s_tilde against its diagonal.

    Negatives are the other mixed samples scored with the same interpolated
    classifier; identical to loss_cc applied to s_tilde transposed.
    """
    return _diagonal_ce(ms, axis=0, name="ci")


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
    diagnostics = {"loss_cc": cc.value, "loss_ci": ci.value,
                   "log_z_cc": cc.diagnostics["log_z_cc"], "log_z_ci": ci.diagnostics["log_z_ci"]}
    return LossResult(cc.value + ci.value, cc.grad_s + ci.grad_s, diagnostics)


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
    value = float(-np.sum(y_tilde * (s - log_z[:, None])) / b)
    p -= y_tilde
    p /= b
    return LossResult(value, p, {"log_z": log_z})


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
    p, _ = softmax_log_z(ms.s_tilde)
    return r.T @ (ms.mix_weights - p @ ms.mix_weights)


def grad_w_ci(r: np.ndarray, ms: MixedScoreMatrix) -> np.ndarray:
    """Closed-form final-layer gradient of the pair-axis log-likelihood.

    Column c is sum_i y_tilde_ic (r_i - sum_j p_ci(i|j) r_j): each class
    contribution is weighted by the sample's feature vector minus the
    expected feature vector under that class's column softmax. Ascent
    convention.
    """
    r = np.asarray(r, dtype=np.float64)
    q, _ = softmax_log_z(ms.s_tilde, axis=0)  # q[j, i] = p_ci(class i | sample j)
    centered = r.T - r.T @ q  # column i: r_i - expected feature under class i
    return centered @ ms.mix_weights
