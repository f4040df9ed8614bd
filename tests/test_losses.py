import math
import re

import numpy as np
import pytest

from icmix.losses import (
    MixedScoreMatrix,
    build_mixed_classifier,
    grad_w_cc,
    grad_w_ci,
    grad_w_mixup,
    loss_cc,
    loss_ci,
    loss_ic_joint,
    loss_mixup_ce,
    mixed_scores,
)
from icmix.mixing import one_hot
from icmix.numerics import RngState, softmax_log_z

from oracles import (
    dense_contrastive_grad_s,
    fd_grad,
    max_rel_err,
    naive_contrastive_loss,
    naive_cross_entropy,
    naive_hard_cross_entropy,
    naive_mixed_scores,
    two_pass_mixup_ce,
)


def _instance(seed, b, c, d, alpha=1.0):
    rng = RngState(seed)
    r = rng.normals(b * d).reshape(b, d)
    w = 0.7 * rng.normals(d * c).reshape(d, c)
    labels = np.array([rng.randbelow(c) for _ in range(b)], dtype=np.int64)
    perm = rng.permutation(b)
    lam = np.array([rng.sample_beta(alpha) for _ in range(b)])
    y = lam[:, None] * one_hot(labels, c) + (1.0 - lam)[:, None] * one_hot(labels[perm], c)
    return r, w, y


def _regmixup_instance(seed, b, c, d):
    # clean one-hot rows stacked over a mixed batch, as regmixup composes one:
    # repeated classes in the clean half give identical s_tilde columns
    r, w, y = _instance(seed, b, c, d)
    rng = RngState(seed + 1)
    clean_r = rng.normals(b * d).reshape(b, d)
    labels = np.array([rng.randbelow(c) for _ in range(b)], dtype=np.int64)
    return np.vstack([clean_r, r]), w, np.vstack([one_hot(labels, c), y])


def _large_instances(seed):
    """Batches past numpy's 8-entry pairwise-summation threshold, plain and regmixup-style."""
    yield _instance(seed, b=64, c=10, d=6)
    yield _instance(seed + 1, b=300, c=10, d=4)
    yield _regmixup_instance(seed + 2, b=32, c=3, d=5)


class TestBuildMixedClassifier:
    def test_one_hot_selects_column(self):
        rng = RngState(1)
        w = rng.normals(12).reshape(4, 3)
        for c in range(3):
            y = np.zeros(3)
            y[c] = 1.0
            assert np.array_equal(build_mixed_classifier(w, y), w[:, c])

    def test_midpoint(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(build_mixed_classifier(w, np.array([0.5, 0.5])), np.array([0.5, 0.5]))

    def test_matches_naive_weighted_column_sum(self):
        rng = RngState(2)
        w = rng.normals(30).reshape(5, 6)
        y = rng.uniforms(6)
        y /= y.sum()
        expected = np.zeros(5)
        for c in range(6):
            expected += y[c] * w[:, c]
        assert np.max(np.abs(build_mixed_classifier(w, y) - expected)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_mixed_classifier(np.zeros((4, 3)), np.zeros(5))


class TestMixedScores:
    def test_identity_weights_give_logits(self):
        rng = RngState(3)
        r = rng.normals(12).reshape(3, 4)
        w = rng.normals(12).reshape(4, 3)
        ms = mixed_scores(r, w, np.eye(3))
        assert np.array_equal(ms.s_tilde, ms.s)

    def test_single_pair_scalar(self):
        rng = RngState(4)
        r = rng.normals(4).reshape(1, 4)
        w = rng.normals(12).reshape(4, 3)
        y = np.array([[0.3, 0.7, 0.0]])
        ms = mixed_scores(r, w, y)
        assert ms.s_tilde.shape == (1, 1)
        expected = float(r[0] @ build_mixed_classifier(w, y[0]))
        assert abs(ms.s_tilde[0, 0] - expected) < 1e-12

    def test_matches_per_pair_oracle(self):
        r, w, y = _instance(5, b=5, c=7, d=3)
        ms = mixed_scores(r, w, y)
        assert np.max(np.abs(ms.s_tilde - naive_mixed_scores(r, w, y))) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mixed_scores(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros((2, 5)))


@pytest.mark.parametrize("call, message", [
    (lambda: MixedScoreMatrix.from_logits(np.zeros(3), np.zeros(3)), "logits (3,) and mix weights (3,)"),
    (lambda: MixedScoreMatrix.from_logits(np.zeros((2, 3)), np.zeros(6)), "logits (2, 3) and mix weights (6,)"),
    (lambda: MixedScoreMatrix.from_logits(np.zeros((2, 3)), np.zeros((3, 3))), "logits (2, 3) and mix weights (3, 3)"),
    (lambda: mixed_scores(np.zeros((2, 4)), np.zeros((4, 3)), np.zeros((2, 2))), "mix weights (2, 2) must be (2, 3)"),
    (lambda: mixed_scores(np.zeros((2, 4)), np.zeros((4, 3)), np.zeros(6)), "mix weights (6,) must be (2, 3)"),
    (lambda: loss_mixup_ce(np.zeros((2, 3)), np.zeros((2, 4))), "logits (2, 3) and targets (2, 4) must match"),
    (lambda: loss_mixup_ce(np.zeros((2, 3)), np.zeros(6)), "logits (2, 3) and targets (6,) must match"),
], ids=["from_logits_1d", "from_logits_flat_weights", "from_logits_rows", "mixed_scores_classes",
        "mixed_scores_flat_weights", "mixup_ce_classes", "mixup_ce_flat_targets"])
def test_shape_mismatch_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


class TestLossCc:
    def test_uniform_two_by_two(self):
        ms = MixedScoreMatrix(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        assert loss_cc(ms).value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_saturated_diagonal(self):
        ms = MixedScoreMatrix(np.zeros((3, 3)), np.diag([50.0, 50.0, 50.0]), np.eye(3))
        assert loss_cc(ms).value < 1e-9

    def test_value_matches_bruteforce_normalizer(self):
        for r, w, y in [_instance(6, b=3, c=4, d=5), *_large_instances(60)]:
            ms = mixed_scores(r, w, y)
            assert loss_cc(ms).value == pytest.approx(naive_contrastive_loss(ms.s_tilde, "cc"), abs=1e-12)

    def test_grad_is_dense_formula_bitwise(self):
        for r, w, y in [_instance(6, b=3, c=4, d=5), *_large_instances(61)]:
            ms = mixed_scores(r, w, y)
            assert np.array_equal(loss_cc(ms).grad_s, dense_contrastive_grad_s(ms.s_tilde, y, "cc"))

    def test_grad_matches_finite_differences(self):
        r, w, y = _instance(7, b=3, c=4, d=5)
        ms = mixed_scores(r, w, y)
        numeric = fd_grad(lambda s: loss_cc(MixedScoreMatrix.from_logits(s, y)).value, ms.s)
        assert max_rel_err(loss_cc(ms).grad_s, numeric) < 1e-6

    def test_row_shift_leaves_loss_unchanged(self):
        r, w, y = _instance(8, b=4, c=3, d=4)
        ms = mixed_scores(r, w, y)
        base = loss_cc(ms).value
        shifted = ms.s_tilde.copy()
        shifted[2, :] += 123.456
        ms_shift = MixedScoreMatrix(ms.s, shifted, y)
        assert abs(loss_cc(ms_shift).value - base) < 1e-10


class TestLossCi:
    def test_uniform_gives_log_b(self):
        for b in (2, 3, 5):
            ms = MixedScoreMatrix(np.zeros((b, b)), np.zeros((b, b)), np.eye(b))
            assert loss_ci(ms).value == pytest.approx(math.log(b), abs=1e-12)

    def test_symmetric_matrix_equals_cc_exactly(self):
        for b in (4, 64, 300):
            rng = RngState(9)
            a = rng.normals(b * b).reshape(b, b)
            sym = a + a.T
            ms = MixedScoreMatrix(np.zeros((b, b)), sym, np.eye(b))
            if b < 8:
                assert loss_ci(ms).value == loss_cc(ms).value
            else:
                # from 8 entries numpy sums a contiguous row pairwise but a
                # column in sequence, so the axes agree only up to rounding
                assert loss_ci(ms).value == pytest.approx(loss_cc(ms).value, rel=1e-15)

    def test_value_matches_bruteforce_normalizer(self):
        for r, w, y in [_instance(10, b=4, c=5, d=3), *_large_instances(100)]:
            ms = mixed_scores(r, w, y)
            assert loss_ci(ms).value == pytest.approx(naive_contrastive_loss(ms.s_tilde, "ci"), abs=1e-12)

    def test_grad_is_dense_formula_bitwise(self):
        for r, w, y in [_instance(10, b=4, c=5, d=3), *_large_instances(101)]:
            ms = mixed_scores(r, w, y)
            assert np.array_equal(loss_ci(ms).grad_s, dense_contrastive_grad_s(ms.s_tilde, y, "ci"))

    def test_grad_matches_finite_differences(self):
        r, w, y = _instance(11, b=4, c=3, d=5)
        ms = mixed_scores(r, w, y)
        numeric = fd_grad(lambda s: loss_ci(MixedScoreMatrix.from_logits(s, y)).value, ms.s)
        assert max_rel_err(loss_ci(ms).grad_s, numeric) < 1e-6

    def test_column_shift_leaves_loss_unchanged(self):
        r, w, y = _instance(12, b=4, c=3, d=4)
        ms = mixed_scores(r, w, y)
        base = loss_ci(ms).value
        shifted = ms.s_tilde.copy()
        shifted[:, 1] += -77.7
        assert abs(loss_ci(MixedScoreMatrix(ms.s, shifted, y)).value - base) < 1e-10


class TestLossJoint:
    def test_uniform_gives_two_log_b(self):
        ms = MixedScoreMatrix(np.zeros((4, 4)), np.zeros((4, 4)), np.eye(4))
        assert loss_ic_joint(ms, "both").value == pytest.approx(2.0 * math.log(4.0), abs=1e-12)

    def test_single_axis_selection(self):
        r, w, y = _instance(13, b=4, c=3, d=4)
        ms = mixed_scores(r, w, y)
        assert loss_ic_joint(ms, "cc").value == loss_cc(ms).value
        assert np.array_equal(loss_ic_joint(ms, "cc").grad_s, loss_cc(ms).grad_s)
        assert loss_ic_joint(ms, "ci").value == loss_ci(ms).value

    def test_both_is_bitwise_sum(self):
        small = [_instance(100 + seed, b=5, c=4, d=3) for seed in range(5)]
        for r, w, y in [*small, *_large_instances(110)]:
            ms = mixed_scores(r, w, y)
            joint = loss_ic_joint(ms, "both")
            assert joint.value == loss_cc(ms).value + loss_ci(ms).value
            assert np.array_equal(joint.grad_s, loss_cc(ms).grad_s + loss_ci(ms).grad_s)

    def test_unknown_axes(self):
        ms = MixedScoreMatrix(np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ValueError, match="unknown axes"):
            loss_ic_joint(ms, "diag")


class TestLossMixupCe:
    def test_one_hot_reduces_to_hard_ce(self):
        rng = RngState(14)
        s = rng.normals(15).reshape(5, 3)
        labels = np.array([0, 2, 1, 1, 0])
        res = loss_mixup_ce(s, one_hot(labels, 3))
        assert res.value == pytest.approx(naive_hard_cross_entropy(s, labels), abs=1e-12)

    def test_zero_logits_give_log_c(self):
        _, _, y = _instance(15, b=4, c=6, d=3)
        assert loss_mixup_ce(np.zeros((4, 6)), y).value == pytest.approx(math.log(6.0), abs=1e-12)

    def test_value_matches_naive_oracle(self):
        r, w, y = _instance(16, b=5, c=4, d=3)
        s = r @ w
        assert loss_mixup_ce(s, y).value == pytest.approx(naive_cross_entropy(s, y), abs=1e-12)

    def test_grad_matches_finite_differences(self):
        r, w, y = _instance(17, b=4, c=5, d=3)
        s = r @ w
        numeric = fd_grad(lambda ss: loss_mixup_ce(ss, y).value, s)
        assert max_rel_err(loss_mixup_ce(s, y).grad_s, numeric) < 1e-6

    def test_grad_rows_sum_to_zero(self):
        r, w, y = _instance(18, b=6, c=4, d=5)
        grad = loss_mixup_ce(r @ w, y).grad_s
        assert np.max(np.abs(grad.sum(axis=1))) < 1e-12

    @pytest.mark.parametrize("b", [1, 32, 300])
    def test_bitwise_equal_to_two_pass_formula(self, b):
        # one exponential gives the same bits as separate log-sum-exp and softmax passes
        r, w, y = _instance(46 + b, b=b, c=10, d=8)
        for scale in (0.1, 1.0, 40.0):
            s = scale * (r @ w)
            res = loss_mixup_ce(s, y)
            value, grad_s, log_z = two_pass_mixup_ce(s, y)
            assert np.float64(res.value).view(np.uint64) == np.float64(value).view(np.uint64)
            assert np.array_equal(res.grad_s.view(np.uint64), grad_s.view(np.uint64))
            assert np.array_equal(softmax_log_z(s)[1].view(np.uint64), log_z.view(np.uint64))


class TestGradWMixup:
    def test_fixed_point_at_perfect_predictions(self):
        # logits whose softmax reproduces the targets: gradient vanishes
        rng = RngState(19)
        r = rng.normals(12).reshape(3, 4)
        y = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        s = np.log(y)  # softmax(log p) = p for rows summing to 1
        assert np.linalg.norm(grad_w_mixup(r, s, y)) < 1e-8

    def test_single_sample_uniform_predictions(self):
        rng = RngState(20)
        d, c = 5, 4
        r = rng.normals(d).reshape(1, d)
        y = one_hot(np.array([2]), c)
        s = np.zeros((1, c))  # uniform predictions
        grad = grad_w_mixup(r, s, y)
        expected_col = r[0] * (1.0 - 1.0 / c)
        assert np.max(np.abs(grad[:, 2] - expected_col)) < 1e-12
        for other in (0, 1, 3):
            assert np.max(np.abs(grad[:, other] + r[0] / c)) < 1e-12

    def test_mean_field_identity_and_chain_rule(self):
        r, w, y = _instance(21, b=5, c=3, d=4)
        s = r @ w
        grad = grad_w_mixup(r, s, y)
        p, _ = softmax_log_z(s)
        assert np.array_equal(grad, r.T @ (y - p))
        # independent scalar-loop accumulation
        looped = np.zeros_like(grad)
        for c in range(3):
            for i in range(5):
                looped[:, c] += r[i] * (y[i, c] - p[i, c])
        assert np.max(np.abs(grad - looped)) < 1e-12
        chain = r.T @ loss_mixup_ce(s, y).grad_s
        assert np.max(np.abs(grad + 5 * chain)) < 1e-12


class TestGradWContrastive:
    def test_b1_gradients_exactly_zero(self):
        r, w, y = _instance(22, b=1, c=3, d=4)
        # single-row batch cannot borrow from the mixing helper; build directly
        rng = RngState(22)
        r = rng.normals(4).reshape(1, 4)
        w = rng.normals(12).reshape(4, 3)
        y = np.array([[0.25, 0.75, 0.0]])
        ms = mixed_scores(r, w, y)
        assert np.all(grad_w_cc(r, ms) == 0.0)
        assert np.all(grad_w_ci(r, ms) == 0.0)

    def test_cc_fixed_point_saturated_identity(self):
        rng = RngState(23)
        r = rng.normals(16).reshape(4, 4)
        ms = MixedScoreMatrix(np.zeros((4, 4)), np.diag([60.0] * 4), np.eye(4))
        assert np.linalg.norm(grad_w_cc(r, ms)) < 1e-8

    def test_ci_identical_features_exactly_zero(self):
        rng = RngState(24)
        row = rng.normals(5)
        r = np.tile(row, (4, 1))
        w = rng.normals(15).reshape(5, 3)
        _, _, y = _instance(24, b=4, c=3, d=5)
        ms = mixed_scores(r, w, y)
        assert np.all(grad_w_ci(r, ms) == 0.0)

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_cc_two_oracles(self, seed):
        r, w, y = _instance(seed, b=4, c=3, d=5)
        ms = mixed_scores(r, w, y)
        closed = grad_w_cc(r, ms)
        chain = r.T @ loss_cc(ms).grad_s
        assert np.max(np.abs(closed + 4 * chain)) < 1e-10
        numeric = fd_grad(lambda ww: loss_cc(mixed_scores(r, ww, y)).value, w)
        assert max_rel_err(closed, -4 * numeric) < 1e-6

    @pytest.mark.parametrize("seed", [33, 34, 35])
    def test_ci_two_oracles(self, seed):
        r, w, y = _instance(seed, b=4, c=3, d=5)
        ms = mixed_scores(r, w, y)
        closed = grad_w_ci(r, ms)
        chain = r.T @ loss_ci(ms).grad_s
        assert np.max(np.abs(closed + 4 * chain)) < 1e-10
        numeric = fd_grad(lambda ww: loss_ci(mixed_scores(r, ww, y)).value, w)
        assert max_rel_err(closed, -4 * numeric) < 1e-6


class TestStructuralInvariants:
    def test_one_hot_distinct_classes_reduce_cc_to_restricted_ce(self):
        rng = RngState(40)
        b = 4
        r = rng.normals(b * 5).reshape(b, 5)
        w = rng.normals(5 * 7).reshape(5, 7)
        classes = np.array([6, 0, 3, 2])  # distinct
        y = one_hot(classes, 7)
        ms = mixed_scores(r, w, y)
        restricted = ms.s[:, classes]  # b x b score matrix over the batch classes
        expected = naive_hard_cross_entropy(restricted, np.arange(b))
        assert loss_cc(ms).value == pytest.approx(expected, abs=1e-12)

    def test_naive_path_equivalence_many_sizes(self):
        rng = RngState(41)
        for b, c, d in [(2, 3, 2), (5, 7, 3), (16, 10, 8), (9, 4, 6)]:
            r, w, y = _instance(1000 + b + c + d, b=b, c=c, d=d)
            ms = mixed_scores(r, w, y)
            assert np.max(np.abs(ms.s_tilde - naive_mixed_scores(r, w, y))) < 1e-12

    def test_permutation_equivariance(self):
        r, w, y = _instance(42, b=6, c=4, d=5)
        ms = mixed_scores(r, w, y)
        perm = RngState(43).permutation(6)
        ms_p = mixed_scores(r[perm], w, y[perm])
        for fn in (loss_cc, loss_ci, lambda m: loss_ic_joint(m, "both")):
            assert fn(ms_p).value == pytest.approx(fn(ms).value, abs=1e-12)
        base = loss_mixup_ce(ms.s, y).value
        assert loss_mixup_ce(ms_p.s, y[perm]).value == pytest.approx(base, abs=1e-12)

    def test_extreme_score_magnitudes_stay_finite(self):
        rng = RngState(45)
        st = rng.normals(25).reshape(5, 5) * 1000.0
        ms = MixedScoreMatrix(np.zeros((5, 5)), st, np.eye(5))
        for fn in (loss_cc, loss_ci, lambda m: loss_ic_joint(m, "both")):
            res = fn(ms)
            assert math.isfinite(res.value)
            assert np.all(np.isfinite(res.grad_s))
        res = loss_mixup_ce(st, np.eye(5))
        assert math.isfinite(res.value) and np.all(np.isfinite(res.grad_s))

    def test_diagnostics_split_the_joint_value(self):
        r, w, y = _instance(44, b=3, c=4, d=5)
        ms = mixed_scores(r, w, y)
        res = loss_ic_joint(ms, "both")
        assert res.diagnostics == {"loss_cc": loss_cc(ms).value, "loss_ci": loss_ci(ms).value}
        assert res.diagnostics["loss_cc"] + res.diagnostics["loss_ci"] == res.value
        # per-row loss terms, from the row and column normalizers, reconstruct each axis
        for axis, fn in ((1, loss_cc), (0, loss_ci)):
            terms = softmax_log_z(ms.s_tilde, axis)[1] - np.diag(ms.s_tilde)
            assert np.mean(terms) == pytest.approx(fn(ms).value, abs=1e-15)
