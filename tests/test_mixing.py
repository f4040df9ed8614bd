import numpy as np
import pytest

from icmix.mixing import (
    ClassHistogram,
    MixBatch,
    MixConfig,
    mix_batch,
    one_hot,
    regmixup_compose,
    remix_label_ratio,
)
from icmix.losses import loss_ic_joint, mixed_scores
from icmix.numerics import RngState


class _ForcedLambdaRng:
    """Real permutation stream, fixed interpolation ratio."""

    def __init__(self, seed, lam):
        self._rng = RngState(seed)
        self.lam = lam

    def permutation(self, n):
        return self._rng.permutation(n)

    def sample_beta(self, alpha):
        return self.lam


def _random_batch(rng, b, d, c):
    inputs = rng.normals(b * d).reshape(b, d)
    labels = np.array([rng.randbelow(c) for _ in range(b)], dtype=np.int64)
    return inputs, labels


def test_mix_config_validation():
    with pytest.raises(ValueError, match="unknown method"):
        MixConfig(method="cutmix")
    with pytest.raises(ValueError, match="alpha"):
        MixConfig(alpha=0.0)
    with pytest.raises(ValueError, match="alpha must be >= 0.001"):
        MixConfig(alpha=1e-4)
    with pytest.raises(ValueError, match="tau"):
        MixConfig(tau=1.5)
    with pytest.raises(ValueError, match="kappa"):
        MixConfig(kappa=0.5)
    with pytest.raises(ValueError, match="unknown axes"):
        MixConfig(axes="rows")


def test_method_none_is_identity():
    rng = RngState(1)
    inputs, labels = _random_batch(rng, 5, 4, 3)
    hist = ClassHistogram.from_labels(labels, 3)
    batch = mix_batch(inputs, labels, MixConfig(method="none"), hist, rng)
    assert np.array_equal(batch.inputs, inputs)
    assert np.array_equal(batch.mix_weights, one_hot(labels, 3))
    assert np.all(batch.lambdas == 1.0)
    assert np.array_equal(batch.pair_indices[:, 0], batch.pair_indices[:, 1])


def test_lambda_one_reproduces_clean_batch():
    rng = _ForcedLambdaRng(2, 1.0)
    real = RngState(3)
    inputs, labels = _random_batch(real, 6, 4, 3)
    hist = ClassHistogram.from_labels(labels, 3)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup"), hist, rng)
    assert np.array_equal(batch.inputs, inputs)
    assert np.array_equal(batch.mix_weights, one_hot(labels, 3))


def test_halfway_mix_arithmetic():
    inputs = np.array([[0.0, 2.0], [2.0, 0.0]])
    labels = np.array([0, 1])
    hist = ClassHistogram.from_labels(labels, 2)

    class _Rng:
        def permutation(self, n):
            return np.array([1, 0])

        def sample_beta(self, alpha):
            return 0.5

    batch = mix_batch(inputs, labels, MixConfig(method="mixup"), hist, _Rng())
    assert np.array_equal(batch.inputs, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(batch.mix_weights, 0.5)


def test_same_class_pair_weights_are_one_hot():
    inputs = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 1])
    hist = ClassHistogram.from_labels(labels, 3)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup"), hist, RngState(4))
    assert np.array_equal(batch.mix_weights, one_hot(labels, 3))


def test_mixed_inputs_match_elementwise_oracle():
    rng = RngState(5)
    inputs, labels = _random_batch(rng, 8, 6, 4)
    hist = ClassHistogram.from_labels(labels, 4)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup", alpha=0.4), hist, RngState(6))
    for i in range(8):
        a, b = batch.pair_indices[i]
        lam = batch.lambdas[i]
        for k in range(6):
            expected = lam * inputs[a, k] + (1.0 - lam) * inputs[b, k]
            assert abs(batch.inputs[i, k] - expected) < 1e-12


def test_mix_weights_rows_sum_to_one_nonnegative():
    rng = RngState(7)
    for method in ("mixup", "ic_mixup", "remix", "ic_remix", "regmixup"):
        inputs, labels = _random_batch(rng, 16, 3, 5)
        hist = ClassHistogram.from_labels(labels, 5)
        batch = mix_batch(inputs, labels, MixConfig(method=method, alpha=0.2), hist, rng)
        assert np.all(batch.mix_weights >= 0.0)
        assert np.max(np.abs(batch.mix_weights.sum(axis=1) - 1.0)) < 1e-12
        # pairwise mixing: at most two nonzero entries per row
        assert int(np.max((batch.mix_weights > 0).sum(axis=1))) <= 2
        assert np.all(batch.lambdas >= 0.0) and np.all(batch.lambdas <= 1.0)


def test_swap_symmetry_bitwise():
    rng = RngState(8)
    inputs, _ = _random_batch(rng, 2, 7, 2)
    x_a, x_b = inputs[0], inputs[1]
    for _ in range(200):
        lam = rng.sample_beta(0.3)
        mu = 1.0 - lam
        row = lam * x_a + (1.0 - lam) * x_b
        swapped = mu * x_b + (1.0 - mu) * x_a
        assert np.array_equal(row, swapped)


def test_pairing_deterministic_given_rng():
    rng_a, rng_b = RngState(9), RngState(9)
    inputs, labels = _random_batch(RngState(10), 12, 4, 3)
    hist = ClassHistogram.from_labels(labels, 3)
    cfg = MixConfig(method="mixup")
    batch_a = mix_batch(inputs, labels, cfg, hist, rng_a)
    batch_b = mix_batch(inputs, labels, cfg, hist, rng_b)
    assert np.array_equal(batch_a.pair_indices, batch_b.pair_indices)
    assert np.array_equal(batch_a.inputs, batch_b.inputs)
    assert np.array_equal(batch_a.lambdas, batch_b.lambdas)


def test_batch_too_small_to_pair():
    inputs = np.array([[1.0, 2.0]])
    labels = np.array([0])
    hist = ClassHistogram.from_labels(labels, 2)
    with pytest.raises(ValueError, match="batch too small to pair"):
        mix_batch(inputs, labels, MixConfig(method="mixup"), hist, RngState(11))
    # but passthrough is fine
    mix_batch(inputs, labels, MixConfig(method="none"), hist, RngState(11))


class TestRemixRule:
    def test_majority_first_goes_to_zero(self):
        assert remix_label_ratio(0.4, 500, 100, 0.5, 3.0) == 0.0

    def test_minority_first_goes_to_one(self):
        assert remix_label_ratio(0.8, 100, 500, 0.5, 3.0) == 1.0

    def test_balanced_passthrough(self):
        assert remix_label_ratio(0.6, 300, 300, 0.5, 3.0) == 0.6

    def test_output_in_zero_lambda_one(self):
        rng = RngState(12)
        for _ in range(300):
            lam = rng.sample_beta(0.5)
            n_i = 1 + rng.randbelow(1000)
            n_j = 1 + rng.randbelow(1000)
            out = remix_label_ratio(lam, n_i, n_j, 0.5, 3.0)
            assert out in (0.0, lam, 1.0)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            remix_label_ratio(0.5, 0, 10, 0.5, 3.0)


def test_remix_batch_uses_histogram_counts():
    # class 0 hugely outnumbers class 1; a 0->1 pair with small lam flips to 0
    inputs = np.array([[1.0], [2.0]])
    labels = np.array([0, 1])
    hist = ClassHistogram(np.array([900, 100]))

    class _Rng:
        def permutation(self, n):
            return np.array([1, 0])

        def sample_beta(self, alpha):
            return 0.25

    batch = mix_batch(inputs, labels, MixConfig(method="remix"), hist, _Rng())
    # row 0: pair (class0, class1), ratio 9 >= kappa, lam 0.25 < tau -> weight on class 1
    assert np.array_equal(batch.mix_weights[0], np.array([0.0, 1.0]))
    # row 1: pair (class1, class0), ratio 1/9 <= 1/kappa, 1-lam 0.75 >= tau -> lam kept
    assert np.allclose(batch.mix_weights[1], np.array([0.75, 0.25]))
    # input mixing untouched by the label rule
    assert batch.inputs[0, 0] == pytest.approx(0.25 * 1.0 + 0.75 * 2.0)


class TestRegmixupCompose:
    def test_one_hot_passthrough(self):
        clean = np.array([[1.0, 2.0]])
        mixed = MixBatch(
            inputs=np.array([[3.0, 4.0]]),
            mix_weights=np.array([[0.5, 0.0, 0.5]]),
            lambdas=np.array([0.5]),
            pair_indices=np.array([[0, 0]]),
        )
        combo = regmixup_compose(clean, np.array([2]), mixed)
        assert combo.size == 2
        assert np.array_equal(combo.mix_weights[0], np.array([0.0, 0.0, 1.0]))
        assert combo.lambdas[0] == 1.0

    def test_composite_size_is_double(self):
        rng = RngState(13)
        for b in (1, 3, 8):
            inputs, labels = _random_batch(rng, max(b, 2), 4, 3)
            inputs, labels = inputs[:b], labels[:b]
            hist = ClassHistogram.from_labels(labels, 3)
            if b >= 2:
                mixed = mix_batch(inputs, labels, MixConfig(method="regmixup", alpha=20.0), hist, rng)
            else:
                mixed = MixBatch(inputs, one_hot(labels, 3), np.ones(b), np.zeros((b, 2), dtype=np.int64))
            combo = regmixup_compose(inputs, labels, mixed)
            assert combo.size == 2 * b

    def test_dimension_mismatch(self):
        mixed = MixBatch(np.zeros((2, 3)), np.eye(2), np.ones(2), np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="disagree"):
            regmixup_compose(np.zeros((2, 4)), np.array([0, 1]), mixed)

    def test_lambda_one_composite_equals_duplicated_clean(self):
        # force lam = 1 in the mixed half: the composite is the clean batch
        # duplicated, so the joint contrastive loss matches exactly
        rng = RngState(14)
        inputs, labels = _random_batch(rng, 5, 4, 3)
        hist = ClassHistogram.from_labels(labels, 3)
        mixed = mix_batch(inputs, labels, MixConfig(method="regmixup"), hist, _ForcedLambdaRng(15, 1.0))
        combo = regmixup_compose(inputs, labels, mixed)

        w = rng.normals(4 * 3).reshape(4, 3)
        ms_combo = mixed_scores(combo.inputs, w, combo.mix_weights)
        doubled_inputs = np.vstack([inputs, inputs])
        doubled_weights = np.vstack([one_hot(labels, 3), one_hot(labels, 3)])
        ms_dup = mixed_scores(doubled_inputs, w, doubled_weights)
        assert loss_ic_joint(ms_combo).value == loss_ic_joint(ms_dup).value
