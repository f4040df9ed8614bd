import numpy as np
import pytest

from icmix.mixing import (
    METHODS,
    ClassHistogram,
    MixBatch,
    mix_batch,
    mix_weights,
    one_hot,
    regmixup_compose,
    remix_label_ratio,
)
from icmix.harness import ConfigError, MixConfig
from icmix.losses import loss_ic_joint, mixed_scores
from icmix.numerics import RngState

from oracles import per_row_mix_batch, per_row_regmixup_compose


def _plan(rng, b, alpha=0.2):
    """A batch's draws as the scalar loop takes them: rng.permutation(b), then b rng.sample_beta(alpha) calls."""
    perm = rng.permutation(b)
    return perm, np.array([rng.sample_beta(alpha) for _ in range(b)])


def _draws(perm, lambdas):
    return np.array(perm), np.array(lambdas, dtype=np.float64)


def _forced(seed, b, lam):
    """A real partner permutation, every ratio ``lam``."""
    return _draws(RngState(seed).permutation(b), [lam] * b)


def _random_batch(rng, b, d, c):
    inputs = rng.normals(b * d).reshape(b, d)
    labels = np.array([rng.randbelow(c) for _ in range(b)], dtype=np.int64)
    return inputs, labels


def test_mix_config_validation():
    with pytest.raises(ConfigError, match=r"method\.name: must be one of"):
        MixConfig(method="cutmix")
    with pytest.raises(ConfigError, match="alpha"):
        MixConfig(alpha=0.0)
    with pytest.raises(ConfigError, match=r"method\.alpha: must be a finite number >= 0\.001"):
        MixConfig(alpha=1e-4)
    with pytest.raises(ConfigError, match=r"method\.alpha: must be a finite number >= 0\.001, got inf"):
        MixConfig(method="mixup", alpha=float("inf"))
    with pytest.raises(ConfigError, match="tau"):
        MixConfig(tau=1.5)
    with pytest.raises(ConfigError, match="kappa"):
        MixConfig(kappa=0.5)
    with pytest.raises(ConfigError, match=r"method\.kappa: must be a finite number >= 1, got inf"):
        MixConfig(method="remix", kappa=float("inf"))
    with pytest.raises(ConfigError, match=r"method\.axes: must be one of"):
        MixConfig(axes="rows")


@pytest.mark.parametrize("field", ["alpha", "tau", "kappa"])
def test_mix_config_rejects_bools(field):
    # True sits inside every range (alpha 1, tau 1, kappa 1), but the schema takes no bool
    with pytest.raises(ConfigError, match=rf"method\.{field}: must be .*, got True"):
        MixConfig(method="remix", **{field: True})


def test_method_none_is_identity():
    rng = RngState(1)
    inputs, labels = _random_batch(rng, 5, 4, 3)
    hist = ClassHistogram.from_labels(labels, 3)
    batch = mix_batch(inputs, labels, MixConfig(method="none"), hist, None)
    assert np.array_equal(batch.inputs, inputs)
    assert np.array_equal(batch.mix_weights, one_hot(labels, 3))
    assert np.all(batch.lambdas == 1.0)
    assert np.array_equal(batch.pair_indices[:, 0], batch.pair_indices[:, 1])


def test_lambda_one_reproduces_clean_batch():
    inputs, labels = _random_batch(RngState(3), 6, 4, 3)
    hist = ClassHistogram.from_labels(labels, 3)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup"), hist, _forced(2, 6, 1.0))
    assert np.array_equal(batch.inputs, inputs)
    assert np.array_equal(batch.mix_weights, one_hot(labels, 3))


def test_halfway_mix_arithmetic():
    inputs = np.array([[0.0, 2.0], [2.0, 0.0]])
    labels = np.array([0, 1])
    hist = ClassHistogram.from_labels(labels, 2)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup"), hist, _draws([1, 0], [0.5, 0.5]))
    assert np.array_equal(batch.inputs, np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert np.allclose(batch.mix_weights, 0.5)


def test_same_class_pair_weights_are_one_hot():
    inputs = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([1, 1])
    hist = ClassHistogram.from_labels(labels, 3)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup"), hist, _plan(RngState(4), 2))
    assert np.array_equal(batch.mix_weights, one_hot(labels, 3))


def test_mixed_inputs_match_elementwise_oracle():
    rng = RngState(5)
    inputs, labels = _random_batch(rng, 8, 6, 4)
    hist = ClassHistogram.from_labels(labels, 4)
    batch = mix_batch(inputs, labels, MixConfig(method="mixup", alpha=0.4), hist, _plan(RngState(6), 8, 0.4))
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
        batch = mix_batch(inputs, labels, MixConfig(method=method, alpha=0.2), hist, _plan(rng, 16))
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
    batch_a = mix_batch(inputs, labels, cfg, hist, _plan(rng_a, 12))
    batch_b = mix_batch(inputs, labels, cfg, hist, _plan(rng_b, 12))
    assert np.array_equal(batch_a.pair_indices, batch_b.pair_indices)
    assert np.array_equal(batch_a.inputs, batch_b.inputs)
    assert np.array_equal(batch_a.lambdas, batch_b.lambdas)


def test_batch_too_small_to_pair():
    inputs = np.array([[1.0, 2.0]])
    labels = np.array([0])
    hist = ClassHistogram.from_labels(labels, 2)
    with pytest.raises(ValueError, match="batch too small to pair"):
        mix_batch(inputs, labels, MixConfig(method="mixup"), hist, _plan(RngState(11), 1))
    # but passthrough is fine
    mix_batch(inputs, labels, MixConfig(method="none"), hist, None)


def test_draws_must_match_the_batch():
    inputs, labels = np.zeros((3, 2)), np.array([0, 1, 0])
    hist = ClassHistogram.from_labels(labels, 2)
    for draws in (_draws([1, 0], [0.5, 0.5]), _draws([1, 2, 0], [0.5, 0.5]), _plan(RngState(12), 4), None):
        with pytest.raises(ValueError, match="one partner and one ratio per row"):
            mix_batch(inputs, labels, MixConfig(method="mixup"), hist, draws)


@pytest.mark.parametrize("method", ["mixup", "remix"])
@pytest.mark.parametrize("bad", [-1, 4], ids=["minus_one", "batch_size"])
def test_partner_outside_the_batch_is_a_value_error(method, bad):
    # -1 used to wrap to the last row and be recorded in pair_indices; 4
    # raised numpy's IndexError
    inputs, labels = np.arange(8.0).reshape(4, 2), np.array([0, 1, 2, 0])
    hist = ClassHistogram.from_labels(labels, 3)
    partners = np.array([bad, 0, 1, 2])
    with pytest.raises(ValueError, match=r"partners must lie in \[0, 4\)"):
        mix_batch(inputs, labels, MixConfig(method=method), hist, _draws(partners, [0.5] * 4))
    with pytest.raises(ValueError, match=r"partners must lie in \[0, 4\)"):
        mix_weights(labels, partners, np.full(4, 0.5), 3)


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

    def test_scalars_give_a_scalar(self):
        for lam, n_i, n_j, expected in ((0.4, 500, 100, 0.0), (0.8, 100, 500, 1.0), (0.6, 300, 300, 0.6)):
            out = remix_label_ratio(lam, n_i, n_j, 0.5, 3.0)
            assert type(out) is np.float64 and out == expected

    def test_zero_wins_when_both_snaps_fire(self):
        # kappa 1 and equal counts meet both count rules; at tau 0.8 both ratio tests hold for lam in (0.2, 0.8)
        lam = np.array([0.3, 0.5, 0.7, 0.9, 0.1])
        assert np.array_equal(remix_label_ratio(lam, 4, 4, 0.8, 1.0), [0.0, 0.0, 0.0, 1.0, 0.0])
        assert remix_label_ratio(0.5, 4, 4, 0.8, 1.0) == 0.0


def test_remix_batch_uses_histogram_counts():
    # class 0 hugely outnumbers class 1; a 0->1 pair with small lam flips to 0
    inputs = np.array([[1.0], [2.0]])
    labels = np.array([0, 1])
    hist = ClassHistogram(np.array([900, 100]))
    batch = mix_batch(inputs, labels, MixConfig(method="remix"), hist, _draws([1, 0], [0.25, 0.25]))
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
                mixed = mix_batch(inputs, labels, MixConfig(method="regmixup", alpha=20.0), hist, _plan(rng, b, 20.0))
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
        mixed = mix_batch(inputs, labels, MixConfig(method="regmixup"), hist, _forced(15, 5, 1.0))
        combo = regmixup_compose(inputs, labels, mixed)

        w = rng.normals(4 * 3).reshape(4, 3)
        ms_combo = mixed_scores(combo.inputs, w, combo.mix_weights)
        doubled_inputs = np.vstack([inputs, inputs])
        doubled_weights = np.vstack([one_hot(labels, 3), one_hot(labels, 3)])
        ms_dup = mixed_scores(doubled_inputs, w, doubled_weights)
        assert loss_ic_joint(ms_combo).value == loss_ic_joint(ms_dup).value


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_same_batch(batch, expected):
    inputs, weights, lambdas, pairs = expected
    assert np.array_equal(_bits(batch.inputs), _bits(inputs))
    assert np.array_equal(_bits(batch.mix_weights), _bits(weights))
    assert np.array_equal(_bits(batch.lambdas), _bits(lambdas))
    assert np.array_equal(batch.pair_indices, pairs)


def _assert_matches_oracle(inputs, labels, config, counts, draws, rng):
    """mix_batch with ``draws`` and regmixup_compose equal the per-row formula drawing from ``rng``, bit for bit."""
    hist = ClassHistogram(counts)
    mixed = mix_batch(inputs, labels, config, hist, draws)
    expected = per_row_mix_batch(inputs, labels, config, hist.counts, rng)
    _assert_same_batch(mixed, expected)
    combo = regmixup_compose(inputs, labels, mixed)
    _assert_same_batch(combo, per_row_regmixup_compose(inputs, labels, expected, hist.num_classes))


class _ListRng:
    """A fixed permutation, then the given lambdas one draw at a time, for the oracle."""

    def __init__(self, perm, lambdas):
        self.perm = np.array(perm)
        self.lambdas = iter(lambdas)

    def permutation(self, n):
        return self.perm.copy()

    def sample_beta(self, alpha):
        return next(self.lambdas)


class TestPerRowOracle:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_batches_bit_equal(self, method, seed):
        rng = RngState(100 + seed)
        for trial in range(12):
            b = 1 + rng.randbelow(20) if method == "none" else 2 + rng.randbelow(20)
            c = 1 + rng.randbelow(6)
            inputs, labels = _random_batch(rng, b, 1 + rng.randbelow(5), c)
            # few classes with skewed counts: same-class pairs and remix snaps both occur
            counts = np.array([1 + rng.randbelow(1000) for _ in range(c)])
            config = MixConfig(method=method, alpha=(0.2, 1.0, 20.0)[trial % 3],
                               tau=rng.random(), kappa=1.0 + 4.0 * rng.random())
            draws = None if method == "none" else _plan(RngState(seed), b, config.alpha)
            _assert_matches_oracle(inputs, labels, config, counts, draws, RngState(seed))

    @pytest.mark.parametrize("method", ["remix", "ic_remix"])
    @pytest.mark.parametrize("tau,kappa", [(0.5, 3.0), (0.5, 1.0), (0.8, 1.0), (0.0, 1.0), (1.0, 3.0)])
    def test_remix_edges_bit_equal(self, method, tau, kappa):
        # class counts 900, 100, 300, 100: pairs (0, 1) and (1, 0) have ratios 9 and 1/9,
        # (2, 1) and (1, 2) ratios exactly kappa = 3 and 1/kappa, (1, 3) ratio 1
        counts = np.array([900, 100, 300, 100])
        labels = np.array([0, 1, 2, 1, 1, 3, 0, 0])
        perm = [1, 0, 3, 2, 5, 4, 7, 6]
        lambdas = [0.25, 0.8, 0.2, 0.9, tau, 1.0 - tau, 0.0, 1.0]
        inputs = RngState(21).normals(8 * 3).reshape(8, 3)
        config = MixConfig(method=method, tau=tau, kappa=kappa)
        _assert_matches_oracle(inputs, labels, config, counts, _draws(perm, lambdas), _ListRng(perm, lambdas))

    def test_remix_snaps_to_zero_and_one(self):
        counts = ClassHistogram(np.array([900, 100]))
        labels = np.array([0, 1, 1, 0])
        draws = _draws([1, 0, 3, 2], [0.25, 0.8, 0.8, 0.25])
        batch = mix_batch(np.zeros((4, 2)), labels, MixConfig(method="remix"), counts, draws)
        # rows 0 and 3 snap to the rarer partner class, rows 1 and 2 to their own rarer class
        assert np.array_equal(batch.mix_weights, np.array([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]))

    def test_clean_batch_of_one(self):
        inputs, labels = np.array([[0.5, -1.5]]), np.array([2])
        _assert_matches_oracle(inputs, labels, MixConfig(method="none"), np.array([3, 1, 1]), None, RngState(0))


def _one_hot_formula(labels, partners, lam_y, c):
    """The row rule as a product: lam_y times a one-hot matrix, plus 1 - lam_y at each partner's class."""
    out = one_hot(labels, c) * lam_y[:, None]
    out[np.arange(out.shape[0]), labels[partners]] += 1.0 - lam_y
    return out


@pytest.mark.parametrize("labels, partners, lam_y", [
    ([0, 1, 2, 1], [1, 0, 3, 2], [0.0, 1.0, 0.0, 1.0]),  # remix snaps: each row all one class
    ([2, 2, 0, 0], [1, 0, 3, 2], [0.3, 0.7, 0.0, 1.0]),  # same-class pairs
    ([0, 1, 2, 3], [0, 1, 3, 2], [0.25, 1.0, 0.6, 0.4]),  # rows 0 and 1 are their own partners
    ([0, 3, 1, 1, 2, 0], [5, 2, 1, 4, 0, 3], [0.5, 0.125, 1 / 3, 0.999, 1e-300, 5e-324]),
], ids=["snapped", "same_class", "fixed_point", "mixed"])
def test_mix_weights_equal_the_one_hot_formula_bitwise(labels, partners, lam_y):
    labels, partners, lam_y = np.array(labels), np.array(partners), np.array(lam_y)
    got = mix_weights(labels, partners, lam_y, 5)
    assert np.array_equal(_bits(got), _bits(_one_hot_formula(labels, partners, lam_y, 5)))


def test_mix_weights_equal_the_one_hot_formula_on_random_batches():
    rng = RngState(32)
    for _ in range(50):
        b, c = 1 + rng.randbelow(40), 1 + rng.randbelow(8)
        labels = np.array([rng.randbelow(c) for _ in range(b)])
        partners = rng.permutation(b)
        lam_y = np.array([(0.0, 1.0, rng.sample_beta(0.3))[rng.randbelow(3)] for _ in range(b)])
        got = mix_weights(labels, partners, lam_y, c)
        assert np.array_equal(_bits(got), _bits(_one_hot_formula(labels, partners, lam_y, c)))


def test_remix_label_ratio_elementwise_equals_scalar():
    rng = RngState(31)
    n = 400
    lam = np.array([rng.sample_beta(0.5) for _ in range(n)])
    lam[:6] = [0.0, 1.0, 0.5, 0.5, 0.25, 0.75]
    n_i = np.array([1 + rng.randbelow(12) for _ in range(n)])
    n_j = np.array([1 + rng.randbelow(12) for _ in range(n)])
    n_i[:6], n_j[:6] = [9, 1, 3, 1, 3, 1], [3, 3, 1, 3, 3, 3]
    for tau, kappa in ((0.5, 3.0), (0.8, 1.0), (0.3, 2.0)):
        out = remix_label_ratio(lam, n_i, n_j, tau, kappa)
        assert out.shape == (n,)
        for k in range(n):
            scalar = remix_label_ratio(float(lam[k]), int(n_i[k]), int(n_j[k]), tau, kappa)
            assert _bits(out[k]) == _bits(scalar)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_label_is_a_value_error(method, bad):
    hist = ClassHistogram(np.array([5, 5, 5]))
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
        mix_batch(np.zeros((2, 2)), np.array([0, bad]), MixConfig(method=method), hist, _plan(RngState(0), 2))


@pytest.mark.parametrize("call, message", [
    (lambda: ClassHistogram(np.array([3, -1, 2])), "counts must be a 1-D vector of non-negative integers"),
    (lambda: ClassHistogram(np.ones((2, 3))), "counts must be a 1-D vector of non-negative integers"),
    (lambda: one_hot(np.zeros((2, 1)), 3), "labels must be 1-D"),
    (lambda: mix_weights(np.zeros((2, 1)), np.array([1, 0]), np.ones(2), 3), "labels must be 1-D"),
    (lambda: mix_weights(np.array([0, 3]), np.array([1, 0]), np.ones(2), 3), r"labels must lie in \[0, 3\)"),
    (lambda: mix_batch(np.zeros((2, 2)), np.zeros((2, 1)), MixConfig(method="mixup"), ClassHistogram([1, 1]),
                       _plan(RngState(0), 2)), "labels must be 1-D"),
    (lambda: mix_batch(np.zeros((3, 2)), np.array([0, 1]), MixConfig(method="mixup"), ClassHistogram([1, 1]),
                       _plan(RngState(0), 3)), "labels length must match the batch size"),
    (lambda: mix_batch(np.zeros((2, 2)), np.array([0, 1, 0]), MixConfig(method="none"), ClassHistogram([1, 1]),
                       None), "labels length must match the batch size"),
    (lambda: regmixup_compose(np.zeros((2, 2)), np.array([0, 1, 1]),
                              MixBatch(np.zeros((2, 2)), np.eye(2), np.ones(2), np.zeros((2, 2), dtype=np.int64))),
     "clean labels length must match the batch size"),
], ids=["negative_count", "counts_2d", "one_hot_labels_2d", "mix_weights_labels_2d", "mix_weights_label_3",
        "mix_labels_2d", "mix_fewer_labels", "clean_more_labels", "compose_more_labels"])
def test_malformed_counts_and_labels_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()
