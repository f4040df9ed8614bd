import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from icmix.numerics import RngState, matrix, softmax_log_z

from oracles import naive_log_sum_exp, naive_softmax_rows


def _log_z(values) -> float:
    """log(sum(exp(v))) of one vector, through the softmax kernel."""
    return float(softmax_log_z(np.asarray(values, dtype=np.float64)[None, :])[1][0])


class TestLogSumExp:
    def test_uniform_entries(self):
        assert _log_z([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_single_element_exact(self):
        assert _log_z([5.0]) == 5.0
        assert _log_z([-1234.5678]) == -1234.5678
        p, log_z = softmax_log_z(np.array([[3.5], [-1e300]]))
        assert p.tolist() == [[1.0], [1.0]] and log_z.tolist() == [3.5, -1e300]

    def test_large_entries_no_overflow(self):
        value = _log_z([1000.0, 1000.5])
        assert math.isfinite(value)
        # compare against the max-shifted direct computation
        assert value == pytest.approx(naive_log_sum_exp([1000.0, 1000.5], shift=1000.5), abs=1e-12)
        assert value == pytest.approx(1000.974077, abs=1e-6)

    def test_empty_reduction(self):
        for m, axis in ((np.empty((1, 0)), 1), (np.empty((0, 3)), 0), (np.empty(3), 1)):
            with pytest.raises(ValueError, match="empty reduction"):
                softmax_log_z(m, axis)

    def test_shift_invariance(self):
        rng = RngState(11)
        for _ in range(50):
            v = rng.normals(6) * 3.0
            c = rng.normal() * 100.0
            assert _log_z(v + c) == pytest.approx(_log_z(v) + c, abs=1e-12)

    def test_rows_variant_matches_vector(self):
        # each slice along either axis agrees with the scalar oracle
        rng = RngState(12)
        m = rng.normals(12).reshape(3, 4)
        _, rows = softmax_log_z(m)
        for i in range(3):
            assert rows[i] == pytest.approx(naive_log_sum_exp(m[i], shift=float(np.max(m[i]))), abs=1e-15)
        _, cols = softmax_log_z(m, axis=0)
        for j in range(4):
            assert cols[j] == pytest.approx(naive_log_sum_exp(m[:, j], shift=float(np.max(m[:, j]))), abs=1e-15)


class TestSoftmaxRows:
    def test_uniform_row(self):
        out, _ = softmax_log_z(np.zeros((1, 3)))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_known_ratio(self):
        out, _ = softmax_log_z(np.array([[0.0, math.log(3.0)]]))
        assert out[0, 0] == pytest.approx(0.25, abs=1e-15)
        assert out[0, 1] == pytest.approx(0.75, abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = RngState(13)
        m = rng.normals(20).reshape(4, 5) * 2.0
        assert np.max(np.abs(softmax_log_z(m)[0] - naive_softmax_rows(m))) < 1e-12
        # down columns it is the row softmax of the transpose
        assert np.max(np.abs(softmax_log_z(m, axis=0)[0] - naive_softmax_rows(m.T).T)) < 1e-12

    def test_rows_sum_to_one_large_magnitudes(self):
        rng = RngState(14)
        for scale in (1.0, 100.0, 1000.0):
            m = rng.normals(40).reshape(8, 5) * scale
            for axis in (0, 1):
                p, log_z = softmax_log_z(m, axis)
                assert np.max(np.abs(p.sum(axis=axis) - 1.0)) < 1e-12
                assert np.all(p >= 0.0) and np.all(np.isfinite(log_z))

    def test_row_shift_invariance(self):
        rng = RngState(15)
        m = rng.normals(15).reshape(3, 5)
        shifted = m + 17.25
        assert np.max(np.abs(softmax_log_z(m)[0] - softmax_log_z(shifted)[0])) < 1e-12
        assert np.max(np.abs(softmax_log_z(shifted)[1] - softmax_log_z(m)[1] - 17.25)) < 1e-12


class TestMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            matrix([[1.0, float("nan")]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            matrix([1.0, 2.0])

    def test_row_major_float64(self):
        m = matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.flags["C_CONTIGUOUS"]


class TestRng:
    def test_same_seed_same_sequence(self):
        a, b = RngState(99), RngState(99)
        assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]

    def test_derive_is_independent_of_draws(self):
        a, b = RngState(5), RngState(5)
        a.random()
        a.random()
        assert a.derive(3).next_uint64() == b.derive(3).next_uint64()
        assert a.derive(3).seed != a.derive(4).seed

    def test_beta_sequence_identical_across_processes(self):
        snippet = (
            "from icmix.numerics import RngState;"
            "r = RngState(123);"
            "print(repr([r.sample_beta(0.2) for _ in range(32)]))"
        )
        runs = [
            subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True)
            for _ in range(2)
        ]
        assert runs[0].returncode == 0 and runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout

    def test_invalid_shape_parameter(self):
        rng = RngState(0)
        # an infinite shape used to loop forever in the gamma rejection sampler
        for alpha in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="invalid shape parameter"):
                rng.sample_beta(alpha)

    def test_permutation_is_a_permutation(self):
        rng = RngState(21)
        for n in (1, 2, 17, 100):
            p = rng.permutation(n)
            assert sorted(p.tolist()) == list(range(n))

    def test_randbelow_range_and_coverage(self):
        rng = RngState(22)
        draws = [rng.randbelow(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    def test_complement_exact_on_grid(self):
        rng = RngState(23)
        for _ in range(500):
            lam = rng.sample_beta(0.7)
            assert 0.0 < lam < 1.0
            assert 1.0 - (1.0 - lam) == lam


@pytest.fixture(scope="module")
def beta_draws():
    out = {}
    for alpha in (0.2, 1.0, 5.0):
        rng = RngState(424242)
        out[alpha] = np.array([rng.sample_beta(alpha) for _ in range(100_000)])
    return out


class TestBetaStatistics:
    def test_mean_symmetric(self, beta_draws):
        for alpha, d in beta_draws.items():
            assert abs(d.mean() - 0.5) < 0.01, f"alpha={alpha}"

    def test_variance_closed_form(self, beta_draws):
        for alpha, d in beta_draws.items():
            target = 1.0 / (4.0 * (2.0 * alpha + 1.0))
            assert abs(d.var() - target) < 0.005, f"alpha={alpha}"

    def test_alpha_one_is_uniform_ks(self, beta_draws):
        d = beta_draws[1.0]
        critical = 1.628 / math.sqrt(d.size)  # 1% level
        assert stats.kstest(d, "uniform").statistic < critical

    def test_symmetry_two_sample_ks(self, beta_draws):
        for alpha, d in beta_draws.items():
            critical = 1.628 * math.sqrt(2.0 / d.size)  # 1% level
            assert stats.ks_2samp(d, 1.0 - d).statistic < critical, f"alpha={alpha}"
