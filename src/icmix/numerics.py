"""Dense float64 matrix helpers, stable reductions, and a seeded RNG.

Everything downstream operates on plain 2-D ``numpy.float64`` arrays in
row-major (C) order; :func:`matrix` is the checked entry point for data
coming in from files or initializers. The random generator is a hand-rolled
xoshiro256++ so that draw sequences are reproducible bit for bit across
platforms and processes, independent of any library version.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Uniform draws live on the 2^-53 grid, where the complement 1 - u is exact.
# Beta draws are snapped to the same grid (see RngState.sample_beta) so that
# complementary mixing weights (lam, 1 - lam) are an exact involution.
_TWO_53 = float(1 << 53)
_INV_2_53 = 2.0 ** -53


def matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 2-D array.

    Rejects non-finite entries; this is the constructor used whenever data
    enters the system from a file, a dataset, or parameter initialization.
    """
    m = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def softmax_log_z(m: np.ndarray, axis: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Softmax along ``axis`` of a 2-D array and the log normalizer of each slice.

    Max-shifted, with one exponential: ``p`` is a new array of ``m``'s shape,
    and ``log_z = max + log(sum(exp(m - max)))`` along ``axis``, exact for a
    single element. Adding a constant to a slice leaves its softmax unchanged
    and shifts its ``log_z`` by the constant. Raises on an empty reduction.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[axis] < 1:
        raise ValueError(f"empty reduction or not 2-D: shape {m.shape}, axis {axis}")
    mx = np.max(m, axis=axis, keepdims=True)
    p = m - mx
    np.exp(p, out=p)
    sums = np.sum(p, axis=axis, keepdims=True)
    log_z = mx.ravel() + np.log(sums.ravel())
    p /= sums
    return p, log_z


def round_half_up(x: float) -> int:
    """Nearest integer with .5 rounding away from zero toward +inf."""
    return int(math.floor(x + 0.5))


def _mix64(x: int) -> int:
    # splitmix64 finalizer; used for seeding and stream derivation
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class RngState:
    """Seeded xoshiro256++ generator with distribution helpers.

    The draw sequence is a pure function of the seed: the same seed yields
    the same values on every platform and in every process. Instances are
    single-owner; do not share one state between concurrent users. Instead,
    call :meth:`derive` to split off an independent stream, which depends
    only on ``(seed, stream)`` and never on draws already made.

    Beta(a, a) sampling uses two Marsaglia-Tsang gamma draws (with the
    standard power boost for shape < 1); normals use the Marsaglia polar
    method. Both are implemented here, on top of this generator, so the
    whole stack stays version-independent.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        s = self.seed
        state = []
        for _ in range(4):
            s = (s + _GOLDEN) & _MASK64
            state.append(_mix64(s))
        if not any(state):
            state[0] = 1  # all-zero state is the one forbidden xoshiro state
        self._s = state
        self._spare_normal: float | None = None

    def derive(self, stream: int) -> "RngState":
        """Independent child generator for the given stream index."""
        child = _mix64(self.seed ^ _mix64(((int(stream) + 1) * _GOLDEN) & _MASK64))
        return RngState(child)

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * _INV_2_53

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        span = _MASK64 + 1
        limit = span - span % n
        while True:
            r = self.next_uint64()
            if r < limit:
                return r % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        idx = np.arange(n)
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def uniforms(self, n: int) -> np.ndarray:
        return np.array([self.random() for _ in range(n)], dtype=np.float64)

    def normal(self) -> float:
        """Standard normal draw (Marsaglia polar, spare value cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        while True:
            u = 2.0 * self.random() - 1.0
            v = 2.0 * self.random() - 1.0
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        f = math.sqrt(-2.0 * math.log(s) / s)
        self._spare_normal = v * f
        return u * f

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def _gamma(self, shape: float) -> float:
        if shape < 1.0:
            # boost: Gamma(a) = Gamma(a + 1) * U^(1/a) for a < 1
            while True:
                u = self.random()
                if u > 0.0:
                    break
            return self._gamma(shape + 1.0) * u ** (1.0 / shape)
        d = shape - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            t = 1.0 + c * x
            if t <= 0.0:
                continue
            v = t * t * t
            u = self.random()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if u == 0.0 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def sample_beta(self, alpha: float) -> float:
        """One draw from Beta(alpha, alpha), strictly inside (0, 1).

        Draws are snapped to the 2^-53 grid so the complement 1 - lam is
        exact, which keeps complementary mixing weights bit-symmetric.
        """
        if not 0.0 < alpha < math.inf:
            raise ValueError("invalid shape parameter")
        a = float(alpha)
        while True:
            g1 = self._gamma(a)
            g2 = self._gamma(a)
            total = g1 + g2
            if total > 0.0 and 0.0 < g1 < total:
                lam = math.floor((g1 / total) * _TWO_53) * _INV_2_53
                if 0.0 < lam < 1.0:
                    return lam
                if lam == 0.0:
                    return _INV_2_53
