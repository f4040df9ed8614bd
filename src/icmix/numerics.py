"""Dense float64 matrix helpers, stable reductions, and a seeded RNG.

Everything downstream operates on plain 2-D ``numpy.float64`` arrays in
row-major (C) order; :func:`matrix` is the checked entry point for data
coming in from files or initializers. The random generator is a hand-rolled
xoshiro256++ so that draw sequences are reproducible bit for bit across
platforms and processes, independent of any library version. Its bulk
samplers step many jump-ahead lanes of the one stream at once with numpy,
and draw exactly what the scalar samplers would. Bulk draws are generated a
block ahead, and every draw, scalar or bulk, reads that block first.
:func:`plan_epoch` draws a training epoch's shuffle, partner permutations
and Beta(a, a) ratios ahead, exactly as the scalar loop would.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Uniform draws live on the 2^-53 grid, where the complement 1 - u is exact.
# Beta draws are snapped to the same grid (see RngState.sample_beta) so that
# complementary mixing weights (lam, 1 - lam) are an exact involution.
_TWO_53 = float(1 << 53)
_INV_2_53 = 2.0 ** -53

_U64 = np.uint64
_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)
# below this many raw draws, the scalar loop is faster than setting up lanes
_BULK_MIN = 512
# bulk normals draw at most this many candidate pairs at once, and bulk
# permutations and plans at most twice as many raw draws, which keeps their
# temporary arrays small. All of them read raw draws from a read-ahead block
# of _BLOCK draws (see RngState._raw), so one lane set-up serves about three
# rounds or chunks; a block of 2**16 draws was faster, but its temporaries
# broke the plan's memory bound of a few chunks
_PAIRS_PER_ROUND = 4096
_CHUNK = 2 * _PAIRS_PER_ROUND
_BLOCK = 1 << 15


def matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce ``data`` to a C-contiguous float64 2-D array.

    Rejects non-finite entries (by the extremes, which NaN reaches: no mask);
    this is the constructor used whenever data enters the system from a
    file, a dataset, or parameter initialization.
    """
    m = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not (math.isfinite(m.min()) and math.isfinite(m.max())):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def softmax_log_z(m: np.ndarray, axis: int = 1, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Softmax along ``axis`` of a 2-D array and the log normalizer of each slice.

    Max-shifted, with one exponential: ``p`` is ``out`` (which may be ``m``
    itself) or a new array of ``m``'s shape, and ``log_z = max +
    log(sum(exp(m - max)))`` along ``axis``, exact for a single element.
    Adding a constant to a slice leaves its softmax unchanged and shifts its
    ``log_z`` by the constant. Raises on an empty reduction.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[axis] < 1:
        raise ValueError(f"empty reduction or not 2-D: shape {m.shape}, axis {axis}")
    mx = m.max(axis=axis, keepdims=True)
    p = np.subtract(m, mx, out=out)
    np.exp(p, out=p)
    sums = p.sum(axis=axis, keepdims=True)
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


def _step(s: list[int]) -> int:
    """One xoshiro256++ step of the four state words ``s``, in place; returns its output."""
    s0, s1, s2, s3 = s
    result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
    t = (s1 << 17) & _MASK64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s[:] = s0, s1, s2, _rotl(s3, 45)
    return result


def _step_lanes(s: np.ndarray, out: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256++ step of every column of ``s`` (4 x L uint64), in place.

    Writes each column's output to ``out``; ``t`` is scratch of length L.
    The same shifts, xors and wrapping adds as :func:`_step`.
    """
    s0, s1, s2, s3 = s
    np.add(s0, s3, out=t)
    np.left_shift(t, _U64(23), out=out)
    t >>= _U64(41)
    out |= t
    out += s0
    np.left_shift(s1, _U64(17), out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.right_shift(s3, _U64(19), out=t)
    s3 <<= _U64(45)
    s3 |= t


def _apply(m: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The GF(2)-linear map ``m`` applied to each row of ``states`` (k x 4 uint64).

    ``m`` is 256 x 4: row i is the image of the state whose only set bit is
    bit i, that is bit i % 64 of word i // 64. A state's image is the xor of
    the rows of its set bits, looked up four bits at a time in a 32 KB table,
    for 32 states at a time.
    """
    rows = m.reshape(64, 4, 4).transpose(1, 0, 2).reshape(4, 256)  # [bit b of nibble q][q, word]
    table = np.empty((16, 256), dtype=np.uint64)  # [nibble value v][q, word]: xor of rows 4q + b, b set in v
    table[0] = 0
    for b in range(4):
        np.bitwise_xor(table[:1 << b], rows[b], out=table[1 << b:2 << b])
    # nibble q = 16 w + j holds bits 4j .. 4j+3 of word w; its table row is v * 64 + q
    nibbles = (states[:, :, None] >> _NIBBLE_SHIFTS) & _U64(15)
    index = nibbles.reshape(len(states), 64).T.astype(np.intp)
    index *= 64
    index += np.arange(64)[:, None]
    out = np.empty((len(states), 4), dtype=np.uint64)
    for i in range(0, len(states), 32):
        np.bitwise_xor.reduce(table.reshape(1024, 4)[index[:, i:i + 32]], axis=0, out=out[i:i + 32])
    return out


@functools.cache
def _jump(log2_distance: int) -> np.ndarray:
    """The xoshiro256 state transition to the power 2**log2_distance, packed for :func:`_apply`."""
    if log2_distance == 0:
        bits = np.arange(256)
        units = np.zeros((4, 256), dtype=np.uint64)
        units[bits // 64, bits] = _U64(1) << (bits % 64).astype(np.uint64)
        _step_lanes(units, np.empty(256, dtype=np.uint64), np.empty(256, dtype=np.uint64))
        m = np.ascontiguousarray(units.T)
    else:
        half = _jump(log2_distance - 1)
        m = _apply(half, half)  # row i of M @ M is M applied to row i of M
    m.flags.writeable = False
    return m


def _lanes(words: list[int], n: int):
    """The ``n`` draws that follow state ``words``, by jump-ahead lanes.

    The stream is cut into lanes of ``steps`` = 2**k consecutive draws. Each
    lane starts from a jump ahead by a power of the (GF(2)-linear) state
    transition, and numpy steps all lanes in lockstep. Lane l is row l of
    the draws, so the rows read in stream order; a few steps at a time go
    through a small buffer, since writing one step across all rows is slow.
    Returns the draws, the lane starts (lanes x 4 uint64), ``steps`` and the
    state after draw ``n``.
    """
    log2_steps = max(0, int(n).bit_length() // 2 - 2)  # about 4 sqrt(n) lanes: measured fastest
    steps = 1 << log2_steps
    lanes = -(-n // steps)
    starts = np.array([words], dtype=np.uint64)
    log2_gap = log2_steps
    while len(starts) < lanes:  # doubling: the new lanes start 2**log2_gap draws after the old ones
        starts = np.concatenate([starts, _apply(_jump(log2_gap), starts)])
        log2_gap += 1
    starts = starts[:lanes]
    s = np.ascontiguousarray(starts.T)
    out = np.empty((lanes, steps), dtype=np.uint64)
    buf = np.empty((min(steps, 32), lanes), dtype=np.uint64)
    t = np.empty(lanes, dtype=np.uint64)
    last = n - (lanes - 1) * steps  # draws taken from the last lane
    for k in range(steps):
        _step_lanes(s, buf[k % len(buf)], t)
        if k + 1 == last:
            end = s[:, -1].tolist()
        if (k + 1) % len(buf) == 0:
            out[:, k + 1 - len(buf):k + 1] = buf.T
    return out.reshape(-1)[:n], starts, steps, end


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

    ``uniforms``, ``normals`` and ``permutation`` draw in bulk: the same
    values, in the same order, as that many calls of ``random``, ``normal``
    and ``randbelow``, computed with numpy array ops (see :meth:`_raw`).
    Bulk draws are generated ahead in blocks, which every draw reads first;
    ``_s`` is still the exact state after the last draw read.
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
        self._first = True  # _raw has generated nothing yet
        self._spare_normal: float | None = None

    def derive(self, stream: int) -> "RngState":
        """Independent child generator for the given stream index."""
        child = _mix64(self.seed ^ _mix64(((int(stream) + 1) * _GOLDEN) & _MASK64))
        return RngState(child)

    @property
    def _s(self) -> list[int]:
        """The four state words after the last draw read.

        Inside the block this is the start of the lane that holds the
        position, stepped to it: fewer steps than a lane has.
        """
        p = self._pos
        if p == self._end:
            return list(self._words)
        lane, k = divmod(p, self._steps)
        s = self._starts[lane].tolist()
        for _ in range(k):
            _step(s)
        return s

    @_s.setter
    def _s(self, words) -> None:
        self._words = list(words)  # the state after the block's last draw, or the state with no block
        self._block, self._starts = np.empty(0, dtype=np.uint64), None
        self._ahead = ()  # the block as a memoryview, for next_uint64
        self._pos = self._end = 0  # draws read from the block, and its size
        self._steps = 1  # draws per lane of the block

    def next_uint64(self) -> int:
        p = self._pos
        if p < self._end:
            self._pos = p + 1
            return self._ahead[p]
        if self._end:  # the block is used up: the state goes on from its end
            self._s = self._words
        return _step(self._words)

    def _raw(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of :meth:`next_uint64` as a new uint64 array.

        The state advances by exactly ``n``. The draws are read from the
        block. A request the block cannot serve whole refills it from the
        current position: ``_BLOCK`` draws by :func:`_lanes`, or below
        ``_BULK_MIN`` draws (where the scalar loop is faster) just the
        request, by scalar steps. So the draws of the last request all lie in
        the block, and :meth:`_unread` can give them back. A request of at
        least ``_BLOCK`` draws is generated directly and leaves no block.
        The stream's first generation is sized to its request: a stream that
        draws once (an ``init_model`` stream) pays no block it never reads.
        :meth:`normals` clears ``_first`` when it will draw more than one
        round, so its first round reads a whole block.
        """
        p = self._pos
        if p + n > self._end:
            words, first = self._s, self._first
            self._first = False
            if n >= _BLOCK:
                out, _, _, self._s = _lanes(words, n)
                return out
            self._s = words  # drop the old block before the new one is drawn
            if n < _BULK_MIN:
                start = list(words)
                block = np.fromiter((_step(words) for _ in range(n)), dtype=np.uint64, count=n)
                starts, steps = np.array([start], dtype=np.uint64), n
            else:
                block, starts, steps, words = _lanes(words, n if first else _BLOCK)
            self._words, self._block, self._starts, self._steps = words, block, starts, steps
            self._ahead, self._end, p = memoryview(block), block.size, 0
        self._pos = p + n
        return self._block[p:p + n].copy()

    def _unread(self, count: int) -> None:
        """Give back the last ``count`` draws read, which must lie in the block: the next reads repeat them."""
        if not 0 <= count <= self._pos:
            raise ValueError(f"cannot give back {count} draws: {self._pos} were read from the block")
        self._pos -= count

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
        """Fisher-Yates permutation of range(n), swapping i with randbelow(i + 1) for i = n-1 .. 1.

        The swap partners are drawn at most ``_CHUNK`` at a time, so the
        temporaries stay the same size whatever ``n``.
        """
        out = np.arange(n, dtype=np.int64)
        idx = memoryview(out)
        for top in range(n, 1, -_CHUNK):  # moduli top, top - 1, ..., above max(top - _CHUNK, 1)
            picks = self._picks(np.arange(top, max(top - _CHUNK, 1), -1, dtype=np.uint64))
            for i, j in zip(range(top - 1, 0, -1), memoryview(picks)):
                idx[i], idx[j] = idx[j], idx[i]
        return out

    def _picks(self, moduli: np.ndarray) -> np.ndarray:
        """``randbelow(m)`` for each m of ``moduli`` (uint64) in turn."""
        # randbelow(m) rejects r >= 2**64 - 2**64 % m, i.e. r > highest; when
        # m divides 2**64, highest is 2**64 - 1 and every draw is accepted
        highest = _U64(_MASK64) - (_U64(_MASK64) % moduli + _U64(1)) % moduli
        picks = np.empty_like(moduli)
        done = 0
        r = self._raw(moduli.size)
        while True:
            rejected = np.flatnonzero(r > highest[done:])
            stop = int(rejected[0]) if rejected.size else r.size
            np.remainder(r[:stop], moduli[done:done + stop], out=picks[done:done + stop])
            done += stop
            if not rejected.size:
                return picks
            # the rejected draw is spent: the draws after it serve the next
            # moduli, and one more draw keeps one per modulus left
            r = np.concatenate([r[stop + 1:], self._raw(1)])

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` draws of :meth:`random`, in order."""
        r = self._raw(n)
        r >>= _U64(11)
        u = r.astype(np.float64)
        u *= _INV_2_53
        return u

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
        """``n`` draws of :meth:`normal`, in order, sharing its pending spare.

        Candidate pairs are drawn in rounds of at most as many as are still
        needed, so no draw is taken that the scalar loop would not take.
        ``log`` is ``math.log``, one accepted pair at a time: numpy's SIMD
        ``log`` can differ from it in the last bit, depending on the CPU.
        The other ops (+, -, *, / and sqrt) are exactly rounded in both.
        A call of more than one round starts with a whole block, even as a
        stream's first generation, so its rounds share one lane set-up.
        """
        n = max(n, 0)  # a negative count draws nothing, as range(n) does
        head = 1 if n and self._spare_normal is not None else 0
        pairs = (n - head + 1) // 2
        out = np.empty(head + 2 * pairs, dtype=np.float64)  # one more than n when a spare is left
        if head:
            out[0] = self._spare_normal
            self._spare_normal = None
        filled = out[head:].reshape(pairs, 2)
        if pairs > _PAIRS_PER_ROUND:
            self._first = False  # a whole block serves this call's later rounds too
        done = 0
        while done < pairs:
            uv = self.uniforms(2 * min(pairs - done, _PAIRS_PER_ROUND)).reshape(-1, 2)
            uv *= 2.0
            uv -= 1.0
            s = uv[:, 0] * uv[:, 0] + uv[:, 1] * uv[:, 1]
            keep = (0.0 < s) & (s < 1.0)
            s = s[keep]
            f = np.fromiter(map(math.log, s.tolist()), dtype=np.float64, count=s.size)
            f *= -2.0
            f /= s
            np.sqrt(f, out=f)
            np.multiply(uv[keep], f[:, None], out=filled[done:done + s.size])
            done += s.size
        if len(out) > n:
            self._spare_normal = float(out[n])
        return out[:n]

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


def plan_epoch(rng: RngState, n: int, batch_bounds, alpha: float | None):
    """Draw a training epoch ahead: ``(order, partners, lambdas)``.

    ``order`` is ``rng.permutation(n)``. Then, for each batch (start, stop)
    of size b in turn, ``partners[start:stop]`` is ``rng.permutation(b)`` and
    ``lambdas[start:stop]`` holds b draws of ``rng.sample_beta(alpha)``; the
    bounds run on from 0, as the training loop makes them. With ``alpha``
    None the batches draw nothing (no mixing) and both arrays are empty.

    Raw draws are taken in bulk, ``_CHUNK`` at a time, and numpy turns them
    into uniforms. A Python walk then follows the scalar samplers' path
    through them (see :func:`_walk`); every value that decides a draw comes
    from the same IEEE operations as in the scalar samplers. Draws the walk
    did not use are given back: the generator is left where the scalar loop
    would have left it, pending spare included.
    """
    if alpha is not None and not 0.0 < alpha < math.inf:
        raise ValueError("invalid shape parameter")
    order = rng.permutation(n)
    sizes = [] if alpha is None else [stop - start for start, stop in batch_bounds]
    partners = np.empty(sum(sizes), dtype=np.int64)
    lambdas = np.empty(sum(sizes), dtype=np.float64)
    if sizes:
        _walk(rng, sizes, float(alpha), partners, memoryview(lambdas))
    return order, partners, lambdas


class _Window:
    """The part of the raw stream the walk reads.

    ``raw`` holds the draws and ``uni`` each one as :meth:`RngState.random`
    would return it. The walk reads the draws a window keeps from the one
    before it ahead of any new one, so those it leaves unread all come from
    the last chunk, which the generator can take back.
    """

    def __init__(self, rng: RngState):
        self.rng = rng
        self.raw = np.empty(0, dtype=np.uint64)

    def advance(self, p: int):
        """Drop the draws before ``p`` and append one ``_CHUNK``; the walk goes on at 0."""
        r = np.concatenate([self.raw[p:], self.rng._raw(_CHUNK)])
        self.raw = r
        uni = (r >> _U64(11)).astype(np.float64)
        uni *= _INV_2_53
        return memoryview(r), memoryview(uni), r.size, 0

    def give_back(self, p: int) -> None:
        """Un-read the draws from ``p`` on: the generator is left just after the draw before ``p``."""
        self.rng._unread(self.raw.size - p)


def _walk(rng: RngState, sizes: list[int], a: float, partners: np.ndarray, lambdas: memoryview) -> None:
    """Fill ``partners`` and ``lambdas`` as the scalar loop of :func:`plan_epoch` would.

    The code follows ``randbelow``, ``normal``, ``_gamma`` and
    ``sample_beta`` step by step, reading position ``p`` of the window
    where they call ``next_uint64``. ``math.log``, ``math.sqrt`` and the
    boost's ``**`` stay scalar calls, so each value is the scalar one.
    """
    span = _MASK64 + 1
    limits = [span - span % m if m else 0 for m in range(max(sizes) + 1)]
    boost = a < 1.0  # Gamma(a) = Gamma(a + 1) * U^(1/a) for a < 1
    shape = a + 1.0 if boost else a
    inv_a = 1.0 / a
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    log, sqrt, floor = math.log, math.sqrt, math.floor
    window = _Window(rng)
    raw = uni = ()
    end = p = 0
    spare = rng._spare_normal
    row = 0
    for b in sizes:
        perm = list(range(b))
        for i in range(b - 1, 0, -1):
            limit = limits[i + 1]
            while True:
                if p >= end:
                    raw, uni, end, p = window.advance(p)
                r = raw[p]
                p += 1
                if r < limit:
                    break
            j = r % (i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        partners[row:row + b] = perm
        for _ in range(b):
            while True:  # one Beta candidate: two gammas, then the ratio
                g1 = -1.0
                for _ in (0, 1):
                    if boost:
                        while True:
                            if p >= end:
                                raw, uni, end, p = window.advance(p)
                            ub = uni[p]
                            p += 1
                            if ub > 0.0:
                                break
                    while True:  # Marsaglia-Tsang
                        if spare is None:
                            while True:  # Marsaglia polar
                                while p + 1 >= end:
                                    raw, uni, end, p = window.advance(p)
                                wu = 2.0 * uni[p] - 1.0
                                wv = 2.0 * uni[p + 1] - 1.0
                                p += 2
                                s = wu * wu + wv * wv
                                if 0.0 < s < 1.0:
                                    break
                            f = sqrt(-2.0 * log(s) / s)
                            spare = wv * f
                            x = wu * f
                        else:
                            x = spare
                            spare = None
                        t = 1.0 + c * x
                        if t <= 0.0:
                            continue
                        v = t * t * t
                        if p >= end:
                            raw, uni, end, p = window.advance(p)
                        u = uni[p]
                        p += 1
                        if u < 1.0 - 0.0331 * x * x * x * x:
                            break
                        if u == 0.0 or log(u) < 0.5 * x * x + d * (1.0 - v + log(v)):
                            break
                    g = d * v * ub ** inv_a if boost else d * v
                    if g1 < 0.0:
                        g1 = g
                total = g1 + g
                if total > 0.0 and 0.0 < g1 < total:
                    lam = floor((g1 / total) * _TWO_53) * _INV_2_53
                    if 0.0 < lam < 1.0:
                        break
                    if lam == 0.0:
                        lam = _INV_2_53
                        break
            lambdas[row] = lam
            row += 1
    window.give_back(p)
    rng._spare_normal = spare
