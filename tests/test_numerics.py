import hashlib
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from icmix import numerics
from icmix.numerics import RngState, matrix, plan_epoch, softmax_log_z

from oracles import naive_log_sum_exp, naive_softmax_rows, scalar_epoch, scalar_rng


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
        rng.normal()  # leaves a spare pending
        state = (list(rng._s), rng._spare_normal)
        # an infinite shape used to loop forever in the gamma rejection sampler
        for alpha in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="invalid shape parameter"):
                rng.sample_beta(alpha)
            with pytest.raises(ValueError, match="invalid shape parameter"):
                plan_epoch(rng, 2, [(0, 2)], alpha)
            # a refused plan draws nothing, not even its shuffle
            assert (rng._s, rng._spare_normal) == state

    def test_permutation_is_a_permutation(self):
        rng = RngState(21)
        for n in (1, 2, 17, 100):
            p = rng.permutation(n)
            assert sorted(p.tolist()) == list(range(n))

    def test_randbelow_range_and_coverage(self):
        rng = RngState(22)
        draws = [rng.randbelow(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

    @pytest.mark.parametrize("n", [0, -1, 2**64 + 1])
    def test_randbelow_needs_a_positive_bound(self, n):
        # above 2**64 every draw would be rejected: the loop never ended
        rng = RngState(23)
        state = list(rng._s)
        with pytest.raises(ValueError, match="randbelow requires n >= 1" if n < 1 else r"randbelow requires n <= 2\*\*64"):
            rng.randbelow(n)
        assert rng._s == state  # nothing drawn
        # 2**64 itself accepts every draw
        assert rng.randbelow(2**64) == RngState(23).next_uint64()

    def test_complement_exact_on_grid(self):
        rng = RngState(23)
        for _ in range(500):
            lam = rng.sample_beta(0.7)
            assert 0.0 < lam < 1.0
            assert 1.0 - (1.0 - lam) == lam


SEEDS = (0, 7, 2**64 - 1)
# 0, 1 and 2, then each boundary of the bulk path +-1: the scalar cut-off;
# 1024, where lanes x steps is exact (8 x 128); 8192, where a lane's steps
# first fill the 32-row write buffer; 65536, two buffers per lane
SIZES = sorted({0, 1, 2} | {b + d for b in (numerics._BULK_MIN, 1024, 8192, 65536) for d in (-1, 0, 1)})


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestBulkDraws:
    """Bulk samplers against the scalar ones they replaced, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_outputs_and_state(self, seed):
        for n in SIZES:
            bulk, ref = RngState(seed), scalar_rng(seed)
            assert bulk._raw(n).tolist() == [ref.next_uint64() for _ in range(n)], n
            assert bulk._s == ref._s, n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms(self, seed):
        bulk, ref = RngState(seed), scalar_rng(seed)
        for n in SIZES:
            assert np.array_equal(_bits(bulk.uniforms(n)), _bits(ref.uniforms(n))), n

    @pytest.mark.parametrize("seed", SEEDS)
    def test_normals_odd_counts_and_pending_spare(self, seed):
        bulk, ref = RngState(seed), scalar_rng(seed)
        for n in SIZES + [3, 777, 4097]:
            # odd counts leave a spare pending, which the next call starts with
            assert np.array_equal(_bits(bulk.normals(n)), _bits(ref.normals(n))), n
            assert bulk._spare_normal == ref._spare_normal, n
        bulk.normal()
        ref.normal()
        assert bulk._spare_normal is not None
        assert np.array_equal(_bits(bulk.normals(1)), _bits(ref.normals(1)))
        assert bulk._spare_normal is None and bulk._s == ref._s

    @pytest.mark.parametrize("seed", SEEDS)
    def test_permutation(self, seed):
        bulk, ref = RngState(seed), scalar_rng(seed)
        for n in SIZES:
            got = bulk.permutation(n)
            assert got.dtype == np.int64 and got.tolist() == ref.permutation(n).tolist(), n

    def test_cifar_sized_uniforms(self):
        bulk, ref = RngState(3), scalar_rng(3)
        n = 3072 * 512
        assert np.array_equal(_bits(bulk.uniforms(n)), _bits(ref.uniforms(n)))
        assert bulk.next_uint64() == ref.next_uint64()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_with_scalar_draws(self, seed):
        bulk, ref = RngState(seed), scalar_rng(seed)
        script = [
            ("uniforms", 700), ("random",), ("normals", 1001), ("randbelow", 10), ("sample_beta", 0.2),
            ("normal",), ("permutation", 600), ("normals", 3), ("sample_beta", 5.0), ("uniforms", 3),
            ("normals", 2048), ("permutation", 5), ("sample_beta", 1.0), ("normals", 1),
        ]
        for name, *args in script:
            a, b = getattr(bulk, name)(*args), getattr(ref, name)(*args)
            if name == "permutation":
                assert a.tolist() == b.tolist(), name
            else:
                assert np.array_equal(_bits(a), _bits(b)), name
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal

    def test_permutation_rejection_matches_randbelow(self):
        top = 2**64 - 1
        # moduli 6, 5, 4, 3, 2. randbelow(m) rejects r >= 2**64 - 2**64 % m:
        # the top 4 values for 6, the top 1 for 5 and 3, none for 4 and 2,
        # which divide 2**64
        script = [top, top - 3, 17, top, top - 1, top, top, 5, top, 11, 12]
        many_rejections = [top - v % 7 if v % 3 else v for v in range(1, 200)]
        for n, values in ((6, script), (40, many_rejections)):
            bulk, ref = RngState(0), scalar_rng(0)
            bulk_draws, ref_draws = iter(values), iter(values)
            bulk._raw = lambda k: np.array([next(bulk_draws) for _ in range(k)], dtype=np.uint64)
            ref.next_uint64 = lambda: next(ref_draws)
            assert bulk.permutation(n).tolist() == ref.permutation(n).tolist()
            # both took the same number of draws
            assert list(bulk_draws) == list(ref_draws)


# SHA-256 of the first draws, recorded with the scalar samplers (one
# next_uint64 per value, before the bulk path existed). Only +, -, *, /,
# sqrt and math.log touch these values, so they hold on every CPU.
GOLDEN = {
    0: {
        "uniforms": "eaae10aa65ae46b0119e83366e5a8dc29db81c15921cefa3f0994196c271527d",
        "normals": "f6188e877de7928e9ae12ef0e692ea8228ffb532fc3bc3f9f7b454cdbf86e510",
        "permutation": "4986a4666eddccec0fcafed7705689b92f1d3137ce1eae3b3e0bbb2ba0d23dc6",
        "sample_beta": "8e2601785542938ae9d6a0fc07e1c41a2179eee1f372e805ae7b604d4faf03b8",
    },
    20240611: {
        "uniforms": "5e3d5681ddf0b94891dca6b2cdfd4b27bb154397579e454d4c3fe44c907ba343",
        "normals": "8b022c60014de96b2647e0108ddab5e93c970f6c4a5da948c197714df1d85b33",
        "permutation": "1a45262205d7b19a81ea58512d9fe2f5e1ee40a11784bfcc05051f2a532ad579",
        "sample_beta": "4c0f3dfc9b6b69526af25aa2ecb03f9254d07edd4fa8819ea3c792cf944c6e6a",
    },
    2**64 - 1: {
        "uniforms": "a46fb88c4fe1e9887d06f56b664c64dcb93a4d270e5ed63e23147a7662047a7c",
        "normals": "3b34b03905790f7c2b98f535c6f8c1e5aa6d9edd74ee022542775f184a9820cf",
        "permutation": "1d7d1d143992fa8f63d82104a602dd5d6f5b40016b61d522997462a803aa64dc",
        "sample_beta": "e9c40477c74b922ada94eea01c02759407f5ee65ae30ef7f64f1961be2d8e8da",
    },
}


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_draw_digests(seed):
    def digest(a, dtype):
        return hashlib.sha256(np.ascontiguousarray(a, dtype=dtype).tobytes()).hexdigest()

    rng = RngState(seed)
    betas = [rng.sample_beta(alpha) for alpha in (0.2, 1.0, 5.0) for _ in range(100)]
    got = {
        "uniforms": digest(RngState(seed).uniforms(10007), "<f8"),
        "normals": digest(RngState(seed).normals(10001), "<f8"),
        "permutation": digest(RngState(seed).permutation(10000), "<i8"),
        "sample_beta": digest(betas, "<f8"),
    }
    assert got == GOLDEN[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_plan_reproduces_golden_beta_digest(seed):
    # batches of one row draw no partners: only the Beta ratios
    rng = RngState(seed)
    lambdas = np.concatenate([plan_epoch(rng, 0, [(k, k + 1) for k in range(100)], alpha)[2]
                              for alpha in (0.2, 1.0, 5.0)])
    assert hashlib.sha256(lambdas.astype("<f8").tobytes()).hexdigest() == GOLDEN[seed]["sample_beta"]


def _bounds(n, b):
    return [(start, min(start + b, n)) for start in range(0, n, b)]


# batch bounds as the training loop makes them: mixed batches of at least
# two rows; unmixed ones keep a last batch of one row
PLANS = {
    "pairs": (9, _bounds(8, 2)),
    # B=20 at regmixup: the draws are those of the 20-row mixed half
    "regmixup_half": (50, _bounds(50, 20)),
    # about 3000 * 7 raw draws at alpha 0.2, the walk's first block read from its start
    "chunks": (3000, _bounds(3000, 64)),
}


def _assert_plan_is_scalar_loop(plan, expected):
    """The plan's flat arrays hold the scalar loop's batches, concatenated; none when unmixed."""
    order, partners, lambdas = plan
    want_order, batches = expected
    batches = [draws for draws in batches if draws is not None]
    assert order.dtype == np.int64 and order.tolist() == want_order.tolist()
    assert partners.dtype == np.int64 and partners.tolist() == [j for p, _ in batches for j in p.tolist()]
    assert lambdas.dtype == np.float64
    assert np.array_equal(_bits(lambdas), _bits(np.array([x for _, lam in batches for x in lam])))


class _Fed(RngState):
    """Raw draws read from a list in turn, through blocks; the state is the position in the list.

    A whole-block request, the walk's, is served by the next ``size`` draws
    of the list (fewer where it runs out); any other request by exactly its
    own, as the generator serves one below ``_BULK_MIN``.
    """

    def __init__(self, stream, size=numerics._BLOCK):
        super().__init__(0)
        self.stream, self.size = stream, size
        self._s = [0]

    # the block's end in the list, less the draws of the block still unread
    _s = property(lambda self: [self._words[0] - self._end + self._pos], RngState._s.fset)

    def next_uint64(self):
        if self._pos == self._end:
            self._refill(1)
        return super().next_uint64()

    def _refill(self, n):
        at = self._s[0]
        draws = self.stream[at:at + (self.size if n == numerics._BLOCK else n)]
        if not draws:
            raise IndexError("the stream is used up")
        self._s = [at + len(draws)]
        self._block = np.array(draws, dtype=np.uint64)
        self._ahead, self._end = memoryview(self._block), len(draws)


def _scalar_fed(stream):
    """The scalar loop's generator reading ``stream``, and the ``_Fed`` that holds its position."""
    ref, fed = scalar_rng(0), _Fed(stream)
    ref.next_uint64 = fed.next_uint64
    return ref, fed


class TestEpochPlan:
    """plan_epoch against the scalar loop it replaced, bit for bit, generator state included."""

    @pytest.mark.parametrize("spare", [False, True], ids=["no_spare", "spare"])
    @pytest.mark.parametrize("alpha", [1e-3, 0.2, 1.0, 20.0])
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_bit_equal_to_scalar_loop(self, name, alpha, spare):
        n, bounds = PLANS[name]
        for seed in (0, 2**64 - 1):
            bulk, ref = RngState(seed), scalar_rng(seed)
            if spare:  # the first normal leaves its pair's second value pending
                assert bulk.normal() == ref.normal() and bulk._spare_normal is not None
            plan = plan_epoch(bulk, n, bounds, alpha)
            _assert_plan_is_scalar_loop(plan, scalar_epoch(ref, n, bounds, alpha))
            assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal
            # the generator goes on as the scalar one does
            assert np.array_equal(_bits(bulk.normals(3)), _bits(ref.normals(3)))

    @pytest.mark.parametrize("spare", [False, True], ids=["no_spare", "spare"])
    def test_unmixed_plan_draws_only_the_shuffle(self, spare):
        bulk, ref = RngState(5), scalar_rng(5)
        if spare:
            bulk.normal()
            ref.normal()
        bounds = _bounds(35, 17)
        assert bounds[-1] == (34, 35)
        plan = plan_epoch(bulk, 35, bounds, None)
        _assert_plan_is_scalar_loop(plan, scalar_epoch(ref, 35, bounds, None))
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal

    def test_plans_in_a_row_and_scalar_draws_between(self):
        bulk, ref = RngState(8), scalar_rng(8)
        for n, b, alpha in ((100, 32, 0.2), (8, 2, 20.0), (64, 64, 1e-3), (40, 8, 1.0)):
            bounds = _bounds(n, b)
            _assert_plan_is_scalar_loop(plan_epoch(bulk, n, bounds, alpha), scalar_epoch(ref, n, bounds, alpha))
            assert bulk.sample_beta(0.5) == ref.sample_beta(0.5)
            assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal

    @pytest.mark.parametrize("chunks", [1, 4])
    def test_walk_ending_exactly_on_a_chunk_boundary(self, monkeypatch, chunks):
        # the walk's raw draws are counted on the scalar loop; with a block of
        # that count over `chunks`, the shuffle's draws a block of their own
        # (the stream's first generation) and every refill a whole block, the
        # last draw the walk uses is the last of its last block
        n, bounds, alpha = 200, _bounds(200, 25), 0.2
        for seed in range(50):
            used = _scalar_plan_draws(RngState(seed), n, bounds, alpha) - (n - 1)
            if used % chunks == 0:
                break
        block = used // chunks
        monkeypatch.setattr(numerics, "_BLOCK", block)
        refills = []
        bulk, ref = RngState(seed), scalar_rng(seed)
        refill = bulk._refill
        bulk._refill = lambda k: refills.append(k) or refill(k)
        plan = plan_epoch(bulk, n, bounds, alpha)
        _assert_plan_is_scalar_loop(plan, scalar_epoch(ref, n, bounds, alpha))
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal
        # the shuffle's own block, then exactly the blocks the walk used up
        assert refills == [n - 1] + [block] * chunks and (bulk._pos, bulk._end) == (block, block)
        # the generator goes on as the scalar one does, from the block's end
        assert np.array_equal(_bits(bulk.normals(3)), _bits(ref.normals(3)))
        assert bulk._s == ref._s

    @pytest.mark.parametrize("batch", [0, 2, 4])
    def test_partners_with_draws_at_and_above_the_limit(self, batch):
        # moduli 8, 7, ..., 2 per batch; randbelow(m) accepts r < 2**64 - 2**64 % m:
        # m = 7 rejects top - 1 (its limit) and top, m = 6 rejects top - 3 and
        # above, m = 5 and 3 reject top; 8, 4 and 2 divide 2**64 and accept all.
        # Each accepted draw of the script picks j = i: the partners stay in order.
        # Then three zeros: uniforms of 0.0, which the first ratio's boost redraws
        top = 2**64 - 1
        script = [top, top - 1, top - 2, top - 3, top - 4, top, top - 1, top, top, top - 1, top, 0, 0, 0]
        n, bounds, alpha = 40, _bounds(40, 8), 0.2
        stream = RngState(9)._raw(20000).tolist()

        # the scalar loop's position when this batch's partner draws start
        ref, fed = _scalar_fed(stream)
        starts = []
        permutation = ref.permutation
        ref.permutation = lambda k: starts.append(fed._s[0]) or permutation(k)
        scalar_epoch(ref, n, bounds, alpha)
        at = starts[1 + batch]  # starts[0] is the shuffle's
        stream[at:at + len(script)] = script

        bulk, (ref, fed) = _Fed(stream), _scalar_fed(stream)
        plan = plan_epoch(bulk, n, bounds, alpha)
        expected = scalar_epoch(ref, n, bounds, alpha)
        assert expected[1][batch][0].tolist() == list(range(8))
        _assert_plan_is_scalar_loop(plan, expected)
        assert bulk._s == fed._s and bulk._spare_normal == ref._spare_normal

    @pytest.mark.parametrize("size", [1, 2, 3, 7])
    def test_small_chunks_and_rejected_polar_pairs(self, size):
        # blocks this small end inside polar pairs at every alignment; where the
        # scalar loop starts a polar pair in batch 2, the stream holds three
        # pairs it rejects: uniforms (0.5, 0.5), s == 0; (0.5, 0.0), s == 1
        # exactly; and (1 - 2**-53, 1 - 2**-53), s > 1
        script = [2**63, 2**63, 2**63, 0, 2**64 - 1, 2**64 - 1]
        n, bounds, alpha = 24, _bounds(24, 8), 0.2
        stream = RngState(12)._raw(5000).tolist()

        ref, fed = _scalar_fed(stream)
        starts, pairs = [], []
        permutation, normal = ref.permutation, ref.normal
        ref.permutation = lambda k: starts.append(fed._s[0]) or permutation(k)
        ref.normal = lambda: (ref._spare_normal is None and pairs.append(fed._s[0])) or normal()
        scalar_epoch(ref, n, bounds, alpha)
        at = next(q for q in pairs if q > starts[3])  # starts[0] is the shuffle's
        stream[at:at + len(script)] = script

        bulk, (ref, fed) = _Fed(stream, size), _scalar_fed(stream)
        plan = plan_epoch(bulk, n, bounds, alpha)
        _assert_plan_is_scalar_loop(plan, scalar_epoch(ref, n, bounds, alpha))
        assert bulk._s == fed._s and bulk._spare_normal == ref._spare_normal

    def test_memory_bounded_by_the_chunk(self):
        # a 50000-row epoch at B=128: the plan's peak above its outputs is a
        # few chunk-sized temporaries, whatever n; the shuffle that kept a
        # Python list of n ints and a second list of n picks peaked 5 MB above
        # its output alone
        n = 50000
        bounds = _bounds(n, 128)
        rng = RngState(10)
        plan_epoch(rng, 9000, _bounds(9000, 128), 0.2)  # the jump tables are cached once per process
        tracemalloc.start()
        try:
            plan = plan_epoch(rng, n, bounds, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(a.nbytes for a in plan)
        assert outputs == 3 * 8 * n
        margin = 16 * 8 * numerics._CHUNK  # 16 float64 arrays of one chunk: 1 MiB
        assert peak - outputs < margin, (peak, outputs)


BLOCK = numerics._BLOCK


def _scalar_plan_draws(rng, n, bounds, alpha):
    """The raw draws the scalar loop takes for a plan from ``rng``'s state; ``rng`` is left as it is."""
    probe = scalar_rng(0)
    probe._s, probe._spare_normal = rng._s, rng._spare_normal
    count = 0
    step = probe.next_uint64

    def counted():
        nonlocal count
        count += 1
        return step()

    probe.next_uint64 = counted
    scalar_epoch(probe, n, bounds, alpha)
    return count


class TestReadAhead:
    """Draws read from the read-ahead block against the scalar loop, generator state included."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_script_across_block_sizes(self, seed):
        # bulk requests one under, at, one over and two blocks and one over
        # (the last three skip the block), between scalar draws, normals that
        # start with or leave a pending spare, and plans
        script = [
            ("_raw", BLOCK - 1), ("random",), ("uniforms", BLOCK), ("normal",), ("normals", 5000),
            ("_raw", BLOCK + 1), ("randbelow", 10), ("plan", 300, 32, 0.2), ("uniforms", 600),
            ("normals", 3), ("_raw", 2 * BLOCK + 1), ("sample_beta", 0.2), ("plan", 100, 8, 1e-3),
            ("permutation", 1000), ("normal",), ("plan", 50, 25, 5.0), ("next_uint64",), ("_raw", 700),
        ]
        bulk, ref = RngState(seed), scalar_rng(seed)
        for step, (name, *args) in enumerate(script):
            if name == "plan":
                n, b, alpha = args
                _assert_plan_is_scalar_loop(plan_epoch(bulk, n, _bounds(n, b), alpha),
                                            scalar_epoch(ref, n, _bounds(n, b), alpha))
            elif name == "_raw":
                assert bulk._raw(*args).tolist() == [ref.next_uint64() for _ in range(*args)], step
            elif name in ("next_uint64", "randbelow", "permutation"):
                a, b = getattr(bulk, name)(*args), getattr(ref, name)(*args)
                assert np.asarray(a).tolist() == np.asarray(b).tolist(), step
            else:
                assert np.array_equal(_bits(getattr(bulk, name)(*args)), _bits(getattr(ref, name)(*args))), step
            assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal, step

    @pytest.mark.parametrize("edge", ["new_block_first_draw", "one_before_block_end", "at_block_end"])
    def test_plan_ending_at_a_block_edge(self, monkeypatch, edge):
        # the plan starts at draw 2 * BLOCK, after a direct request (no
        # block) and a request that fills a block, with one draw fewer than
        # it uses, one more, or exactly as many left in the block: it ends
        # on the first draw of a new block, one before the block's end, or on
        # the block's end, where it draws no new block
        bounds, alpha, start = _bounds(200, 25), 0.2, 2 * BLOCK
        at_start = RngState(31)
        at_start._raw(start)
        used = _scalar_plan_draws(at_start, 0, bounds, alpha)
        # the draws left in the block before the plan, the block position after it, and the blocks it draws
        left, end_pos, blocks = {"new_block_first_draw": (used - 1, 1, [BLOCK]),
                                 "one_before_block_end": (used + 1, BLOCK - 1, []),
                                 "at_block_end": (used, BLOCK, [])}[edge]
        bulk, ref = RngState(31), scalar_rng(31)
        for k in (start - (BLOCK - left), BLOCK - left):
            assert bulk._raw(k).tolist() == [ref.next_uint64() for _ in range(k)]
        assert (bulk._pos, bulk._end) == (BLOCK - left, BLOCK)
        generated = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda words, k: generated.append(k) or lanes(words, k))
        _assert_plan_is_scalar_loop(plan_epoch(bulk, 0, bounds, alpha), scalar_epoch(ref, 0, bounds, alpha))
        assert (bulk._pos, bulk._end) == (end_pos, BLOCK) and generated == blocks
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal
        # the generator goes on as the scalar one does, across the block's end
        assert bulk._raw(5).tolist() == [ref.next_uint64() for _ in range(5)]
        assert np.array_equal(_bits(bulk.normals(3)), _bits(ref.normals(3)))
        assert bulk._s == ref._s

    def test_a_plan_that_fits_in_the_block_generates_none(self, monkeypatch):
        # the plan starts at draw 2 * BLOCK, as in the test above, with
        # fewer than _CHUNK draws left in the block but 100 more than it
        # takes: its shuffle and its walk read them where they lie
        n, bounds, alpha, start = 200, _bounds(200, 25), 0.2, 2 * BLOCK
        at_start = RngState(32)
        at_start._raw(start)
        left = _scalar_plan_draws(at_start, n, bounds, alpha) + 100
        assert left < numerics._CHUNK
        bulk, ref = RngState(32), scalar_rng(32)
        for k in (start - (BLOCK - left), BLOCK - left):
            assert bulk._raw(k).tolist() == [ref.next_uint64() for _ in range(k)]
        generated = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda words, k: generated.append(k) or lanes(words, k))
        _assert_plan_is_scalar_loop(plan_epoch(bulk, n, bounds, alpha), scalar_epoch(ref, n, bounds, alpha))
        assert generated == [] and (bulk._pos, bulk._end) == (BLOCK - 100, BLOCK)
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal

    def test_five_longtail_plans_generate_few_blocks(self, monkeypatch):
        # the stream's first generation is its first request, the shuffle's
        # n - 1 swap partners; then a block serves draws until a request of
        # at most a chunk does not fit, so each block but the last serves
        # more than BLOCK - _CHUNK of them; drawing each shuffle and chunk by
        # itself took 15 generations
        n, bounds, alpha = 1636, _bounds(1636, 32), 0.2
        bulk, ref = RngState(40), scalar_rng(40)
        draws = 0
        for _ in range(5):
            draws += _scalar_plan_draws(ref, n, bounds, alpha)
            scalar_epoch(ref, n, bounds, alpha)
        generated = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda words, k: generated.append(k) or lanes(words, k))
        for _ in range(5):
            plan_epoch(bulk, n, bounds, alpha)
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal
        assert generated == [n - 1] + [BLOCK] * (len(generated) - 1)
        assert len(generated) <= math.ceil(draws / (BLOCK - numerics._CHUNK)) + 1, (generated, draws)

    @pytest.mark.parametrize("first", [2688, 100], ids=["lanes", "scalar"])
    def test_only_a_stream_first_generation_is_sized_to_its_request(self, monkeypatch, first):
        # blobs init_model draws 2688 uniforms once; whole blocks come from the second refill on
        generated = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda words, k: generated.append(k) or lanes(words, k))
        bulk, ref = RngState(5), scalar_rng(5)
        for k in (first, 700, 600):
            assert bulk._raw(k).tolist() == [ref.next_uint64() for _ in range(k)]
            assert bulk._s == ref._s
        assert generated == ([first] if first >= numerics._BULK_MIN else []) + [BLOCK]
        assert (bulk._pos, bulk._end) == (1300, BLOCK)

    @pytest.mark.parametrize("pairs, first", [(numerics._PAIRS_PER_ROUND, 2 * numerics._PAIRS_PER_ROUND),
                                              (numerics._PAIRS_PER_ROUND + 1, BLOCK)], ids=["one_round", "two_rounds"])
    def test_a_normals_call_of_more_than_one_round_starts_with_a_whole_block(self, monkeypatch, pairs, first):
        # a blobs split of 64000 pairs draws 16 rounds: its stream's first generation is a block, not one round
        generated = []
        lanes = numerics._lanes
        monkeypatch.setattr(numerics, "_lanes", lambda words, k: generated.append(k) or lanes(words, k))
        bulk, ref = RngState(9), scalar_rng(9)
        got = bulk.normals(2 * pairs)
        assert np.array_equal(_bits(got), _bits(np.array([ref.normal() for _ in range(2 * pairs)])))
        assert bulk._s == ref._s and bulk._spare_normal == ref._spare_normal
        assert generated[0] == first and generated[1:] == [BLOCK] * (len(generated) - 1)

    def test_a_request_of_a_block_or_more_keeps_no_block(self):
        # CIFAR init's uniforms are drawn directly; the block held before is dropped
        n = 3072 * 512
        bulk, pieces = RngState(3), RngState(3)
        bulk._raw(1000)
        u = bulk.uniforms(n)
        assert bulk._block.size <= BLOCK and bulk._starts is None
        pieces._raw(1000)
        raw = np.concatenate([pieces._raw(numerics._CHUNK) for _ in range(n // numerics._CHUNK)])
        assert np.array_equal(_bits(u), _bits((raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53))
        assert bulk._s == pieces._s and bulk.next_uint64() == pieces.next_uint64()


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
