import math
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from icmix import container
from icmix.losses import MixedScoreMatrix, loss_cc, loss_ci, loss_ic_joint, loss_mixup_ce
from icmix.mixing import one_hot
from icmix.model import ModelParams, backward, forward, init_model, load_checkpoint, save_checkpoint, sgd_step
from icmix.numerics import RngState

from oracles import backward_per_layer, fd_grad, max_rel_err, naive_forward_logits, scalar_rng, sgd_step_per_tensor


def _random_net(seed, input_dim, hidden_dims, num_classes):
    return init_model(input_dim, hidden_dims, num_classes, RngState(seed))


def _linear(final_weights):
    params = ModelParams(final_weights.shape)
    params.final_weights[...] = final_weights
    return params


class TestForward:
    def test_zero_depth_is_linear(self):
        rng = RngState(1)
        params = _linear(rng.normals(12).reshape(4, 3))
        x = rng.normals(8).reshape(2, 4)
        cache = forward(params, x)
        assert np.array_equal(cache.logits, x @ params.final_weights)
        assert cache.features is cache.inputs

    def test_zero_weights_zero_logits(self):
        params = ModelParams([4, 5, 3])
        cache = forward(params, RngState(2).normals(8).reshape(2, 4))
        assert np.all(cache.logits == 0.0)

    def test_matches_scalar_loop_oracle(self):
        params = _random_net(3, 4, [6, 5], 3)
        x = RngState(4).normals(3 * 4).reshape(3, 4)
        cache = forward(params, x)
        assert np.max(np.abs(cache.logits - naive_forward_logits(params, x))) < 1e-12

    def test_deterministic(self):
        params = _random_net(5, 4, [8], 3)
        x = RngState(6).normals(20).reshape(5, 4)
        assert np.array_equal(forward(params, x).logits, forward(params, x).logits)

    def test_width_mismatch(self):
        params = _random_net(7, 4, [8], 3)
        with pytest.raises(ValueError, match="input width"):
            forward(params, np.zeros((2, 5)))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params = _random_net(8, 4, [6], 3)
        cache = forward(params, RngState(9).normals(8).reshape(2, 4))
        grads = backward(params, cache, np.zeros((2, 3)))
        assert np.all(grads.final_weights == 0.0)
        assert all(np.all(g.w == 0.0) and np.all(g.b == 0.0) for g in grads.hidden)

    def test_linear_model_outer_product(self):
        rng = RngState(10)
        params = _linear(rng.normals(12).reshape(4, 3))
        x = rng.normals(4).reshape(1, 4)
        g = rng.normals(3).reshape(1, 3)
        grads = backward(params, forward(params, x), g)
        assert np.max(np.abs(grads.final_weights - np.outer(x[0], g[0]))) < 1e-15

    def test_shape_mismatch(self):
        params = _random_net(11, 4, [], 3)
        cache = forward(params, np.zeros((2, 4)))
        with pytest.raises(ValueError, match="grad_logits"):
            backward(params, cache, np.zeros((2, 4)))

    @pytest.mark.parametrize("hidden_dims", [[], [16], [16, 8], [64, 32, 16]])
    def test_bit_equal_per_layer_oracle(self, hidden_dims):
        rng = RngState(12)
        params = _random_net(13, 24, hidden_dims, 5)
        cache = forward(params, rng.normals(40 * 24).reshape(40, 24))
        grad_logits = rng.normals(40 * 5).reshape(40, 5)
        got = [t for _, t in _param_tensors(backward(params, cache, grad_logits))]
        assert np.array_equal(_bits(got), _bits(backward_per_layer(params, cache, grad_logits)))

    @pytest.mark.parametrize("hidden_dims", [[], [16], [16, 8]])
    def test_out_is_overwritten_and_returned(self, hidden_dims):
        rng = RngState(14)
        params = _random_net(15, 24, hidden_dims, 5)
        out = ModelParams(params.dims)
        out.flat[:] = np.nan  # every entry must be written
        for b in (40, 7):  # a second batch through the same vector
            cache = forward(params, rng.normals(b * 24).reshape(b, 24))
            grad_logits = rng.normals(b * 5).reshape(b, 5)
            assert backward(params, cache, grad_logits, out=out) is out
            assert np.array_equal(out.flat.view(np.uint64), backward(params, cache, grad_logits).flat.view(np.uint64))

    @pytest.mark.parametrize("dims", [[24, 16, 4], [24, 8, 5], [24, 5], [24, 16, 8, 5]])
    def test_out_of_other_widths_is_a_value_error(self, dims):
        params = _random_net(16, 24, [16], 5)
        cache = forward(params, np.zeros((2, 24)))
        with pytest.raises(ValueError, match=r"out has widths .*, params have \[24, 16, 5\]"):
            backward(params, cache, np.zeros((2, 5)), out=ModelParams(dims))


def _param_tensors(params):
    for i, layer in enumerate(params.hidden):
        yield f"hidden{i}.w", layer.w
        yield f"hidden{i}.b", layer.b
    yield "final", params.final_weights


def _bits(tensors):
    return np.concatenate([t.ravel() for t in tensors]).view(np.uint64)


def _check_full_net_gradients(seed, loss_name):
    rng = RngState(seed)
    b, d_in, c = 4, 3, 3
    params = init_model(d_in, [6, 5], c, rng.derive(0))
    x = rng.normals(b * d_in).reshape(b, d_in)
    labels = np.array([rng.randbelow(c) for _ in range(b)])
    perm = rng.permutation(b)
    lam = np.array([rng.sample_beta(1.0) for _ in range(b)])
    y = lam[:, None] * one_hot(labels, c) + (1.0 - lam)[:, None] * one_hot(labels[perm], c)

    def run_loss(p):
        cache = forward(p, x)
        if loss_name == "mixup_ce":
            return loss_mixup_ce(cache.logits, y)
        ms = MixedScoreMatrix.from_logits(cache.logits, y)
        return {"cc": loss_cc, "ci": loss_ci, "joint": lambda m: loss_ic_joint(m, "both")}[loss_name](ms)

    res = run_loss(params)
    grads = backward(params, forward(params, x), res.grad_s)
    worst = 0.0
    for (name, tensor), (_, analytic) in zip(_param_tensors(params), _param_tensors(grads)):
        flat = tensor.reshape(-1) if tensor.ndim > 1 else tensor

        def loss_with(values, tensor=tensor):
            saved = tensor.copy()
            tensor[...] = values.reshape(tensor.shape)
            try:
                return run_loss(params).value
            finally:
                tensor[...] = saved

        numeric = fd_grad(lambda v: loss_with(v), flat.copy().reshape(tensor.shape))
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst


class TestEndToEndGradients:
    @pytest.mark.parametrize("loss_name", ["mixup_ce", "cc", "ci", "joint"])
    def test_two_hidden_layer_fd(self, loss_name):
        assert _check_full_net_gradients(77, loss_name) < 1e-5

    def test_twenty_seeds_all_losses(self):
        worst = 0.0
        for seed in range(20):
            for loss_name in ("mixup_ce", "cc", "ci", "joint"):
                worst = max(worst, _check_full_net_gradients(500 + seed, loss_name))
        assert worst < 1e-5


class TestSgd:
    def test_vanilla_step(self):
        params = _linear(np.ones((2, 2)))
        momentum = np.zeros_like(params.flat)
        sgd_step(params, _linear(np.full((2, 2), 0.5)), momentum, lr=0.1, mu=0.0, weight_decay=0.0)
        assert np.max(np.abs(params.final_weights - (1.0 - 0.1 * 0.5))) < 1e-15

    def test_two_momentum_steps_displacement(self):
        eta, g_val = 0.05, 0.3
        params = ModelParams([1, 1])
        momentum = np.zeros_like(params.flat)
        grads = _linear(np.full((1, 1), g_val))
        sgd_step(params, grads, momentum, lr=eta, mu=0.9, weight_decay=0.0)
        sgd_step(params, grads, momentum, lr=eta, mu=0.9, weight_decay=0.0)
        expected = -eta * g_val * (1.0 + 1.9)
        assert params.final_weights[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_weight_decay_skips_biases(self):
        params = ModelParams([1, 1, 1])
        params.flat[:] = 1.0
        sgd_step(params, ModelParams([1, 1, 1]), np.zeros_like(params.flat), lr=1.0, mu=0.0, weight_decay=0.5)
        assert params.hidden[0].w[0, 0] == pytest.approx(0.5)   # decayed
        assert params.hidden[0].b[0] == pytest.approx(1.0)      # untouched
        assert params.final_weights[0, 0] == pytest.approx(0.5)


class TestFlatLayout:
    def test_every_tensor_is_a_view_of_flat_weights_first(self):
        params = _random_net(30, 5, [7, 4], 3)
        grads = backward(params, forward(params, RngState(31).normals(10).reshape(2, 5)), np.ones((2, 3)))
        for p in (params, grads):
            tensors = dict(_param_tensors(p))
            assert all(np.shares_memory(t, p.flat) for t in tensors.values())
            weights = [tensors[k] for k in ("hidden0.w", "hidden1.w", "final")]
            biases = [tensors[k] for k in ("hidden0.b", "hidden1.b")]
            assert p.num_decayed == sum(t.size for t in weights)
            assert np.array_equal(p.flat, np.concatenate([t.ravel() for t in weights + biases]))

    @pytest.mark.parametrize("dims", [[5, 3], [5, 7, 3], [5, 7, 4, 3]])
    def test_built_from_widths_starts_at_zero_with_views_of_flat(self, dims):
        params = ModelParams(dims)
        assert params.dims == dims and (params.input_dim, params.num_classes) == (dims[0], dims[-1])
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        assert np.all(params.flat == 0.0)
        order = params.checkpoint_order()
        assert [t.shape for t in order] == [s for k in range(len(dims) - 2)
                                            for s in ((dims[k], dims[k + 1]), (dims[k + 1],))] + [tuple(dims[-2:])]
        assert ModelParams.checkpoint_shapes(dims) == [t.shape for t in order]  # what load_checkpoint checks
        assert all(np.shares_memory(t, params.flat) for t in order)
        if len(dims) == 2:  # no biases: weight decay covers the whole vector
            assert params.num_decayed == params.flat.size == dims[0] * dims[1]

    def test_given_flat_is_used_without_a_copy(self):
        flat = np.arange(5 * 7 + 7 * 3 + 7, dtype=np.float64)
        params = ModelParams([5, 7, 3], flat)
        assert params.flat is flat
        assert params.hidden[0].w[0, 1] == 1.0 and params.final_weights[0, 0] == 35.0 and params.hidden[0].b[0] == 56.0
        with pytest.raises(ValueError, match=re.escape("widths [5, 7, 3] need (63,)")):
            ModelParams([5, 7, 3], flat[:-1])

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_steps_bit_equal_per_tensor_oracle(self, momentum):
        params = _random_net(32, 5, [7, 4], 3)
        lr, weight_decay = 0.05, 1e-3
        buffer = np.zeros_like(params.flat)
        names = [name for name, _ in _param_tensors(params)]
        ref = [t.copy() for _, t in _param_tensors(params)]
        ref_bufs = [np.zeros_like(t) for t in ref]
        decays = [0.0 if name.endswith(".b") else weight_decay for name in names]
        rng = RngState(33)
        for step in range(5):
            grads = ModelParams(params.dims, rng.normals(params.flat.size))
            # unit 2 of hidden1 dies after one step: a zero weight column and a -0.0 bias gradient
            grads.hidden[1].b[2] = -0.5 if step == 0 else -0.0
            grads.hidden[1].w[:, 2] = 0.5 if step == 0 else 0.0
            grad_tensors = [t.copy() for _, t in _param_tensors(grads)]
            sgd_step(params, grads, buffer, lr, momentum, weight_decay)
            sgd_step_per_tensor(ref, grad_tensors, ref_bufs, decays, lr, momentum)
        assert np.array_equal(_bits(t for _, t in _param_tensors(params)), _bits(ref))
        buffers = ModelParams(params.dims, buffer)  # the momentum vector, seen through the parameter layout
        assert np.array_equal(_bits(t for _, t in _param_tensors(buffers)), _bits(ref_bufs))


class TestInit:
    def test_deterministic_given_rng(self):
        a = init_model(5, [7], 3, RngState(99))
        b = init_model(5, [7], 3, RngState(99))
        assert np.array_equal(a.hidden[0].w, b.hidden[0].w)
        assert np.array_equal(a.final_weights, b.final_weights)

    def test_same_draws_as_scalar_loop(self):
        params = init_model(40, [30], 3, RngState(5))
        ref = scalar_rng(5)
        for w in (params.hidden[0].w, params.final_weights):
            limit = math.sqrt(6.0 / w.shape[0])
            expected = np.array([(2.0 * ref.random() - 1.0) * limit for _ in range(w.size)]).reshape(w.shape)
            assert np.array_equal(w.view(np.uint64), expected.view(np.uint64))

    def test_fan_in_scaling_bounds(self):
        params = init_model(24, [10], 3, RngState(100))
        limit = np.sqrt(6.0 / 24)
        assert np.max(np.abs(params.hidden[0].w)) <= limit
        assert np.all(params.hidden[0].b == 0.0)


class TestCheckpoint:
    @pytest.mark.parametrize("hidden_dims", [[], [8], [8, 4]])
    def test_roundtrip_bitwise(self, tmp_path, hidden_dims):
        params = _random_net(101, 6, hidden_dims, 5)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert len(loaded.hidden) == len(hidden_dims)
        for a, b in zip(params.hidden, loaded.hidden):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)
        assert np.array_equal(params.final_weights, loaded.final_weights)

    def test_truncated_file_rejected(self, tmp_path):
        params = _random_net(102, 4, [], 3)
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="expected"):
            load_checkpoint(path)

    @pytest.mark.parametrize("hidden_dims", [[], [8, 4]])
    def test_bytes_equal_per_tensor_container(self, tmp_path, hidden_dims):
        params = _random_net(103, 6, hidden_dims, 5)
        save_checkpoint(params, tmp_path / "model.bin")
        tensors = [t.copy() for _, t in _param_tensors(params)]
        container.write_container(tmp_path / "ref.bin", container.KIND_CHECKPOINT, (len(hidden_dims), 0), tensors)
        assert (tmp_path / "model.bin").read_bytes() == (tmp_path / "ref.bin").read_bytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, bad):
        params = _random_net(104, 6, [8], 5)
        params.hidden[0].b[3] = bad
        path = tmp_path / "model.bin"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: checkpoint holds non-finite parameters"):
            load_checkpoint(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("arrays, message", [
        ([(4, 5), (6,), (5, 3)], "array 1 has shape (6,), expected (5,)"),        # bias longer than its layer
        ([(4,)], "array 0 has shape (4,), expected (4, 4)"),                       # 1-D final weights
        ([(2, 3, 4)], "array 0 has shape (2, 3, 4), expected (2, 4)"),             # 3-D weight
        ([(4, 5), (5,), (6, 3)], "array 2 has shape (6, 3), expected (5, 3)"),     # chain broken, 5 -> 6
        ([(2, 0)], "layer widths [2, 0] must all be at least 1"),                  # zero classes
        ([(4, 0), (0,), (0, 3)], "layer widths [4, 0, 3] must all be at least 1"),  # zero-width hidden layer
        ([()], "layer widths [0, 0] must all be at least 1"),                      # 0-d weight
        # no payload, yet widths 5 and 2**40 would ask for 40 TiB: rejected before allocating
        ([(3, 5), (5,), (0, 2**40)], "array 2 has shape (0, 1099511627776), expected (5, 1099511627776)"),
    ])
    def test_hostile_shapes_rejected_with_the_path(self, tmp_path, arrays, message):
        path = tmp_path / "crafted.bin"
        table = b"".join(struct.pack(f"<I{len(shape)}Q", len(shape), *shape) for shape in arrays)
        path.write_bytes(container.MAGIC + struct.pack("<IIQQI", container.VERSION, container.KIND_CHECKPOINT,
                                                       len(arrays) // 2, 0, len(arrays))
                         + table + bytes(8 * sum(math.prod(shape) for shape in arrays)))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_checkpoint(path)

    def test_header_fuzz_loads_or_names_the_path(self, tmp_path):
        params = _random_net(105, 4, [3], 2)
        good = tmp_path / "good.bin"
        save_checkpoint(params, good)
        raw = good.read_bytes()
        header = len(raw) - 8 * params.flat.size
        cases = [raw[:n] for n in range(len(raw))]
        cases += [raw[:i] + bytes([v]) + raw[i + 1:] for i in range(header) for v in (0, 1, 2, 0x7F, 0x80, 0xFF)]
        path = tmp_path / "fuzz.bin"
        outcomes = {"loaded": 0, "rejected": 0}
        for data in cases:
            path.write_bytes(data)
            start = time.perf_counter()
            try:
                loaded = load_checkpoint(path)
            except ValueError as exc:
                assert str(exc).startswith(f"{path}: "), exc
                outcomes["rejected"] += 1
            else:
                assert np.array_equal(loaded.flat, params.flat)
                outcomes["loaded"] += 1
            assert time.perf_counter() - start < 1.0
        assert (len(cases), outcomes) == (784, {"loaded": 116, "rejected": 668})

    def test_container_round_trips_0d_and_strided_arrays(self, tmp_path):
        path = tmp_path / "arrays.bin"
        arrays = [np.array(2.5), np.arange(12.0).reshape(3, 4)[:, ::2], np.ones((2, 0)), np.array([-0.0])]
        container.write_container(path, container.KIND_CHECKPOINT, (1, 2), arrays)
        kind, meta, got = container.read_container(path)
        assert (kind, meta) == (container.KIND_CHECKPOINT, (1, 2))
        assert [a.shape for a in got] == [(), (3, 2), (2, 0), (1,)]
        for a, b in zip(got, arrays):
            assert np.array_equal(a.view(np.uint64), np.asarray(b).view(np.uint64))

    @pytest.mark.parametrize("array", [
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(24.0).reshape(4, 6)[::2, 1::2],
        np.array(-2.5),
        np.arange(6.0, dtype=">f8").reshape(2, 3),
        np.arange(5, dtype=np.int32),
    ], ids=["fortran", "strided", "0d", "big_endian", "int32"])
    def test_any_layout_writes_the_bytes_of_its_c_order_copy(self, tmp_path, array):
        # the file a one-buffer write makes: the header, then each array's C-order little-endian bytes
        arrays = [np.ones((2, 2)), array]
        header = container.MAGIC + struct.pack("<IIQQI", container.VERSION, container.KIND_CHECKPOINT, 1, 0, 2)
        for a in arrays:
            header += struct.pack(f"<I{a.ndim}Q", a.ndim, *a.shape)
        payload = b"".join(np.asarray(a, dtype=np.float64, order="C").astype("<f8", copy=False).tobytes()
                           for a in arrays)
        container.write_container(tmp_path / "a.bin", container.KIND_CHECKPOINT, (1, 0), arrays)
        assert (tmp_path / "a.bin").read_bytes() == header + payload
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]

    def test_cifar_checkpoint_is_written_without_a_staging_copy(self, tmp_path):
        # the [3072, 512, 10] parameter vector is 12.6 MB; the header is the only thing built in memory
        params = _random_net(106, 3072, [512], 10)
        tracemalloc.start()
        try:
            save_checkpoint(params, tmp_path / "model.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        # the 36-byte header, then ndim and dims of the weights (2-d), the bias (1-d) and the final weights (2-d)
        assert (tmp_path / "model.bin").stat().st_size == 36 + 3 * 4 + 8 * (2 + 1 + 2) + params.flat.nbytes
        assert np.array_equal(load_checkpoint(tmp_path / "model.bin").flat, params.flat)

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (2**63,), (2**63, 2**63, 3)])
    def test_huge_dims_rejected_by_length_check(self, tmp_path, dims):
        # int64 products of these dims wrap (to 0 for the first), which once let
        # a header with no payload through to a reshape error
        path = tmp_path / "huge.bin"
        path.write_bytes(container.MAGIC + struct.pack("<IIQQI", container.VERSION, container.KIND_CHECKPOINT, 0, 0, 1)
                         + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))
        found = 40 + 8 * len(dims)
        with pytest.raises(ValueError, match=rf"{re.escape(str(path))}: expected \d+ bytes, found {found}"):
            container.read_container(path)


def test_linear_model_separable_blobs_reach_perfect_train_accuracy():
    from icmix.harness import train, train_config_from_dict

    cfg = train_config_from_dict({
        "seed": 11,
        "dataset": {"kind": "blobs", "num_classes": 2, "per_class": 50, "dim": 4, "spread": 0.1},
        "model": {"hidden_dims": []},
        "train": {"epochs": 200, "batch_size": 32},
        "method": {"name": "none"},
    })
    report = train(cfg)
    train_acc = [r.accuracy for r in report.records if r.split == "train"]
    assert max(train_acc) == 1.0
