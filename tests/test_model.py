import math
import re
import struct

import numpy as np
import pytest

from icmix import container
from icmix.losses import MixedScoreMatrix, loss_cc, loss_ci, loss_ic_joint, loss_mixup_ce
from icmix.mixing import one_hot
from icmix.model import (
    DenseLayer,
    ModelParams,
    OptimizerState,
    SgdConfig,
    backward,
    forward,
    init_model,
    load_checkpoint,
    lr_for_epoch,
    save_checkpoint,
    sgd_step,
)
from icmix.numerics import RngState

from oracles import backward_per_layer, fd_grad, max_rel_err, naive_forward_logits, scalar_rng, sgd_step_per_tensor


def _random_net(seed, input_dim, hidden_dims, num_classes):
    return init_model(input_dim, hidden_dims, num_classes, RngState(seed))


class TestForward:
    def test_zero_depth_is_linear(self):
        rng = RngState(1)
        params = ModelParams([], rng.normals(12).reshape(4, 3))
        x = rng.normals(8).reshape(2, 4)
        cache = forward(params, x)
        assert np.array_equal(cache.logits, x @ params.final_weights)
        assert cache.features is cache.inputs

    def test_zero_weights_zero_logits(self):
        params = ModelParams([DenseLayer(np.zeros((4, 5)), np.zeros(5))], np.zeros((5, 3)))
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
        params = ModelParams([], rng.normals(12).reshape(4, 3))
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
        params = ModelParams([], np.ones((2, 2)))
        state = OptimizerState(params, SgdConfig(lr=0.1, momentum=0.0, weight_decay=0.0))
        g = np.full((2, 2), 0.5)
        sgd_step(params, ModelParams([], g.copy()), state)
        assert np.max(np.abs(params.final_weights - (1.0 - 0.1 * 0.5))) < 1e-15

    def test_lr_decay_crossing_boundary(self):
        cfg = SgdConfig(lr=0.1, lr_decay=0.2, lr_steps=(50, 100, 150))
        assert lr_for_epoch(cfg, 50) == 0.1
        assert lr_for_epoch(cfg, 51) == 0.1 * 0.2
        assert lr_for_epoch(cfg, 151) == 0.1 * 0.2 ** 3
        params = ModelParams([], np.zeros((1, 1)))
        state = OptimizerState(params, cfg)
        state.set_epoch(51)
        assert state.lr == pytest.approx(0.02, abs=1e-15)

    def test_two_momentum_steps_displacement(self):
        eta, g_val = 0.05, 0.3
        params = ModelParams([], np.zeros((1, 1)))
        state = OptimizerState(params, SgdConfig(lr=eta, momentum=0.9, weight_decay=0.0, lr_steps=()))
        g = np.full((1, 1), g_val)
        sgd_step(params, ModelParams([], g.copy()), state)
        sgd_step(params, ModelParams([], g.copy()), state)
        expected = -eta * g_val * (1.0 + 1.9)
        assert params.final_weights[0, 0] == pytest.approx(expected, abs=1e-15)

    def test_weight_decay_skips_biases(self):
        params = ModelParams([DenseLayer(np.ones((1, 1)), np.ones(1))], np.ones((1, 1)))
        state = OptimizerState(params, SgdConfig(lr=1.0, momentum=0.0, weight_decay=0.5, lr_steps=()))
        zero = ModelParams([DenseLayer(np.zeros((1, 1)), np.zeros(1))], np.zeros((1, 1)))
        sgd_step(params, zero, state)
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

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_sgd_steps_bit_equal_per_tensor_oracle(self, momentum):
        params = _random_net(32, 5, [7, 4], 3)
        cfg = SgdConfig(lr=0.05, momentum=momentum, weight_decay=1e-3, lr_steps=())
        state = OptimizerState(params, cfg)
        names = [name for name, _ in _param_tensors(params)]
        ref = [t.copy() for _, t in _param_tensors(params)]
        ref_bufs = [np.zeros_like(t) for t in ref]
        decays = [0.0 if name.endswith(".b") else cfg.weight_decay for name in names]
        rng = RngState(33)
        for step in range(5):
            grads = params.empty_like()
            grads.flat[:] = rng.normals(grads.flat.size)
            # unit 2 of hidden1 dies after one step: a zero weight column and a -0.0 bias gradient
            grads.hidden[1].b[2] = -0.5 if step == 0 else -0.0
            grads.hidden[1].w[:, 2] = 0.5 if step == 0 else 0.0
            grad_tensors = [t.copy() for _, t in _param_tensors(grads)]
            sgd_step(params, grads, state)
            sgd_step_per_tensor(ref, grad_tensors, ref_bufs, decays, cfg.lr, momentum)
        assert np.array_equal(_bits(t for _, t in _param_tensors(params)), _bits(ref))
        buffers = params.empty_like()  # the momentum vector, seen through the parameter layout
        buffers.flat[:] = state.momentum
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
