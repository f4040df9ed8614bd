import json

import numpy as np
import pytest

from icmix.harness import (
    ConfigError,
    EvalMetrics,
    NonFiniteError,
    analyze_interpolation,
    batch_loss_and_grads,
    build_dataset_pair,
    dataset_spec_from_dict,
    evaluate,
    gradcheck,
    train,
    train_config_from_dict,
)
from icmix.data import Dataset, synth_blobs
from icmix.losses import MixedScoreMatrix, loss_cc
from icmix.mixing import ClassHistogram, MixConfig, one_hot
from icmix.model import ModelParams, forward, init_model, load_checkpoint
from icmix.numerics import RngState

from oracles import naive_hard_cross_entropy


def _blob_config(method="none", seed=1, epochs=10, batch_size=64, axes="both", **dataset_overrides):
    dataset = {"kind": "blobs", "num_classes": 3, "per_class": 100, "dim": 10, "spread": 0.3}
    dataset.update(dataset_overrides)
    return train_config_from_dict({
        "seed": seed,
        "dataset": dataset,
        "model": {"hidden_dims": [32]},
        "train": {"epochs": epochs, "batch_size": batch_size},
        "method": {"name": method, "axes": axes},
    })


class TestConfigParsing:
    def test_defaults_materialize(self):
        cfg = train_config_from_dict({"seed": 4, "dataset": {"kind": "blobs"}})
        assert cfg.train.batch_size == 128
        assert cfg.train.lr == 0.1
        assert cfg.train.momentum == 0.9
        assert cfg.train.weight_decay == 5e-4
        assert cfg.train.lr_decay == 0.2
        assert cfg.method.method == "none"
        assert cfg.method.tau == 0.5 and cfg.method.kappa == 3.0
        assert cfg.dataset.fraction == 1.0 and cfg.dataset.imbalance_ratio == 1.0

    def test_alpha_default_depends_on_method(self):
        assert train_config_from_dict(
            {"seed": 0, "dataset": {"kind": "blobs"}, "method": {"name": "mixup"}}
        ).method.alpha == 0.2
        assert train_config_from_dict(
            {"seed": 0, "dataset": {"kind": "blobs"}, "method": {"name": "ic_regmixup"}}
        ).method.alpha == 20.0

    def test_default_lr_steps_scale_with_epochs(self):
        cfg = train_config_from_dict(
            {"seed": 0, "dataset": {"kind": "blobs"}, "train": {"epochs": 200}}
        )
        assert cfg.train.lr_steps == (50, 100, 150)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError) as err:
            train_config_from_dict({
                "seed": 0,
                "dataset": {"kind": "blobs", "pathh": "typo"},
                "trian": {},
            })
        text = str(err.value)
        assert "pathh" in text and "trian" in text

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ConfigError) as err:
            train_config_from_dict({
                "seed": -3,
                "dataset": {"kind": "mnist", "fraction": 2.0},
                "train": {"epochs": 0, "lr": -1.0},
                "method": {"name": "cutmix", "tau": 7},
            })
        problems = err.value.problems
        assert len(problems) >= 6
        joined = "\n".join(problems)
        for needle in ("seed", "dataset.kind", "dataset.fraction", "train.epochs",
                       "train.lr", "method.name", "method.tau"):
            assert needle in joined

    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            _blob_config(epochs=0)

    def test_cifar_requires_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            train_config_from_dict({"seed": 0, "dataset": {"kind": "cifar10"}})

    def test_mixing_requires_pairable_batch(self):
        with pytest.raises(ConfigError, match="batch_size"):
            train_config_from_dict({
                "seed": 0,
                "dataset": {"kind": "blobs"},
                "train": {"batch_size": 1},
                "method": {"name": "mixup"},
            })

    def test_dataset_seed_defaults_derive_from_run_seed(self):
        a = train_config_from_dict({"seed": 1, "dataset": {"kind": "blobs"}})
        b = train_config_from_dict({"seed": 2, "dataset": {"kind": "blobs"}})
        assert a.dataset.seed != b.dataset.seed
        explicit = train_config_from_dict({"seed": 2, "dataset": {"kind": "blobs", "seed": 77}})
        assert explicit.dataset.seed == 77

    def test_standalone_dataset_spec(self):
        spec = dataset_spec_from_dict({"kind": "blobs", "per_class": 5})
        assert spec.per_class == 5 and spec.seed == 0
        with pytest.raises(ConfigError):
            dataset_spec_from_dict({"kind": "blobs", "bogus": 1})


class TestEvaluate:
    def test_untrained_model_on_random_labels_is_at_chance(self):
        train_ds, test_ds = synth_blobs(4, 500, 6, 0.5, seed=21)
        rng = RngState(20)
        shuffled = Dataset(
            test_ds.images,
            np.array([rng.randbelow(4) for _ in range(test_ds.size)]),
            4, "test",
        )
        params = init_model(6, [8], 4, RngState(22))
        acc = evaluate(params, shuffled).accuracy
        sigma = np.sqrt(0.25 * 0.75 / shuffled.size)
        assert abs(acc - 0.25) < 3 * sigma + 1e-9

    def test_ideal_logits_give_perfect_accuracy(self):
        ds_train, _ = synth_blobs(3, 30, 3, 0.4, seed=23)
        params = ModelParams([], np.eye(3) * 100.0)
        ds = Dataset(one_hot(ds_train.labels, 3), ds_train.labels, 3, "test")
        assert evaluate(params, ds).accuracy == 1.0

    def test_matches_scalar_loop(self):
        ds_train, _ = synth_blobs(3, 40, 5, 0.4, seed=24)
        params = init_model(5, [6], 3, RngState(25))
        metrics = evaluate(params, ds_train)
        logits = forward(params, ds_train.images).logits
        hits = sum(int(np.argmax(logits[i]) == ds_train.labels[i]) for i in range(ds_train.size))
        assert metrics.accuracy == hits / ds_train.size
        assert metrics.loss == pytest.approx(
            naive_hard_cross_entropy(logits, ds_train.labels), abs=1e-12)

    def test_width_mismatch(self):
        ds_train, _ = synth_blobs(3, 10, 5, 0.4, seed=26)
        params = init_model(5, [], 7, RngState(27))
        with pytest.raises(ValueError, match="classes"):
            evaluate(params, ds_train)


class TestTrain:
    def test_smoke_accuracy_five_seeds(self):
        accs = [train(_blob_config(method="none", seed=s, epochs=50)).final_test_accuracy
                for s in (1, 2, 3, 4, 5)]
        assert min(accs) >= 0.95

    def test_metrics_csv_deterministic(self):
        a = train(_blob_config(method="ic_mixup", seed=5, epochs=8))
        b = train(_blob_config(method="ic_mixup", seed=5, epochs=8))
        assert a.metrics_csv() == b.metrics_csv()

    def test_artifacts_deterministic_on_disk(self, tmp_path):
        cfg = _blob_config(method="mixup", seed=6, epochs=6)
        train(cfg, out_dir=tmp_path / "a")
        train(cfg, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()
        assert (tmp_path / "a" / "checkpoint.bin").read_bytes() == (tmp_path / "b" / "checkpoint.bin").read_bytes()

    def test_report_structure(self, tmp_path):
        cfg = _blob_config(method="remix", seed=7, epochs=4)
        report = train(cfg, out_dir=tmp_path)
        assert [r.epoch for r in report.records if r.split == "test"] == [1, 2, 3, 4]
        assert all(0.0 <= r.accuracy <= 1.0 for r in report.records)
        assert report.final_test_accuracy == report.records[-1].accuracy
        saved = json.loads((tmp_path / "run_report.json").read_text())
        assert saved["config"]["method"]["name"] == "remix"
        assert saved["config"]["dataset"]["seed"] == cfg.dataset.seed
        assert len(saved["epoch_seconds"]) == 4
        csv = (tmp_path / "metrics.csv").read_text()
        assert csv.splitlines()[0] == "epoch,split,loss,accuracy,lr"
        params = load_checkpoint(tmp_path / "checkpoint.bin")
        assert params.num_classes == 3

    @pytest.mark.parametrize("method", ["none", "mixup", "ic_mixup", "regmixup",
                                        "ic_regmixup", "remix", "ic_remix"])
    @pytest.mark.parametrize("batch_size", [2, 128])
    def test_method_matrix_completeness(self, method, batch_size):
        cfg = _blob_config(method=method, epochs=2, batch_size=batch_size, per_class=30)
        report = train(cfg)
        assert len(report.records) == 4

    @pytest.mark.parametrize("axes", ["cc", "ci", "both"])
    def test_single_axis_training_works(self, axes):
        report = train(_blob_config(method="ic_mixup", epochs=30, axes=axes))
        assert report.final_test_accuracy >= 0.90

    def test_non_finite_eval_loss_stops_before_writing(self, tmp_path, monkeypatch):
        def evaluate_inf_on_test(params, ds):
            metrics = evaluate(params, ds)
            return EvalMetrics(metrics.accuracy, float("inf"), ds.size) if ds.split == "test" else metrics

        monkeypatch.setattr("icmix.harness.evaluate", evaluate_inf_on_test)
        with pytest.raises(NonFiniteError, match="test eval loss is inf at epoch 1, step 5") as err:
            train(_blob_config(method="ic_mixup", epochs=3), out_dir=tmp_path)
        assert (err.value.epoch, err.value.step) == (1, 5)
        assert list(tmp_path.iterdir()) == []

    def test_lr_schedule_recorded(self):
        cfg = train_config_from_dict({
            "seed": 8,
            "dataset": {"kind": "blobs", "per_class": 20},
            "train": {"epochs": 6, "batch_size": 32, "lr_steps": [2, 4], "lr_decay": 0.5},
            "method": {"name": "none"},
        })
        report = train(cfg)
        lrs = [r.lr for r in report.records if r.split == "train"]
        assert lrs == [0.1, 0.1, 0.05, 0.05, 0.025, 0.025]

    def test_fraction_and_imbalance_compose(self):
        cfg = train_config_from_dict({
            "seed": 9,
            "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 100,
                         "fraction": 0.5, "imbalance_ratio": 0.1},
            "train": {"epochs": 1, "batch_size": 16},
            "method": {"name": "remix"},
        })
        train_ds, _ = build_dataset_pair(cfg.dataset)
        assert train_ds.class_counts().tolist() == [50, 16, 5]
        report = train(cfg)
        assert len(report.records) == 2


class TestBatchObjective:
    def test_joint_axes_decompose(self):
        train_ds, _ = synth_blobs(3, 40, 6, 0.3, seed=31)
        hist = ClassHistogram.from_labels(train_ds.labels, 3)
        params = init_model(6, [8], 3, RngState(32))
        values = {}
        for axes in ("both", "cc", "ci"):
            cfg = MixConfig(method="ic_mixup", alpha=0.2, axes=axes)
            value, _, _ = batch_loss_and_grads(
                params, cfg, train_ds.images[:16], train_ds.labels[:16], hist, RngState(33))
            values[axes] = value
        assert values["both"] == values["cc"] + values["ci"]

    def test_clean_half_contributes_restricted_ce(self):
        # composite with unique one-hot classes: under the class axis, each
        # clean row's loss term is its restricted cross-entropy term
        rng = RngState(34)
        c = 6
        clean = rng.normals(2 * 4).reshape(2, 4)
        other = rng.normals(2 * 4).reshape(2, 4)
        inputs = np.vstack([clean, other])
        classes = np.array([0, 1, 2, 3])
        weights = one_hot(classes, c)
        w = rng.normals(4 * c).reshape(4, c)
        ms = MixedScoreMatrix.from_logits(inputs @ w, weights)
        res = loss_cc(ms)
        per_row = res.diagnostics["log_z_cc"] - np.diag(ms.s_tilde)
        restricted = (inputs @ w)[:, classes]
        for i in range(2):  # the clean half
            expected = naive_hard_cross_entropy(restricted[i:i + 1], [i])
            assert per_row[i] == pytest.approx(expected, abs=1e-12)


class TestAnalyze:
    def test_grid_and_pair_counts(self):
        train_ds, test_ds = synth_blobs(10, 1, 4, 0.2, seed=41)
        params = init_model(4, [6], 10, RngState(42))
        table = analyze_interpolation(params, test_ds, 0.1, seed=0)
        assert len(table.rows) == 11
        assert all(r.num_pairs == 90 for r in table.rows)
        assert table.rows[0].lam == 0.0 and table.rows[-1].lam == 1.0

    def test_endpoint_identity(self):
        # one test image per class makes the exemplar choice unambiguous
        _, test_ds = synth_blobs(3, 1, 5, 0.2, seed=43)
        params = init_model(5, [7], 3, RngState(44))
        table = analyze_interpolation(params, test_ds, 0.5, seed=0)
        logits = forward(params, test_ds.images).logits
        order = np.argsort(test_ds.labels)
        pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
        diffs = [logits[order[a], a] - logits[order[a], b] for a, b in pairs]
        assert table.rows[-1].mean_conf_diff == pytest.approx(np.mean(diffs), abs=1e-12)
        norms = [float(np.sum(forward(params, test_ds.images[order[a]][None, :]).features ** 2))
                 for a, _ in pairs]
        assert table.rows[-1].mean_feature_sq_norm == pytest.approx(np.mean(norms), abs=1e-9)

    def test_step_must_divide_one(self):
        _, test_ds = synth_blobs(3, 2, 4, 0.2, seed=45)
        params = init_model(4, [], 3, RngState(46))
        with pytest.raises(ValueError, match="divide 1"):
            analyze_interpolation(params, test_ds, 0.3, seed=0)

    def test_missing_class_is_an_error(self):
        images = np.random.default_rng(0).normal(size=(4, 3))
        ds = Dataset(images, np.array([0, 0, 2, 2]), 3, "test")
        params = init_model(3, [], 3, RngState(47))
        with pytest.raises(ValueError, match="class 1"):
            analyze_interpolation(params, ds, 0.5, seed=0)

    def test_deterministic_given_seed(self):
        _, test_ds = synth_blobs(4, 5, 4, 0.3, seed=48)
        params = init_model(4, [5], 4, RngState(49))
        a = analyze_interpolation(params, test_ds, 0.25, seed=9)
        b = analyze_interpolation(params, test_ds, 0.25, seed=9)
        assert a.to_csv() == b.to_csv()


class TestGradcheck:
    def test_reduced_suite_passes(self):
        report = gradcheck(instances=12, tol=1e-5)
        assert report.passed
        assert max(report.max_rel_err_s.values()) <= 1e-5
        assert max(report.max_abs_err_w_chain.values()) <= 1e-10

    def test_default_suite_passes(self):
        report = gradcheck()  # 100 instances over the full shape grid
        assert report.instances == 100
        assert report.passed
        assert max(report.max_rel_err_s.values()) <= 1e-5
        assert max(report.max_rel_err_w_fd.values()) <= 1e-5

    def test_impossible_tolerance_fails(self):
        report = gradcheck(instances=4, tol=1e-15)
        assert not report.passed

    def test_b1_instances_report_zero_w_errors(self):
        report = gradcheck(instances=3, tol=1e-5, shapes=((1, 3, 4),))
        assert report.passed
        assert report.max_abs_err_w_chain["cc"] == 0.0
        assert report.max_abs_err_w_chain["ci"] == 0.0

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            gradcheck(instances=1, tol=0.0)

    def test_report_lines_mention_every_loss(self):
        report = gradcheck(instances=2, tol=1e-5)
        text = "\n".join(report.lines())
        for name in ("mixup_ce", "cc", "ci", "ic_joint"):
            assert name in text
