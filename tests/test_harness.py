import errno
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from icmix import container
from icmix.harness import (
    ConfigError,
    DatasetSpec,
    EvalMetrics,
    MixConfig,
    ModelSpec,
    NonFiniteError,
    TrainConfig,
    TrainSpec,
    analyze_interpolation,
    batch_loss_and_grads,
    build_dataset_pair,
    dataset_spec_from_dict,
    evaluate,
    gradcheck,
    resolved_config_dict,
    train,
    train_config_from_dict,
)
from icmix.data import Dataset, synth_blobs
from icmix.losses import MixedScoreMatrix, loss_cc
from icmix.mixing import ClassHistogram, one_hot
from icmix.model import ModelParams, forward, init_model, load_checkpoint, save_checkpoint
from icmix.numerics import RngState, softmax_log_z

from oracles import float_dataset_pair, naive_hard_cross_entropy


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

    @pytest.mark.parametrize("section, key", [("method", "alpha"), ("train", "lr"), ("method", "kappa")])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_numbers_rejected(self, section, key, value):
        with pytest.raises(ConfigError) as err:
            train_config_from_dict({"dataset": {"kind": "blobs"}, section: {key: value}})
        [problem] = err.value.problems
        assert problem.startswith(f"{section}.{key}: must be a finite number")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seeds_outside_64_bits_rejected(self, seed):
        with pytest.raises(ConfigError) as err:
            train_config_from_dict({"seed": seed, "dataset": {"kind": "blobs", "seed": seed}})
        assert err.value.problems == [f"seed: must be an integer in [0, 2**64), got {seed}",
                                      f"dataset.seed: must be an integer in [0, 2**64), got {seed}"]

    def test_alpha_below_floor_rejected(self):
        with pytest.raises(ConfigError, match=r"method\.alpha: must be a finite number >= 0\.001"):
            train_config_from_dict({"method": {"name": "mixup", "alpha": 1e-4}})

    def test_hand_built_config_is_validated_and_resolved(self):
        spec = dict(dataset=DatasetSpec(num_classes=3, per_class=20, dim=4), model=ModelSpec((8,)),
                    train=TrainSpec(epochs=4, batch_size=16))
        report = train(TrainConfig(seed=5, method=MixConfig("mixup"), **spec))
        assert report.config["train"]["lr_steps"] == [1, 2, 3]
        parsed = train(train_config_from_dict(report.config))
        assert parsed.metrics_csv() == report.metrics_csv()
        spec["train"] = TrainSpec(lr=0.0)  # TrainSpec takes any rate; the schema wants one > 0
        with pytest.raises(ConfigError, match=r"train\.lr"):
            train(TrainConfig(seed=5, method=MixConfig("mixup"), **spec))

    @pytest.mark.parametrize("method, alpha", [("regmixup", 20.0), ("ic_regmixup", 20.0), ("mixup", 0.2),
                                               ("ic_remix", 0.2), ("none", 0.2)])
    def test_hand_built_method_resolves_as_its_config_file(self, method, alpha):
        # a hand-built RegMixup config used to train at alpha 0.2, its config file at 20
        assert MixConfig(method).alpha == alpha
        hand_built = resolved_config_dict(TrainConfig(seed=0, dataset=DatasetSpec(), model=ModelSpec(),
                                                      train=TrainSpec(), method=MixConfig(method)))
        parsed = resolved_config_dict(train_config_from_dict({"method": {"name": method}}))
        assert hand_built["method"] == parsed["method"] == _resolved(method={"name": method, "alpha": alpha})["method"]
        assert hand_built["dataset"]["seed"] == 0  # only a config file derives it from the run seed

    @pytest.mark.parametrize("key, value, valid", [
        *[(key, good, True) for key, good in (("alpha", 0.4), ("tau", 0.3), ("kappa", 2.0))],
        *[(key, bad, False) for key in ("alpha", "tau", "kappa")
          for bad in (True, float("inf"), float("nan"), "0.2", [0.5], None)],
        ("name", "ic_remix", True), ("axes", "cc", True),
        *[(key, bad, False) for key in ("name", "axes") for bad in ("cutmix", 3, None)],
    ])
    def test_mix_config_and_schema_agree(self, key, value, valid):
        # a hand-built MixConfig and the config file's method section follow one rule table
        attr = "method" if key == "name" else key
        outcomes = []
        for build in (lambda: MixConfig(**{attr: value}),
                      lambda: train_config_from_dict({"method": {"name": "remix", key: value}})):
            try:
                build()
                outcomes.append(None)
            except ConfigError as err:
                outcomes.append(err.problems)
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] is None) == valid

    def test_standalone_dataset_spec(self):
        spec = dataset_spec_from_dict({"kind": "blobs", "per_class": 5})
        assert spec.per_class == 5 and spec.seed == 0
        with pytest.raises(ConfigError):
            dataset_spec_from_dict({"kind": "blobs", "bogus": 1})

    @pytest.mark.parametrize("spec, problem", [
        (DatasetSpec(seed=-1), "dataset.seed: must be an integer in [0, 2**64), got -1"),
        (DatasetSpec(kind="cifar10"), "dataset.path: required for kind 'cifar10'"),
    ], ids=["negative_seed", "cifar_without_path"])
    def test_hand_built_dataset_spec_meets_the_config_rules(self, spec, problem):
        # a negative seed would wrap to 2**64 - 1; a missing path would fail inside the loader
        with pytest.raises(ConfigError) as err:
            build_dataset_pair(spec)
        assert err.value.problems == [problem]


_METHOD_CHOICES = "('none', 'mixup', 'ic_mixup', 'regmixup', 'ic_regmixup', 'remix', 'ic_remix')"
_KIND_CHOICES = "('cifar10', 'cifar100', 'blobs')"
_SEED0_DATASET_SEED = 14804455941960215590  # RngState(0).derive(1).seed


def _resolved(seed=0, **sections):
    """The resolved config of an all-default run, with some fields of some sections replaced."""
    out = {
        "seed": seed,
        "dataset": {"kind": "blobs", "path": None, "fraction": 1.0, "imbalance_ratio": 1.0,
                    "seed": _SEED0_DATASET_SEED, "num_classes": 3, "per_class": 100, "dim": 10,
                    "spread": 0.3},
        "model": {"hidden_dims": [64]},
        "train": {"epochs": 50, "batch_size": 128, "lr": 0.1, "momentum": 0.9, "weight_decay": 0.0005,
                  "lr_steps": [13, 25, 38], "lr_decay": 0.2},
        "method": {"name": "none", "alpha": 0.2, "tau": 0.5, "kappa": 3.0, "axes": "both"},
    }
    for section, values in sections.items():
        out[section].update(values)
    return out


# Each config with either its resolved_config_dict or its exact ConfigError.problems, in order.
CONFIG_GOLDEN = [
    pytest.param({}, _resolved(), id="defaults"),
    pytest.param({"seed": 4, "dataset": {"kind": "blobs"}},
                 _resolved(4, dataset={"seed": 4765223346856496739}), id="minimal_blobs"),
    pytest.param({
        "seed": 7,
        "dataset": {"kind": "blobs", "path": None, "fraction": 0.5, "imbalance_ratio": 0.2, "seed": 77,
                    "num_classes": 4, "per_class": 20, "dim": 5, "spread": 1},
        "model": {"hidden_dims": []},
        "train": {"epochs": 200, "batch_size": 2, "lr": 1, "momentum": 0, "weight_decay": 0,
                  "lr_steps": None, "lr_decay": 1},
        "method": {"name": "ic_regmixup", "tau": 1, "kappa": 1, "axes": "cc"},
    }, _resolved(
        7,
        dataset={"fraction": 0.5, "imbalance_ratio": 0.2, "seed": 77, "num_classes": 4, "per_class": 20,
                 "dim": 5, "spread": 1.0},
        model={"hidden_dims": []},
        train={"epochs": 200, "batch_size": 2, "lr": 1.0, "momentum": 0.0, "weight_decay": 0.0,
               "lr_steps": [50, 100, 150], "lr_decay": 1.0},
        method={"name": "ic_regmixup", "alpha": 20.0, "tau": 1.0, "kappa": 1.0, "axes": "cc"},
    ), id="every_field_set"),
    pytest.param({
        "seed": 2,
        "dataset": {"kind": "cifar100", "path": "data/c100"},
        "train": {"epochs": 3, "lr_steps": [1, 2]},
        "method": {"name": "remix", "alpha": 1},
    }, _resolved(
        2,
        dataset={"kind": "cifar100", "path": "data/c100", "seed": 3268634955820036610},
        train={"epochs": 3, "lr_steps": [1, 2]},
        method={"name": "remix", "alpha": 1.0},
    ), id="cifar_with_path"),
    pytest.param({"seed": 2**64 - 1, "dataset": {"kind": "blobs", "seed": 0}},
                 _resolved(2**64 - 1, dataset={"seed": 0}), id="seed_bounds"),
    pytest.param({"dataset": {"kind": "blobs"}, "method": {"name": "mixup", "alpha": float("inf")}},
                 ["method.alpha: must be a finite number >= 0.001, got inf"], id="alpha_infinite"),
    pytest.param({"dataset": {"kind": "blobs"}, "method": {"name": "mixup", "alpha": 1e-4}},
                 ["method.alpha: must be a finite number >= 0.001, got 0.0001"], id="alpha_below_floor"),
    pytest.param({"seed": 2**64}, ["seed: must be an integer in [0, 2**64), got 18446744073709551616"],
                 id="seed_2_64"),
    pytest.param({"dataset": {"kind": "blobs", "seed": -5}},
                 ["dataset.seed: must be an integer in [0, 2**64), got -5"], id="dataset_seed_negative"),
    pytest.param([], ["config: must be a JSON object"], id="config_not_object"),
    pytest.param({"dataset": 5},
                 ["dataset: must be a JSON object", f"dataset.kind: must be one of {_KIND_CHOICES}, got None"],
                 id="dataset_not_object"),
    pytest.param({"model": [64]}, ["model: must be a JSON object"], id="model_not_object"),
    pytest.param({"method": "mixup"}, ["method: must be a JSON object"], id="method_not_object"),
    pytest.param({"seed": 0, "dataset": {"kind": "blobs", "pathh": "x"}, "trian": {}},
                 ["config: unknown keys ['trian']", "dataset: unknown keys ['pathh']"],
                 id="unknown_keys_two_levels"),
    pytest.param({"model": {"hidden": [3]}, "train": {"epoch": 3, "lr": 0.1}, "method": {"nme": "mixup", "beta": 1}},
                 ["model: unknown keys ['hidden']", "train: unknown keys ['epoch']",
                  "method: unknown keys ['beta', 'nme']"],
                 id="unknown_keys_every_section"),
    pytest.param({"method": {"name": []}}, [f"method.name: must be one of {_METHOD_CHOICES}, got []"],
                 id="method_name_list"),
    pytest.param({"method": {"name": {"regmixup": 1}}},
                 [f"method.name: must be one of {_METHOD_CHOICES}, got {{'regmixup': 1}}"],
                 id="method_name_dict"),
    pytest.param({"dataset": {"kind": "blobs", "path": 5}}, ["dataset.path: must be a string, got 5"],
                 id="dataset_path_int"),
    pytest.param({"dataset": {"kind": "cifar10"}}, ["dataset.path: required for kind 'cifar10'"],
                 id="cifar_without_path"),
    pytest.param({"train": {"batch_size": 1}, "method": {"name": "mixup"}},
                 ["train.batch_size: must be >= 2 when a mixing method is active"], id="mixup_batch_of_one"),
    pytest.param({"dataset": {"kind": "blobs", "seed": 1.5}},
                 ["dataset.seed: must be an integer in [0, 2**64), got 1.5"], id="dataset_seed_not_integer"),
    pytest.param({"dataset": {"kind": "blobs", "num_classes": 1}},
                 ["dataset.num_classes: blobs need at least 2 classes"], id="blobs_one_class"),
    pytest.param({"train": {"lr_steps": [3, 2]}},
                 ["train.lr_steps: must be a strictly increasing list of integers >= 1, got [3, 2]"],
                 id="lr_steps_not_increasing"),
    pytest.param({"model": {"hidden_dims": 64}},
                 ["model.hidden_dims: must be a list of integers >= 1, got 64"], id="hidden_dims_not_list"),
    pytest.param({
        "seed": -3,
        "dataset": {"kind": "mnist", "fraction": 2.0, "imbalance_ratio": 0, "num_classes": 0,
                    "per_class": 1.5, "dim": True, "spread": 0},
        "model": {"hidden_dims": [0]},
        "train": {"epochs": 0, "batch_size": 0, "lr": -1, "momentum": 1, "weight_decay": -1, "lr_decay": 0},
        "method": {"name": "cutmix", "alpha": 0, "tau": 7, "kappa": 0.5, "axes": "rows"},
    }, [
        "seed: must be an integer in [0, 2**64), got -3",
        f"dataset.kind: must be one of {_KIND_CHOICES}, got 'mnist'",
        "dataset.fraction: must be a number in (0, 1], got 2.0",
        "dataset.imbalance_ratio: must be a number in (0, 1], got 0",
        "dataset.num_classes: must be an integer >= 1, got 0",
        "dataset.per_class: must be an integer >= 1, got 1.5",
        "dataset.dim: must be an integer >= 1, got True",
        "dataset.spread: must be a finite number > 0, got 0",
        "model.hidden_dims: must be a list of integers >= 1, got [0]",
        "train.epochs: must be an integer >= 1, got 0",
        "train.batch_size: must be an integer >= 1, got 0",
        "train.lr: must be a finite number > 0, got -1",
        "train.momentum: must be a number in [0, 1), got 1",
        "train.weight_decay: must be a finite number >= 0, got -1",
        "train.lr_decay: must be a number in (0, 1], got 0",
        f"method.name: must be one of {_METHOD_CHOICES}, got 'cutmix'",
        "method.alpha: must be a finite number >= 0.001, got 0",
        "method.tau: must be a number in [0, 1], got 7",
        "method.kappa: must be a finite number >= 1, got 0.5",
        "method.axes: must be one of ('cc', 'ci', 'both'), got 'rows'",
    ], id="every_field_invalid"),
]


@pytest.mark.parametrize("config, expected", CONFIG_GOLDEN)
def test_config_golden(config, expected):
    if isinstance(expected, dict):
        assert resolved_config_dict(train_config_from_dict(config)) == expected
    else:
        with pytest.raises(ConfigError) as err:
            train_config_from_dict(config)
        assert err.value.problems == expected


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
        params = ModelParams([3, 3])
        params.final_weights[...] = np.eye(3) * 100.0
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

    @pytest.mark.parametrize("n, edges", [
        (1, [0, 1]), (2047, [0, 2047]), (2048, [0, 2048]), (4095, [0, 4095]), (4096, [0, 2048, 4096]),
        (5000, [0, 2500, 5000]), (10000, [0, 2500, 5000, 7500, 10000]),
        (12287, [0, 2457, 4914, 7372, 9829, 12287]),
    ])
    def test_blocks_are_near_equal_in_one_buffer_of_the_largest(self, monkeypatch, n, edges):
        ds = Dataset(RngState(28).normals(n * 2).reshape(n, 2), np.zeros(n, dtype=np.int64), 2, "test")
        seen = []
        rows = Dataset.rows

        def recording_rows(self, idx, out=None):
            seen.append((idx.start, idx.stop, out.base.shape))
            return rows(self, idx, out)

        monkeypatch.setattr(Dataset, "rows", recording_rows)
        evaluate(init_model(2, [3], 2, RngState(29)), ds)
        assert [start for start, _, _ in seen] + [seen[-1][1]] == edges
        # one buffer of ceil(n / k) rows for every block; each block holds at least min(n, 2048) rows
        assert {shape for _, _, shape in seen} == {(max(np.diff(edges)), 2)}
        assert min(np.diff(edges)) >= min(n, 2048)


@pytest.fixture(scope="module")
def cifar_test_splits(cifar10_dir):
    """The test split of one CIFAR-10 spec, as bytes with statistics and by the float64 oracle."""
    spec = dataset_spec_from_dict({"kind": "cifar10", "path": str(cifar10_dir), "fraction": 0.1, "seed": 17})
    return build_dataset_pair(spec)[1], float_dataset_pair(spec)[1]


def _first_rows(ds, n):
    return replace(ds, images=ds.images[:n], labels=ds.labels[:n])


class TestEvaluateCifarBlocks:
    """A uint8 split is evaluated in row blocks of converted bytes; the scores
    are those of the float64 split evaluated as one matrix."""

    @pytest.mark.parametrize("n", [1, 2047, 2048, 4095, 4096, 5000, 10000])
    def test_matches_float_split_evaluated_whole(self, cifar_test_splits, n):
        byte_ds, float_ds = (_first_rows(ds, n) for ds in cifar_test_splits)
        params = init_model(3072, [16], 10, RngState(61))
        got = evaluate(params, byte_ds)
        assert got == evaluate(params, float_ds)
        logits = forward(params, float_ds.images).logits
        assert got.accuracy == float(np.mean(np.argmax(logits, axis=1) == float_ds.labels))
        assert got.loss == pytest.approx(naive_hard_cross_entropy(logits, float_ds.labels), rel=1e-13, abs=0)

    def test_analyze_matches_float_split(self, cifar_test_splits):
        params = init_model(3072, [16], 10, RngState(62))
        byte_table, float_table = (analyze_interpolation(params, ds, 0.25, seed=3) for ds in cifar_test_splits)
        assert byte_table.to_csv() == float_table.to_csv()

    def test_memory_is_two_blocks_not_a_float_split(self, cifar_test_splits):
        byte_ds = cifar_test_splits[0]
        n, d, hidden = byte_ds.size, byte_ds.images.shape[1], 16
        params = init_model(d, [hidden], 10, RngState(63))
        tracemalloc.start()
        try:
            evaluate(params, byte_ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # two 2048-row blocks of float64 features and the hidden activations of every row, with no
        # finiteness mask beside them; a float64 split alone is n * d * 8 = 246 MB
        assert n == 10000 and byte_ds.images.dtype == np.uint8
        assert peak <= 2 * 2048 * d * 8 + n * hidden * 8, peak


def _checkpoint_size(params):
    """The size of ``params``' checkpoint file: a 36-byte header, each array's shape entry, the payload."""
    return 36 + sum(4 + 8 * a.ndim + a.nbytes for a in params.checkpoint_order())


def _disk_full_halfway(monkeypatch, sizes):
    """Make the disk fill up halfway through the files that ``container.write_atomic`` writes.

    ``sizes`` maps part of a file name to the file's full size. A temporary
    file whose name holds one of them gets the first half of its bytes, then
    the write that would go past them raises ENOSPC, as a full disk does.
    Other files are written whole.
    """
    real_open = open

    class HalfFull:
        def __init__(self, f, room):
            self.f, self.room = f, room

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            data = memoryview(data).cast("B")
            written = self.f.write(data[:self.room])
            self.room -= written
            if written < len(data):
                raise OSError(errno.ENOSPC, "No space left on device")
            return written

    def open_disk_full(file, *args, **kwargs):
        f = real_open(file, *args, **kwargs)
        size = next((size for name, size in sizes.items() if name in Path(file).name), None)
        return f if size is None else HalfFull(f, size // 2)

    monkeypatch.setattr(container, "open", open_disk_full, raising=False)


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

    def test_failed_artifact_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        train(_blob_config(method="mixup", seed=6, epochs=2), out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_write_bytes = Path.write_bytes

        def half_then_disk_full(path, data):
            real_write_bytes(path, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_disk_full)
        _disk_full_halfway(monkeypatch, {"new.bin": _checkpoint_size(init_model(4, [], 2, RngState(0)))})
        with pytest.raises(OSError, match="No space left"):
            train(_blob_config(method="mixup", seed=9, epochs=2), out_dir=tmp_path)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(init_model(4, [], 2, RngState(0)), tmp_path / "new.bin")
        # the old artifacts are whole and unchanged, and no temporary file is left
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_checkpoint_write_keeps_the_old_run(self, tmp_path, monkeypatch):
        train(_blob_config(method="mixup", seed=6, epochs=2), out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["checkpoint.bin", "metrics.csv", "run_report.json"]
        _disk_full_halfway(monkeypatch, {"checkpoint.bin": len(before["checkpoint.bin"])})
        # a different run, so every one of its files would differ from the old one
        with pytest.raises(OSError, match="No space left"):
            train(_blob_config(method="ic_mixup", seed=9, epochs=3), out_dir=tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

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
    @pytest.mark.parametrize("batch_size, num_classes, per_class", [
        pytest.param(2, 3, 30, id="2"), pytest.param(128, 3, 30, id="128"), pytest.param(2, 2, 1, id="2rows"),
    ])
    def test_method_matrix_completeness(self, method, batch_size, num_classes, per_class):
        # 2 classes x 1 row is the smallest set the schema lets a mixing run pair
        cfg = _blob_config(method=method, epochs=2, batch_size=batch_size,
                           num_classes=num_classes, per_class=per_class)
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
            train(_blob_config(method="ic_mixup", epochs=3), out_dir=tmp_path / "run")
        assert (err.value.epoch, err.value.step) == (1, 5)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("method", ["remix", "ic_regmixup"])
    def test_one_gradient_vector_per_run(self, monkeypatch, method):
        built = []
        init = ModelParams.__init__

        def counting_init(self, dims, flat=None):
            built.append(tuple(dims))
            init(self, dims, flat)

        monkeypatch.setattr(ModelParams, "__init__", counting_init)
        for epochs, batch_size in ((1, 64), (3, 64), (3, 16)):  # 5, 15 and 57 steps
            built.clear()
            train(_blob_config(method=method, epochs=epochs, batch_size=batch_size))
            # the parameters and one gradient vector, however many steps the run takes
            assert built == [(10, 32, 3)] * 2

    @pytest.mark.parametrize("method", ["none", "mixup", "remix", "ic_mixup", "regmixup", "ic_regmixup"])
    def test_labels_are_checked_once_per_entry_point(self, monkeypatch, method):
        # mix_batch checks a step's labels, and regmixup_compose its clean labels; nothing checks them again
        from icmix import mixing

        calls = []
        checked = mixing._checked_labels
        monkeypatch.setattr(mixing, "_checked_labels", lambda *args: calls.append(1) or checked(*args))
        train(_blob_config(method=method, epochs=2, batch_size=64))
        steps = 2 * 5  # 300 rows in batches of 64
        assert len(calls) == steps * (2 if method in mixing.REGMIXUP_METHODS else 1)

    @pytest.mark.parametrize("method", ["none", "mixup", "remix", "regmixup"])
    def test_partners_are_checked_once_per_mixed_step(self, monkeypatch, method):
        # mix_batch checks a step's partners: one min and one max over B ints
        from icmix import mixing

        calls = []
        checked = mixing._checked_partners
        monkeypatch.setattr(mixing, "_checked_partners", lambda *args: calls.append(1) or checked(*args))
        train(_blob_config(method=method, epochs=2, batch_size=64))
        assert len(calls) == (0 if method == "none" else 2 * 5)

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

    def test_lr_decays_once_per_boundary_after_it(self):
        # epoch e has crossed boundary s only when e > s; the rate is the exact product 0.1 * 0.2**k
        cfg = train_config_from_dict({
            "seed": 8,
            "dataset": {"kind": "blobs", "per_class": 10},
            "train": {"epochs": 4, "batch_size": 32, "lr": 0.1, "lr_decay": 0.2, "lr_steps": [1, 2, 3]},
            "method": {"name": "none"},
        })
        records = train(cfg).records
        assert [r.lr for r in records] == [0.1 * 0.2 ** k for k in (0, 0, 1, 1, 2, 2, 3, 3)]
        assert records[2].lr == pytest.approx(0.02, abs=1e-15)

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
            rng = RngState(33)
            draws = rng.permutation(16), np.array([rng.sample_beta(cfg.alpha) for _ in range(16)])
            value, _, _ = batch_loss_and_grads(
                params, cfg, train_ds.images[:16], train_ds.labels[:16], hist, draws)
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
        per_row = softmax_log_z(ms.s_tilde)[1] - np.diag(ms.s_tilde)
        assert np.mean(per_row) == pytest.approx(loss_cc(ms).value, abs=1e-15)
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

    @pytest.mark.parametrize("seed", [2**64, -1, 1.5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # RngState keeps a seed modulo 2**64, so 2**64 used to run as seed 0
        _, test_ds = synth_blobs(3, 2, 4, 0.2, seed=45)
        params = init_model(4, [], 3, RngState(46))
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            analyze_interpolation(params, test_ds, 0.5, seed=seed)

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
        # an infinite tolerance passes any error
        for tol in (0.0, -1e-5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tolerance must be a finite number > 0"):
                gradcheck(instances=1, tol=tol)

    @pytest.mark.parametrize("instances", [0, -3])
    def test_needs_at_least_one_instance(self, instances):
        # no instance checks nothing, and used to report a pass
        with pytest.raises(ValueError, match="instances must be an integer >= 1"):
            gradcheck(instances=instances)

    def test_report_lines_mention_every_loss(self):
        report = gradcheck(instances=2, tol=1e-5)
        text = "\n".join(report.lines())
        for name in ("mixup_ce", "cc", "ci", "ic_joint"):
            assert name in text
