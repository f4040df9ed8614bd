import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from icmix import container
from icmix.cli import main
from icmix.model import init_model, save_checkpoint
from icmix.numerics import RngState


def _write_config(tmp_path, method="none", epochs=5, seed=3):
    cfg = {
        "seed": seed,
        "dataset": {"kind": "blobs", "num_classes": 3, "per_class": 50, "dim": 8, "spread": 0.3},
        "model": {"hidden_dims": [16]},
        "train": {"epochs": epochs, "batch_size": 32},
        "method": {"name": method},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_then_eval_then_analyze_roundtrip(tmp_path, capsys):
    config = _write_config(tmp_path, method="ic_mixup", epochs=15)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "checkpoint.bin").is_file()
    report = json.loads((out / "run_report.json").read_text())
    dataset_spec = json.dumps(report["config"]["dataset"])

    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--dataset", dataset_spec]) == 0
    captured = capsys.readouterr().out.strip().splitlines()[-1]
    metrics = json.loads(captured)
    assert metrics["accuracy"] >= 0.9
    assert metrics["num_samples"] == 150

    curve = tmp_path / "curve.csv"
    assert main(["analyze", "--checkpoint", str(out / "checkpoint.bin"),
                 "--dataset", dataset_spec, "--step", "0.1",
                 "--seed", "1", "--out", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 12


def test_eval_accepts_dataset_spec_file(tmp_path, capsys):
    config = _write_config(tmp_path, epochs=3)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    spec_path = tmp_path / "dataset.json"
    report = json.loads((out / "run_report.json").read_text())
    spec_path.write_text(json.dumps(report["config"]["dataset"]))
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                 "--dataset", str(spec_path)]) == 0
    assert "accuracy" in capsys.readouterr().out


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")]) == 3
    assert "I/O error" in capsys.readouterr().err


def test_malformed_json_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1


def test_invalid_config_reports_problems(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "dataset": {"kind": "blobs"},
                               "train": {"epochs": 0}, "extra": True}))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "train.epochs" in err and "extra" in err


def test_infinite_alpha_is_validation_error(tmp_path, capsys):
    # Python's json reads Infinity; a Beta draw with an infinite shape never returns
    bad = tmp_path / "bad.json"
    bad.write_text('{"dataset": {"kind": "blobs"}, "method": {"name": "mixup", "alpha": Infinity}}')
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 1
    assert "method.alpha: must be a finite number" in capsys.readouterr().err


def test_cifar_label_out_of_range_is_io_error_naming_the_file(tmp_path, cifar10_dir, capsys):
    # used to end as "error: labels must lie in [0, 10)" with exit 1 and no file named
    data = tmp_path / "cifar"
    data.mkdir()
    for source in cifar10_dir.iterdir():
        if source.name != "data_batch_3.bin":
            (data / source.name).symlink_to(source)
    raw = bytearray((cifar10_dir / "data_batch_3.bin").read_bytes())
    raw[17 * 3073] = 10  # the label byte of record 17
    (data / "data_batch_3.bin").write_bytes(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"kind": "cifar10", "path": str(data)}, "method": {"name": "mixup"}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 3
    bad = data / "data_batch_3.bin"
    assert capsys.readouterr().err == f"I/O error: {bad}: record 17 has label 10, expected one in [0, 10)\n"
    assert not out.exists()


def test_cifar100_coarse_label_out_of_range_is_io_error_naming_the_file(tmp_path, cifar100_dir, capsys):
    # the coarse byte used to go unchecked, so such a file trained with no error
    data = tmp_path / "cifar"
    data.mkdir()
    (data / "train.bin").symlink_to(cifar100_dir / "train.bin")
    raw = bytearray((cifar100_dir / "test.bin").read_bytes())
    raw[5 * 3074] = 200  # the coarse label byte of record 5
    (data / "test.bin").write_bytes(raw)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"kind": "cifar100", "path": str(data)}}))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 3
    bad = data / "test.bin"
    assert capsys.readouterr().err == f"I/O error: {bad}: record 5 has coarse label 200, expected one in [0, 20)\n"
    assert not out.exists()


def test_dataset_spec_that_is_not_an_object_is_validation_error(tmp_path, capsys):
    _, path, _ = _blobs_checkpoint(tmp_path)
    spec = tmp_path / "dataset.json"
    spec.write_text("[1]")
    assert main(["eval", "--checkpoint", str(path), "--dataset", str(spec)]) == 1
    assert capsys.readouterr().err == "invalid configuration:\n  - dataset: must be a JSON object\n"


@pytest.mark.parametrize("arg", ["[1]", ' [{"kind": "blobs"}]'], ids=["array", "space_then_array"])
def test_inline_dataset_spec_that_is_not_an_object_is_validation_error(tmp_path, arg, capsys):
    _, path, _ = _blobs_checkpoint(tmp_path)
    assert main(["eval", "--checkpoint", str(path), "--dataset", arg]) == 1
    assert capsys.readouterr().err == "invalid configuration:\n  - dataset: must be a JSON object\n"


def test_eval_class_width_mismatch_is_validation_error(tmp_path, capsys):
    config = _write_config(tmp_path, epochs=2)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    spec = json.dumps({"kind": "blobs", "num_classes": 4, "per_class": 10,
                       "dim": 8, "spread": 0.3, "seed": 0})
    assert main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--dataset", spec]) == 1


def test_missing_checkpoint_is_io_error(tmp_path):
    spec = json.dumps({"kind": "blobs", "seed": 0})
    assert main(["eval", "--checkpoint", str(tmp_path / "none.bin"), "--dataset", spec]) == 3


def test_checkpoint_with_huge_dims_is_validation_error(tmp_path, capsys):
    # dims 2**32 x 2**32 and no payload: an int64 size product wraps to 0
    path = tmp_path / "huge.bin"
    path.write_bytes(container.MAGIC + struct.pack("<IIQQI", container.VERSION, container.KIND_CHECKPOINT, 0, 0, 1)
                     + struct.pack("<I2Q", 2, 2**32, 2**32))
    spec = json.dumps({"kind": "blobs", "seed": 0})
    assert main(["eval", "--checkpoint", str(path), "--dataset", spec]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: expected ")


def test_checkpoint_with_hostile_shapes_is_validation_error_naming_the_path(tmp_path, capsys):
    # a bias of length 6 under a 4 x 5 weight used to be reported without the file's name
    path = tmp_path / "crafted.bin"
    container.write_container(path, container.KIND_CHECKPOINT, (1, 0), [np.ones((4, 5)), np.ones(6), np.ones((5, 3))])
    spec = json.dumps({"kind": "blobs", "seed": 0})
    assert main(["eval", "--checkpoint", str(path), "--dataset", spec]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: array 1 has shape (6,), expected (5,)")


def test_out_of_memory_is_validation_error_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # blobs with per_class 1e9 and dim 10 used to end in a traceback from numpy's allocator
    def out_of_memory(spec):
        raise MemoryError("Unable to allocate 224. GiB for an array with shape (30000000000,)")

    monkeypatch.setattr("icmix.harness.build_dataset_pair", out_of_memory)
    out = tmp_path / "run"
    assert main(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 224. GiB for an array with shape (30000000000,)\n"
    assert not out.exists()


def test_analyze_bad_step_is_validation_error(tmp_path, capsys):
    config = _write_config(tmp_path, epochs=2)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    capsys.readouterr()
    # inf used to pass the check and end in a ZeroDivisionError traceback; 1e-300 divides 1
    # but asks for a grid of about 1e300 points, and 1 / 5e-324 overflows to inf
    for step in ("0.3", "inf", "nan", "1e-300", "5e-324"):
        assert main(["analyze", "--checkpoint", str(out / "checkpoint.bin"),
                     "--dataset", json.dumps(report["config"]["dataset"]),
                     "--step", step, "--out", str(tmp_path / "c.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: step")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverging_training_is_numeric_error_and_writes_nothing(tmp_path, capsys):
    # lr 1e6 overflows the weights; the training loss turns nan in epoch 9
    cfg = {"seed": 3, "dataset": {"kind": "blobs"}, "model": {"hidden_dims": [64]},
           "train": {"epochs": 10, "lr": 1e6, "lr_steps": [100]}, "method": {"name": "ic_mixup"}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "training loss is nan at epoch 9, step 26" in err
    assert not out.exists()


def test_gradcheck_pass_and_fail_paths(capsys):
    assert main(["gradcheck", "--seeds", "6"]) == 0
    assert "gradcheck: PASS" in capsys.readouterr().out
    assert main(["gradcheck", "--seeds", "4", "--tol", "1e-15"]) == 2
    assert "gradcheck: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [["--seeds", "0"], ["--seeds", "-3"], ["--tol", "inf"], ["--tol", "nan"]])
def test_gradcheck_that_checks_nothing_is_validation_error(flags, capsys):
    # each of these used to print "gradcheck: PASS" and exit 0
    assert main(["gradcheck", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "PASS" not in captured.out


def _blobs_checkpoint(tmp_path):
    """A checkpoint shaped for the default blobs dataset (dim 10, 3 classes), and that dataset's spec."""
    params = init_model(10, [4], 3, RngState(0))
    path = tmp_path / "checkpoint.bin"
    save_checkpoint(params, path)
    return params, path, json.dumps({"kind": "blobs", "seed": 0})


@pytest.mark.parametrize("seed", [str(2**64), "-1"])
def test_analyze_seed_outside_64_bits_is_validation_error(tmp_path, seed, capsys):
    # 2**64 used to wrap to seed 0 and write seed 0's curve
    _, path, spec = _blobs_checkpoint(tmp_path)
    out = tmp_path / "c.csv"
    assert main(["analyze", "--checkpoint", str(path), "--dataset", spec,
                 "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be an integer in [0, 2**64)")
    assert not out.exists()


def test_non_finite_checkpoint_is_validation_error(tmp_path, capsys):
    # eval used to print "loss": NaN, which is not JSON, and analyze wrote nan rows
    params, path, spec = _blobs_checkpoint(tmp_path)
    params.final_weights[2, 1] = float("nan")
    save_checkpoint(params, path)
    out = tmp_path / "c.csv"
    for argv in (["eval"], ["analyze", "--out", str(out)]):
        assert main([*argv, "--checkpoint", str(path), "--dataset", spec]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: checkpoint holds non-finite parameters")
        assert captured.out == ""
    assert not out.exists()


def test_unknown_subcommand_maps_to_validation_exit(capsys):
    assert main(["frobnicate"]) == 1


def test_cli_runs_as_subprocess_and_is_deterministic(tmp_path):
    config = _write_config(tmp_path, method="mixup", epochs=4)
    outputs = []
    for name in ("run_a", "run_b"):
        result = subprocess.run(
            [sys.executable, "-m", "icmix.cli", "train",
             "--config", str(config), "--out", str(tmp_path / name)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        outputs.append((tmp_path / name / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]
