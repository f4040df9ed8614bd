import json
import subprocess
import sys

import pytest

from icmix.cli import main


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


def test_analyze_bad_step_is_validation_error(tmp_path):
    config = _write_config(tmp_path, epochs=2)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads((out / "run_report.json").read_text())
    assert main(["analyze", "--checkpoint", str(out / "checkpoint.bin"),
                 "--dataset", json.dumps(report["config"]["dataset"]),
                 "--step", "0.3", "--out", str(tmp_path / "c.csv")]) == 1


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
    assert not (out / "metrics.csv").exists()
    assert not (out / "checkpoint.bin").exists()


def test_gradcheck_pass_and_fail_paths(capsys):
    assert main(["gradcheck", "--seeds", "6"]) == 0
    assert "gradcheck: PASS" in capsys.readouterr().out
    assert main(["gradcheck", "--seeds", "4", "--tol", "1e-15"]) == 2
    assert "gradcheck: FAIL" in capsys.readouterr().out


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
