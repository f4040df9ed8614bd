"""The byte-identity matrix tool: its configs parse, and its comparison sees each kind of difference.

``tools/artifact_matrix.py`` is imported read-only, with the benchmark's
workload module it builds its configs from: no bytecode is written under
``tools/`` or ``perfbench/``. Nothing here trains; ``compare`` and
``tolerance`` run on run directories written by hand.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from icmix.container import KIND_CHECKPOINT, read_container, write_container
from icmix.harness import train_config_from_dict

ROOT = Path(__file__).resolve().parents[1]
METRICS = "epoch,split,loss,accuracy,lr\n1,train,0.693147180560,0.5,0.1\n1,test,0.6875,0.75,0.1\n"
CONFIG = {"seed": 3, "dataset": {"kind": "blobs", "seed": 11}, "method": {"name": "ic_mixup"}}
PARAMETERS = [np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), np.array([0.5, -0.25, 0.0])]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import artifact_matrix
    return artifact_matrix


def _write_run(run: Path) -> Path:
    run.mkdir()
    (run / "metrics.csv").write_text(METRICS)
    write_container(run / "checkpoint.bin", KIND_CHECKPOINT, (0, 0), PARAMETERS)
    (run / "curve.csv").write_text("lambda,mean_feature_sq_norm\n0,1.5\n1,2.25\n")
    (run / "run_report.json").write_text(json.dumps({"config": CONFIG, "epoch_seconds": [0.5]}))
    (run / "eval.json").write_text(json.dumps({"accuracy": 0.75, "loss": 0.6875, "num_samples": 40}))
    return run


def _flip_first_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))


def test_every_config_is_a_valid_train_config(tool, tmp_path):
    import workloads

    matrix = tool.configs(workloads, tmp_path)
    for config in matrix.values():
        train_config_from_dict(config)
    assert len({json.dumps(config, sort_keys=True) for config in matrix.values()}) == len(matrix)


def test_identical_runs_pass_every_check(tool, tmp_path):
    assert tool.compare(_write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")) == []


def _set_config_seed(run: Path) -> None:
    report = json.loads((run / "run_report.json").read_text())
    report["config"]["dataset"]["seed"] += 1
    (run / "run_report.json").write_text(json.dumps(report))


def _eval_off_the_last_row(run: Path) -> None:
    (run / "eval.json").write_text(json.dumps({"accuracy": 0.725, "loss": 0.6875, "num_samples": 40}))


@pytest.mark.parametrize("change, flagged", [
    (lambda run: _flip_first_byte(run / "metrics.csv"), ["metrics.csv"]),
    (lambda run: _flip_first_byte(run / "checkpoint.bin"), ["checkpoint.bin"]),
    (lambda run: _flip_first_byte(run / "curve.csv"), ["curve.csv"]),
    (_set_config_seed, ["config"]),
    (_eval_off_the_last_row, ["eval (tree)"]),
], ids=["metrics", "checkpoint", "curve", "config", "eval_row"])
def test_each_difference_is_flagged_by_its_own_check(tool, tmp_path, change, flagged):
    rev, tree = _write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")
    change(tree)
    assert tool.compare(rev, tree) == flagged


def test_eval_is_checked_on_the_rev_side_too(tool, tmp_path):
    rev, tree = _write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")
    _eval_off_the_last_row(rev)
    assert tool.compare(rev, tree) == ["eval (rev)"]


def test_eval_must_match_a_test_row(tool, tmp_path):
    rev, tree = _write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")
    for run in (rev, tree):
        (run / "metrics.csv").write_text(METRICS.replace("1,test,", "1,train,"))
    assert tool.compare(rev, tree) == ["eval (rev)", "eval (tree)"]


def test_identical_runs_have_no_tolerance_report(tool, tmp_path):
    assert tool.tolerance(_write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")) == []


def _set_bias(run: Path) -> None:
    weights, bias = read_container(run / "checkpoint.bin")[2]
    bias[1] = -0.375
    write_container(run / "checkpoint.bin", KIND_CHECKPOINT, (0, 0), [weights, bias])


@pytest.mark.parametrize("change, report", [
    (lambda run: (run / "metrics.csv").write_text(METRICS.replace("1,test,0.6875", "1,test,0.625")),
     "    metrics.csv: epoch abs 0 rel 0, loss abs 0.0625 rel 0.0902, accuracy abs 0 rel 0, lr abs 0 rel 0"),
    (lambda run: (run / "curve.csv").write_text("lambda,mean_feature_sq_norm\n0,1.75\n1,2.25\n"),
     "    curve.csv: lambda abs 0 rel 0, mean_feature_sq_norm abs 0.25 rel 0.111"),
    (_set_bias, "    checkpoint.bin: array 0 abs 0 rel 0, array 1 abs 0.125 rel 0.25"),
], ids=["metrics", "curve", "checkpoint"])
def test_tolerance_reports_the_largest_differences(tool, tmp_path, change, report):
    # relative to the array's largest magnitude on either side (loss 0.693147180560, curve 2.25, bias 0.5)
    rev, tree = _write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")
    change(tree)
    assert tool.tolerance(rev, tree) == [report]


def test_tolerance_is_not_decided_by_entries_near_zero(tool, tmp_path):
    # a parameter that moves off 0 by 2**-60 reads as 2**-60 / 0.5, not as 1; an all-zero array reads 0, not nan
    rev, tree = _write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")
    weights, bias = (a.copy() for a in PARAMETERS)
    weights[1, 2] += 2.0 ** -50
    bias[2] = 2.0 ** -60
    write_container(rev / "checkpoint.bin", KIND_CHECKPOINT, (0, 0), [*PARAMETERS, np.zeros(2)])
    write_container(tree / "checkpoint.bin", KIND_CHECKPOINT, (0, 0), [weights, bias, np.zeros(2)])
    assert tool.tolerance(rev, tree) == [
        "    checkpoint.bin: array 0 abs 8.88e-16 rel 1.48e-16, array 1 abs 8.67e-19 rel 1.73e-18, array 2 abs 0 rel 0"]


def test_tolerance_names_columns_that_do_not_line_up(tool, tmp_path):
    rev, tree = _write_run(tmp_path / "rev"), _write_run(tmp_path / "tree")
    (tree / "curve.csv").write_text("lambda,mean_feature_sq_norm\n0,1.5\n")
    assert tool.tolerance(rev, tree) == ["    curve.csv: columns or shapes differ"]
