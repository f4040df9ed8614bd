"""Byte-identity matrix: do a revision and the working tree write the same artifacts?

    python3 tools/artifact_matrix.py REV

REV is any commit of the checkout that holds this file. It is extracted
with ``git archive`` into a temporary directory, and each config of
``configs`` is trained with ``icmix train`` in a fresh process (one BLAS
thread), once from REV's ``src/`` and once from the working tree's. Then
``metrics.csv`` and ``checkpoint.bin`` are compared byte for byte, and so
are the ``config`` blocks of ``run_report.json``. One row per config gives
the result and the SHA-256 digests (first 16 hex digits) of both files;
where they differ, the REV digest comes first. Exits 1 if any config
differs or fails to train.

CIFAR-10-shaped input files come from ``perfbench/workloads.write_cifar10``.
The digests hold on one machine only: OpenBLAS picks its kernels by CPU and
row count, so another machine may give other bits on both sides.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CIFAR_SEED = 0
WORKLOAD_SEED = 7


def _blobs(seed, dataset, hidden, train, method):
    return {"seed": seed, "dataset": {"kind": "blobs", **dataset}, "model": {"hidden_dims": hidden},
            "train": train, "method": method}


def _workloads():
    """The benchmark's workload module, imported without writing bytecode under perfbench/."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def configs(workloads, cifar_dir: Path) -> dict[str, dict]:
    """The matrix, by name: the benchmark workloads, the CI two-process configs, then more blobs shapes."""
    small = {"num_classes": 3, "per_class": 40, "dim": 6}
    matrix = {name: workloads.workload_config(name, WORKLOAD_SEED, cifar_dir) for name in workloads.WORKLOADS}
    matrix.update({
        "ci_regmixup": _blobs(3, small, [16, 8], {"epochs": 3, "batch_size": 32, "weight_decay": 1e-3},
                              {"name": "ic_regmixup"}),
        "ci_remix": _blobs(5, {**small, "imbalance_ratio": 0.3}, [16], {"epochs": 3, "batch_size": 16},
                           {"name": "remix"}),
        "ci_none": _blobs(7, small, [16], {"epochs": 3, "batch_size": 17}, {"name": "none"}),
        "ci_linear": _blobs(9, small, [], {"epochs": 3, "batch_size": 16, "weight_decay": 1e-3},
                            {"name": "ic_mixup"}),
        "ci_tiny_alpha": _blobs(11, {**small, "per_class": 100}, [16], {"epochs": 3, "batch_size": 16},
                                {"name": "mixup", "alpha": 0.001}),
        "ci_dropped_singleton": _blobs(13, {**small, "per_class": 43}, [16], {"epochs": 3, "batch_size": 16},
                                       {"name": "ic_mixup"}),
        "ci_ic_remix_cc": _blobs(15, {**small, "num_classes": 4, "imbalance_ratio": 0.2}, [16],
                                 {"epochs": 3, "batch_size": 16},
                                 {"name": "ic_remix", "axes": "cc", "tau": 0.6, "kappa": 2.0}),
        "ci_blobs_blocks": _blobs(19, {"num_classes": 10, "per_class": 500, "dim": 8}, [16], {"epochs": 1},
                                  {"name": "ic_mixup"}),
        "ci_cifar_bytes": {"seed": 17, "dataset": {"kind": "cifar10", "path": str(cifar_dir), "fraction": 0.02},
                           "model": {"hidden_dims": [16]}, "train": {"epochs": 1, "batch_size": 32},
                           "method": {"name": "ic_mixup"}},
        # per_class * dim odd: a pending normal crosses each class boundary
        "mixup_odd_rows": _blobs(21, {"num_classes": 3, "per_class": 7, "dim": 5}, [16],
                                 {"epochs": 3, "batch_size": 8}, {"name": "mixup"}),
        "dim_1": _blobs(23, {"num_classes": 4, "per_class": 30, "dim": 1}, [8], {"epochs": 3, "batch_size": 16},
                        {"name": "ic_mixup"}),
        "ic_remix_subsampled_linear": _blobs(25, {"num_classes": 5, "per_class": 60, "dim": 6, "fraction": 0.7,
                                                  "imbalance_ratio": 0.2}, [],
                                             {"epochs": 3, "batch_size": 16}, {"name": "ic_remix"}),
        "regmixup_two_hidden": _blobs(27, small, [16, 8], {"epochs": 3, "batch_size": 16},
                                      {"name": "regmixup"}),
    })
    return matrix


def _extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest``; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return commit


def _train(tree: Path, config_path: Path, out: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "icmix.cli", "train", "--config", str(config_path),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  {tree}: train exited {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
    return done.returncode == 0


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="artifact-matrix-") as tmp:
        tmp = Path(tmp)
        trees = {"rev": tmp / "rev", "tree": ROOT}
        commit = _extract(argv[0], trees["rev"])
        print(f"{argv[0]} = {commit} against the working tree of {ROOT}")
        workloads, cifar_dir = _workloads(), tmp / "cifar10"
        workloads.write_cifar10(cifar_dir, CIFAR_SEED)
        matrix, differing = configs(workloads, cifar_dir), []
        for name, config in matrix.items():
            config_path = tmp / f"{name}.json"
            config_path.write_text(json.dumps(config))
            outs = {side: tmp / "runs" / side / name for side in trees}
            if not all([_train(trees[side], config_path, out) for side, out in outs.items()]):
                differing.append(name)
                print(f"{name:28s} FAILED")
                continue
            same = all((outs["rev"] / f).read_bytes() == (outs["tree"] / f).read_bytes()
                       for f in ("metrics.csv", "checkpoint.bin"))
            reports = [json.loads((out / "run_report.json").read_text())["config"] for out in outs.values()]
            same = same and reports[0] == reports[1]
            row = [f"{name:28s}", "same   " if same else "DIFFERS"]
            for f in ("metrics.csv", "checkpoint.bin"):
                digests = dict.fromkeys(_digest(out / f) for out in outs.values())
                row.append(f"{f} {' -> '.join(digests)}")
            print("  ".join(row))
            if not same:
                differing.append(name)
    print(f"{len(differing)} of {len(matrix)} configs differ or failed: {differing}" if differing
          else "every config wrote the same metrics.csv, checkpoint.bin and config block")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
