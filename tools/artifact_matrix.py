"""Byte-identity matrix: do a revision and the working tree write the same artifacts?

    python3 tools/artifact_matrix.py REV

REV is any commit of this checkout; ``git archive`` extracts it to a
temporary directory. Each config of ``configs`` is trained, swept by ``icmix
analyze`` with the run's resolved ``dataset`` block and scored by ``icmix
eval``, in fresh processes with one BLAS thread, once from REV's ``src/`` and
once from the working tree's. ``compare`` names what differs: ``metrics.csv``,
``checkpoint.bin`` or the analyze ``curve.csv`` byte for byte, the ``config``
block of ``run_report.json``, or, on either side, an eval whose loss and
accuracy (``.12g``) are not the last ``test`` row of ``metrics.csv``. Both
sides also run ``icmix gradcheck --seeds 20``, which must exit 0 and print the
same output. One row per config gives the SHA-256 digests (first 16 hex
digits) of ``metrics.csv`` and ``checkpoint.bin``, REV first where they
differ. Under a row that differs, ``tolerance`` gives, for each of the three
artifacts that differs, the largest absolute and relative difference per
numeric column of the CSV, or per array of the checkpoint.
Exits 1 on any difference or failed command. CI runs it with REV =
HEAD on a clean checkout, which trains one commit in two fresh processes. The
58 configs take about 2 minutes on a 2-vCPU machine.

CIFAR-10-shaped input files come from ``perfbench/workloads.write_cifar10``.
The digests hold on one machine only: OpenBLAS picks its kernels by CPU and
row count, so another machine may give other bits on both sides.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from icmix.container import read_container  # noqa: E402  (the working tree's reader)

CIFAR_SEED = 0
WORKLOAD_SEED = 7
ARTIFACTS = ("metrics.csv", "checkpoint.bin", "curve.csv")


def _blobs(seed, dataset, hidden, train, method):
    return {"seed": seed, "dataset": {"kind": "blobs", **dataset}, "model": {"hidden_dims": hidden},
            "train": train, "method": method}


def configs(workloads, cifar_dir: Path) -> dict[str, dict]:
    """The matrix, by name: the benchmark workloads, the former CI configs, more shapes, then every method."""
    small = {"num_classes": 3, "per_class": 40, "dim": 6}
    matrix = {name: workloads.workload_config(name, WORKLOAD_SEED, cifar_dir) for name in workloads.WORKLOADS}
    matrix.update({
        # two weight matrices and weight decay: the decayed prefix of the flat parameter vector spans both
        "ci_regmixup": _blobs(3, small, [16, 8], {"epochs": 3, "batch_size": 32, "weight_decay": 1e-3},
                              {"name": "ic_regmixup"}),
        # remix trains with the soft-label cross-entropy, which ic_regmixup never calls
        "ci_remix": _blobs(5, {**small, "imbalance_ratio": 0.3}, [16], {"epochs": 3, "batch_size": 16},
                           {"name": "remix"}),
        # no mixing: clean batches only, and 120 rows in batches of 17 leave a last batch of one row
        "ci_none": _blobs(7, small, [16], {"epochs": 3, "batch_size": 17}, {"name": "none"}),
        # no hidden layer: the flat vector holds only W, so weight decay covers all of it and the
        # checkpoint has no biases
        "ci_linear": _blobs(9, small, [], {"epochs": 3, "batch_size": 16, "weight_decay": 1e-3},
                            {"name": "ic_mixup"}),
        # alpha 1e-3: the Beta boost underflows and ratios are redrawn often; an epoch's
        # 300 rows take about 13-14k raw draws, so each planned epoch crosses a chunk end
        "ci_tiny_alpha": _blobs(11, {**small, "per_class": 100}, [16], {"epochs": 3, "batch_size": 16},
                                {"name": "mixup", "alpha": 0.001}),
        # mixing drops a last batch of one row: 129 rows in batches of 16 leave one, so each
        # epoch's plan covers 128 rows and the unpaired row draws nothing
        "ci_dropped_singleton": _blobs(13, {**small, "per_class": 43}, [16], {"epochs": 3, "batch_size": 16},
                                       {"name": "ic_mixup"}),
        # the only config to set tau and kappa: remix snapping on long-tailed classes feeds the cc loss alone
        "ci_ic_remix_cc": _blobs(15, {**small, "num_classes": 4, "imbalance_ratio": 0.2}, [16],
                                 {"epochs": 3, "batch_size": 16},
                                 {"name": "ic_remix", "axes": "cc", "tau": 0.6, "kappa": 2.0}),
        # a 5000-row blobs test split spans two 2048-row eval blocks, each standardized on its own
        "ci_blobs_blocks": _blobs(19, {"num_classes": 10, "per_class": 500, "dim": 8}, [16], {"epochs": 1},
                                  {"name": "ic_mixup"}),
        # CIFAR-10-shaped bytes: the pixels stay uint8 and are standardized per batch and per eval
        # block; the 10000-row test split spans several 2048-row eval blocks
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
        # long-tailed, data-constrained CIFAR-10-shaped bytes, where remix snaps labels
        "cifar_ic_remix_longtail": {"seed": 29, "dataset": {"kind": "cifar10", "path": str(cifar_dir),
                                                            "fraction": 0.1, "imbalance_ratio": 0.1},
                                    "model": {"hidden_dims": [16]}, "train": {"epochs": 1, "batch_size": 32},
                                    "method": {"name": "ic_remix"}},
        # every CIFAR-10-shaped record read whole, one readinto per file, into a linear model
        "cifar_full_linear": {"seed": 31, "dataset": {"kind": "cifar10", "path": str(cifar_dir)},
                              "model": {"hidden_dims": []}, "train": {"epochs": 1, "batch_size": 128},
                              "method": {"name": "regmixup"}},
        # the long-tail rule alone picks the records read, from the labels of all 50000
        "cifar_remix_longtail_only": {"seed": 33, "dataset": {"kind": "cifar10", "path": str(cifar_dir),
                                                              "imbalance_ratio": 0.1},
                                      "model": {"hidden_dims": [16]}, "train": {"epochs": 1, "batch_size": 64},
                                      "method": {"name": "remix"}},
    })
    # every method on each of its axes, at each depth, on long-tailed, subsampled blobs with weight decay
    longtail = {"num_classes": 4, "per_class": 40, "dim": 6, "fraction": 0.7, "imbalance_ratio": 0.3}
    sections = [{"name": name} for name in ("none", "mixup", "regmixup", "remix")] + [
        {"name": name, "axes": axes} for name in ("ic_mixup", "ic_regmixup", "ic_remix") for axes in ("cc", "ci", "both")]
    depths = {"linear": [], "16": [16], "16x8": [16, 8]}
    for seed, (section, (depth, hidden)) in enumerate(itertools.product(sections, depths.items()), 101):
        matrix["_".join([*section.values(), depth])] = _blobs(
            seed, longtail, hidden, {"epochs": 2, "batch_size": 16, "weight_decay": 1e-3}, section)
    return matrix


def _extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` under ``dest``; return its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True, capture_output=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def _icmix(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """Run one ``icmix`` command from ``tree``'s ``src/`` in a fresh process; report a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "icmix.cli", *args], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  {tree}: {args[0]} exited {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
    return done


def _config(run: Path) -> dict:
    return json.loads((run / "run_report.json").read_text())["config"]


def _run(tree: Path, config_path: Path, out: Path) -> bool:
    """Train one config from ``tree``, then sweep and score its checkpoint with the run's own dataset block."""
    if _icmix(tree, "train", "--config", str(config_path), "--out", str(out)).returncode != 0:
        return False
    read = ["--checkpoint", str(out / "checkpoint.bin"), "--dataset", json.dumps(_config(out)["dataset"])]
    if _icmix(tree, "analyze", *read, "--out", str(out / "curve.csv")).returncode != 0:
        return False
    done = _icmix(tree, "eval", *read)
    (out / "eval.json").write_text(done.stdout)
    return done.returncode == 0


def compare(rev: Path, tree: Path) -> list[str]:
    """The checks that two run directories of one config fail; empty when they agree."""
    failed = [f for f in ARTIFACTS if (rev / f).read_bytes() != (tree / f).read_bytes()]
    if _config(rev) != _config(tree):
        failed.append("config")
    for side, run in (("rev", rev), ("tree", tree)):
        # a fresh process scores the checkpoint on the test split as the run's last epoch did
        got = json.loads((run / "eval.json").read_text())
        epoch, split, loss, accuracy, lr = (run / "metrics.csv").read_text().splitlines()[-1].split(",")
        if split != "test" or (f"{got['loss']:.12g}", f"{got['accuracy']:.12g}") != (loss, accuracy):
            failed.append(f"eval ({side})")
    return failed


def _numbers(path: Path) -> dict[str, np.ndarray]:
    """The numeric columns of a CSV artifact by name, or a checkpoint's arrays as ``array i`` in checkpoint order."""
    if path.suffix == ".bin":
        return {f"array {i}": a for i, a in enumerate(read_container(path)[2])}
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    columns = {}
    for name, values in zip(header, zip(*rows)):
        try:
            columns[name] = np.array([float(v) for v in values])
        except ValueError:  # a text column, such as split
            pass
    return columns


def tolerance(rev: Path, tree: Path) -> list[str]:
    """One line per artifact that differs: the largest absolute and relative difference of each array.

    An array is a numeric CSV column or a checkpoint array. Its relative
    difference is the largest absolute one over the array's largest
    magnitude on either side, and 0 where both sides are all 0, so entries
    near 0 do not decide it.
    """
    report = []
    for f in ARTIFACTS:
        if (rev / f).read_bytes() == (tree / f).read_bytes():
            continue
        a, b = _numbers(rev / f), _numbers(tree / f)
        if a.keys() != b.keys() or any(a[k].shape != b[k].shape for k in a):
            report.append(f"    {f}: columns or shapes differ")
            continue
        parts = []
        for name in a:
            diff = np.abs(a[name] - b[name]).max(initial=0.0)
            scale = max(np.abs(a[name]).max(initial=0.0), np.abs(b[name]).max(initial=0.0))
            parts.append(f"{name} abs {diff:.3g} rel {diff / scale if scale > 0 else 0.0:.3g}")
        report.append(f"    {f}: {', '.join(parts)}")
    return report


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
        gradchecks = [_icmix(tree, "gradcheck", "--seeds", "20") for tree in trees.values()]
        same = all(done.returncode == 0 for done in gradchecks) and gradchecks[0].stdout == gradchecks[1].stdout
        differing = [] if same else ["gradcheck"]
        print(f"{'gradcheck --seeds 20':28s}  {'same   ' if same else 'DIFFERS'}")
        sys.dont_write_bytecode = True  # nothing is written under perfbench/
        sys.path.insert(0, str(ROOT / "perfbench"))
        import workloads

        cifar_dir = tmp / "cifar10"
        workloads.write_cifar10(cifar_dir, CIFAR_SEED)
        matrix = configs(workloads, cifar_dir)
        for name, config in matrix.items():
            config_path = tmp / f"{name}.json"
            config_path.write_text(json.dumps(config))
            outs = {side: tmp / "runs" / side / name for side in trees}
            if not all([_run(trees[side], config_path, out) for side, out in outs.items()]):
                differing.append(name)
                print(f"{name:28s}  FAILED")
                continue
            failed = compare(*outs.values())
            row = [f"{name:28s}", "DIFFERS" if failed else "same   "]
            for f in ("metrics.csv", "checkpoint.bin"):
                digests = dict.fromkeys(_digest(out / f) for out in outs.values())
                row.append(f"{f} {' -> '.join(digests)}")
            print("  ".join(row + failed))
            if failed:
                differing.append(name)
                for line in tolerance(*outs.values()):
                    print(line)
    print(f"{len(differing)} of {len(matrix) + 1} checks (gradcheck and each config) differ or failed: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
