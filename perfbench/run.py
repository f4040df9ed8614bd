"""Training benchmark for icmix.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from its
``src/`` directory. Inputs are made from ``--seed``. Each operation is one
full ``icmix.harness.train`` call in a fresh child process with one BLAS
thread, and calls never overlap. The run repeats whole rounds until
``--seconds`` have passed (at least MIN_ROUNDS), checks every output apart
from the program (checks.py), and prints one JSON object as its last line.
With ``--trace 0`` that object holds the end-to-end metrics. With
``--trace 1`` each round is an untraced and a traced call, in alternating
order, and the object holds the per-layer metrics. README.md defines each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
MIN_ROUNDS = {False: 3, True: 1}
# a run must end within 180 s; no round starts that would end past this
ROUND_DEADLINE_S = 150.0

END_TO_END = {"setup_s": "s", "train_samples_per_s": "1/s", "peak_rss_mb": "MB", "test_accuracy": "ratio"}

# (metric, how it is taken from the traced call's summary, span or count name, unit)
PER_LAYER = [
    ("data.load_cifar_s", "total_s", "data.load_cifar", "s"),
    ("data.standardize_s", "total_s", "data.standardize", "s"),
    ("data.stratified_subsample_s", "total_s", "data.stratified_subsample", "s"),
    ("data.bytes_read", "counts", "data.bytes_read", "B"),
    ("data.peak_rss_gain_mb", "counts", "data.peak_rss_gain_mb", "MB"),
    ("data.synth_blobs_s", "self_s", "data.synth_blobs", "s"),
    ("data.longtail_subsample_s", "total_s", "data.longtail_subsample", "s"),
    ("numerics.normals_s", "total_s", "numerics.normals", "s"),
    ("numerics.normals_drawn", "counts", "numerics.normals_drawn", "count"),
    ("harness.build_dataset_pair_s", "self_s", "harness.build_dataset_pair", "s"),
    ("model.init_model_s", "total_s", "model.init_model", "s"),
    ("numerics.permutation_s", "total_s", "numerics.permutation", "s"),
    ("numerics.permuted_items", "counts", "numerics.permuted_items", "count"),
    ("numerics.sample_beta_s", "total_s", "numerics.sample_beta", "s"),
    ("numerics.beta_draws", "counts", "numerics.beta_draws", "count"),
    ("mixing.mix_batch_s", "self_s", "mixing.mix_batch", "s"),
    ("mixing.regmixup_compose_s", "total_s", "mixing.regmixup_compose", "s"),
    ("mixing.rows_mixed", "counts", "mixing.rows_mixed", "count"),
    ("losses.from_logits_s", "total_s", "losses.from_logits", "s"),
    ("losses.loss_ic_joint_s", "total_s", "losses.loss_ic_joint", "s"),
    ("losses.score_entries", "counts", "losses.score_entries", "count"),
    ("losses.loss_mixup_ce_s", "total_s", "losses.loss_mixup_ce", "s"),
    ("model.forward_train_s", "total_s", "model.forward_train", "s"),
    ("model.backward_s", "total_s", "model.backward", "s"),
    ("model.sgd_step_s", "total_s", "model.sgd_step", "s"),
    ("model.forward_eval_s", "total_s", "model.forward_eval", "s"),
    ("harness.evaluate_s", "self_s", "harness.evaluate", "s"),
    ("model.matmul_flop", "counts", "model.matmul_flop", "flop"),
    ("harness.steps", "counts", "harness.steps", "count"),
    ("model.save_checkpoint_s", "total_s", "model.save_checkpoint", "s"),
    ("container.bytes_written", "counts", "container.bytes_written", "B"),
]


def run_child(config_path: Path, out_dir: Path, traced: bool, timeout: float) -> dict | None:
    """One train call in a fresh process; None if it failed."""
    result_path = out_dir.with_suffix(".json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path), str(out_dir), str(result_path)]
    try:
        proc = subprocess.run(cmd + (["--trace"] if traced else []), env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"train call timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"train call exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    result["digest"] = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                        for name in ("metrics.csv", "checkpoint.bin")}
    return result


def per_layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    out = {}
    for name, table, key, unit in PER_LAYER:
        value = statistics.median(r["trace"][table].get(key, 0.0) for r in traced)
        out[name] = {"value": value, "unit": unit}
    out["trace.loop_s"] = {"value": statistics.median(r["loop_s"] for r in traced), "unit": "s"}
    out["trace.spans"] = {"value": statistics.median(r["trace"]["spans"] for r in traced), "unit": "count"}
    # the two calls of a round run back to back, so their ratio is least
    # affected by the machine's own drift
    loops = {(r["round"], r["traced"]): r["loop_s"] for r in traced + untraced}
    out["trace.overhead"] = {"value": statistics.median(
        loops[k, True] / loops[k, False] - 1.0 for k, _ in loops if (k, True) in loops and (k, False) in loops),
        "unit": "ratio"}
    out["trace.loop_coverage"] = {
        "value": statistics.median(r["trace"]["loop_covered_s"] / r["loop_s"] for r in traced), "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "icmix" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'icmix'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    true_classes = None
    if args.workload.startswith("cifar10"):
        true_classes = workloads.write_cifar10(WORK / "cifar", args.seed)
    config = workloads.workload_config(args.workload, args.seed, WORK / "cifar")
    config_path = WORK / "config.json"
    config_path.write_text(json.dumps(config, indent=2))

    calls: list[dict | None] = []
    kept = None  # the first successful call's artifacts, for the output checks
    t_begin = time.perf_counter()
    rounds, last_round = 0, 0.0
    while rounds < MIN_ROUNDS[trace] or time.perf_counter() - t_begin < args.seconds:
        if rounds and time.perf_counter() - t_begin + last_round > ROUND_DEADLINE_S:
            break
        t_round = time.perf_counter()
        for traced in ([False, True] if rounds % 2 == 0 else [True, False]) if trace else [False]:
            out_dir = WORK / f"call{len(calls)}"
            remaining = ROUND_DEADLINE_S + 20.0 - (time.perf_counter() - t_begin)
            result = run_child(config_path, out_dir, traced, remaining)
            if result is not None:
                result["round"] = rounds
            calls.append(result)
            if result is not None and kept is None:
                kept = out_dir
            elif out_dir != kept:
                shutil.rmtree(out_dir, ignore_errors=True)
        rounds += 1
        last_round = time.perf_counter() - t_round

    done = [c for c in calls if c is not None]
    if not done:
        print("no train call succeeded", file=sys.stderr)
        return 1
    ref = checks.Reference(config, None if true_classes is None else true_classes["test"])
    problems = check_outputs(config, ref, kept, done)
    if args.workload.startswith("cifar10"):
        shutil.rmtree(WORK / "cifar", ignore_errors=True)

    untraced = [c for c in done if not c["traced"]]
    metrics = {}
    if trace and untraced and len(untraced) < len(done):
        metrics = per_layer_metrics([c for c in done if c["traced"]], untraced)
    elif untraced:
        # The machine this was built on alternates between two speeds, about
        # 1.8x apart on the longtail loop, in phases of seconds. Where epochs
        # are that short, a median over them jumps between the two speeds from
        # run to run; the 90th percentile of epoch time, the pace 9 in 10
        # epochs keep, stays with the slower one. It is used once a run holds
        # 100 epochs, so that at least 10 lie beyond it; below that, the median.
        epochs = [t for c in untraced for t in c["epoch_s"]]
        pace = (statistics.quantiles(epochs, n=10, method="inclusive")[-1] if len(epochs) >= 100
                else statistics.median(epochs))
        values = {
            "setup_s": statistics.median(c["wall_s"] - c["loop_s"] for c in untraced),
            "train_samples_per_s": sum(checks.epoch_batches(config, ref.train_size)) / pace,
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
            "test_accuracy": untraced[0]["final_test_accuracy"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    print(f"{args.workload} seed {args.seed}: {len(calls)} train calls in {rounds} rounds; test accuracy "
          f"{untraced[0]['final_test_accuracy'] if untraced else 'n/a'}, floor {ref.floor:.4f}, "
          f"best possible {ref.ceiling:.4f}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    (WORK / "calls.json").write_text(json.dumps(calls, indent=1))
    print(json.dumps({"correct": not problems, "attempted": len(calls),
                      "failed": len(calls) - len(done), "metrics": metrics}))
    return 0


def check_outputs(config: dict, ref: checks.Reference, kept: Path, done: list[dict]) -> list[str]:
    """Problems found by the independent checks; empty when all hold."""
    problems = []
    src = (ROOT / "src").resolve()
    if any(not Path(c["icmix_file"]).resolve().is_relative_to(src) for c in done):
        problems.append(f"icmix was imported from outside {src}")
    if len({json.dumps(c["digest"], sort_keys=True) for c in done}) != 1:
        problems.append("metrics.csv or checkpoint.bin differ between calls of one config")
    csv = checks.last_test_row((kept / "metrics.csv").read_text())
    accuracy, loss = checks.score_checkpoint(checks.read_checkpoint(kept / "checkpoint.bin"),
                                             ref.test_x, ref.test_y)
    if abs(accuracy - csv["accuracy"]) > 1.0 / ref.test_y.size:
        problems.append(f"checkpoint accuracy {accuracy} != metrics.csv {csv['accuracy']}")
    if abs(loss - csv["loss"]) > 1e-9 * max(1.0, abs(loss)):
        problems.append(f"checkpoint loss {loss} != metrics.csv {csv['loss']}")
    if not csv["accuracy"] > ref.floor:
        problems.append(f"test accuracy {csv['accuracy']} does not clear the floor {ref.floor:.4f}")
    batches = checks.epoch_batches(config, ref.train_size)
    epochs = config["train"]["epochs"]
    for c in done:
        if not c["traced"]:
            continue
        check, counts = c["mix_check"], c["trace"]["counts"]
        if check["violations"]:
            problems.append(f"{check['violations']} mixed batches broke an invariant: {check['first']}")
        if counts.get("harness.steps") != len(batches) * epochs:
            problems.append(f"traced call made {counts.get('harness.steps')} SGD steps")
        if counts.get("mixing.rows_mixed") != sum(batches) * epochs:
            problems.append(f"traced call mixed {counts.get('mixing.rows_mixed')} rows")
    return problems


if __name__ == "__main__":
    sys.exit(main())
