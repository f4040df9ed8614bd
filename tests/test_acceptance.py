"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria are property-based: gradient agreement with independent
finite differences, closed-form oracle equivalence, exact degeneracies,
sampler statistics, rule tables, desk-scale training smokes with directional
trends, determinism, and data-layout contracts.
"""

import json
import math
import time

import numpy as np
from scipy import stats

from icmix.data import load_cifar, longtail_subsample, stratified_subsample, synth_blobs
from icmix.harness import analyze_interpolation, build_dataset_pair, dataset_spec_from_dict, train, train_config_from_dict
from icmix.losses import (
    MixedScoreMatrix,
    grad_w_cc,
    grad_w_ci,
    grad_w_mixup,
    loss_cc,
    loss_ci,
    loss_ic_joint,
    loss_mixup_ce,
    mixed_scores,
)
from icmix.mixing import one_hot, remix_label_ratio
from icmix.model import load_checkpoint
from icmix.numerics import RngState, round_half_up

from oracles import fd_grad, max_rel_err, naive_hard_cross_entropy, naive_mixed_scores

GRID_SHAPES = tuple((b, c, d) for b in (2, 4, 8) for c in (3, 5) for d in (4, 7))
N_INSTANCES = 100
FD_STEP = 1e-5


def _report(num, name, ok, detail):
    print(f"\ncriterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _instance(seed, b, c, d):
    rng = RngState(seed)
    r = rng.normals(b * d).reshape(b, d)
    w = 0.7 * rng.normals(d * c).reshape(d, c)
    labels = np.array([rng.randbelow(c) for _ in range(b)], dtype=np.int64)
    perm = rng.permutation(b)
    lam = np.array([rng.sample_beta(1.0) for _ in range(b)])
    y = lam[:, None] * one_hot(labels, c) + (1.0 - lam)[:, None] * one_hot(labels[perm], c)
    return r, w, y


def _suite_instances():
    for i in range(N_INSTANCES):
        b, c, d = GRID_SHAPES[i % len(GRID_SHAPES)]
        yield (i, b) + _instance(9000 + i, b, c, d)


_LOSSES = {
    "mixup_ce": lambda s, y: loss_mixup_ce(s, y),
    "cc": lambda s, y: loss_cc(MixedScoreMatrix.from_logits(s, y)),
    "ci": lambda s, y: loss_ci(MixedScoreMatrix.from_logits(s, y)),
    "ic_joint": lambda s, y: loss_ic_joint(MixedScoreMatrix.from_logits(s, y), "both"),
}


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for _, _, r, w, y in _suite_instances():
        s = r @ w
        for fn in _LOSSES.values():
            analytic = fn(s, y).grad_s
            numeric = fd_grad(lambda ss: fn(ss, y).value, s, step=FD_STEP)
            worst = max(worst, max_rel_err(analytic, numeric))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    _report(1, "gradient-suite", ok,
            f"{N_INSTANCES} instances, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_oracles():
    t0 = time.perf_counter()
    worst = 0.0
    closed_fns = {
        "mixup_ce": lambda r, ms: grad_w_mixup(r, ms.s, ms.mix_weights),
        "cc": lambda r, ms: grad_w_cc(r, ms),
        "ci": lambda r, ms: grad_w_ci(r, ms),
    }
    for _, b, r, w, y in _suite_instances():
        ms = mixed_scores(r, w, y)
        for name, closed_fn in closed_fns.items():
            closed = closed_fn(r, ms)
            chain = r.T @ _LOSSES[name](ms.s, y).grad_s
            worst = max(worst, float(np.max(np.abs(closed + b * chain))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(2, "closed-form-oracles", ok,
            f"{N_INSTANCES} instances, max abs err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_implementation_identity():
    worst_naive = 0.0
    bitwise_sum = True
    for seed, (b, c, d) in enumerate([(5, 7, 3), (8, 5, 4), (3, 10, 8), (16, 6, 5)]):
        r, w, y = _instance(7000 + seed, b, c, d)
        ms = mixed_scores(r, w, y)
        dense = ms.s_tilde[:, ms.column]
        worst_naive = max(worst_naive, float(np.max(np.abs(dense - naive_mixed_scores(r, w, y)))))
        joint = loss_ic_joint(ms, "both")
        bitwise_sum &= joint.value == loss_cc(ms).value + loss_ci(ms).value
    ok = worst_naive <= 1e-12 and bitwise_sum
    _report(3, "implementation-identity", ok,
            f"score matrix vs per-pair oracle {worst_naive:.2e}, joint bitwise sum {bitwise_sum}")


def test_criterion_04_degeneracy_suite():
    rng = RngState(600)
    failures = []

    s = rng.normals(20).reshape(5, 4)
    labels = np.array([rng.randbelow(4) for _ in range(5)])
    hard = naive_hard_cross_entropy(s, labels)
    if abs(loss_mixup_ce(s, one_hot(labels, 4)).value - hard) > 1e-12:
        failures.append("one-hot mixup_ce != hard CE")

    r = rng.normals(4 * 5).reshape(4, 5)
    w = rng.normals(5 * 7).reshape(5, 7)
    classes = np.array([2, 5, 0, 6])
    ms = mixed_scores(r, w, one_hot(classes, 7))
    restricted = naive_hard_cross_entropy(ms.s[:, classes], np.arange(4))
    if abs(loss_cc(ms).value - restricted) > 1e-12:
        failures.append("one-hot distinct loss_cc != restricted CE")

    r1 = rng.normals(4).reshape(1, 4)
    w1 = rng.normals(12).reshape(4, 3)
    ms1 = mixed_scores(r1, w1, np.array([[0.4, 0.6, 0.0]]))
    if not (np.all(grad_w_cc(r1, ms1) == 0.0) and np.all(grad_w_ci(r1, ms1) == 0.0)):
        failures.append("B=1 closed-form gradients not exactly zero")

    for b in (2, 3, 7):
        msu = MixedScoreMatrix.from_logits(np.zeros((b, b)), np.eye(b))
        if abs(loss_cc(msu).value - math.log(b)) > 1e-12 or abs(loss_ci(msu).value - math.log(b)) > 1e-12:
            failures.append(f"uniform scores loss != ln {b}")

    _report(4, "degeneracy-suite", not failures, "; ".join(failures) or "all exact")


def test_criterion_05_sampler_statistics():
    t0 = time.perf_counter()
    details = []
    ok = True
    for alpha in (0.2, 1.0, 20.0):
        rng = RngState(31337)
        draws = np.array([rng.sample_beta(alpha) for _ in range(100_000)])
        mean_err = abs(float(draws.mean()) - 0.5)
        var_target = 1.0 / (4.0 * (2.0 * alpha + 1.0))
        var_err = abs(float(draws.var()) - var_target)
        ok &= mean_err < 0.01 and var_err < 0.005
        details.append(f"a={alpha:g}: |mean-0.5|={mean_err:.4f}, |var-{var_target:.4f}|={var_err:.4f}")
    _report(5, "sampler-statistics", ok, "; ".join(details) + f", {time.perf_counter()-t0:.1f}s")


def test_criterion_06_remix_rule_table():
    tau, kappa = 0.5, 3.0
    cases = [
        # (lam, n_i, n_j, expected)
        (0.4, 500, 100, 0.0),   # ratio 5 >= kappa, lam < tau
        (0.0, 300, 100, 0.0),   # ratio 3 == kappa boundary, lam < tau
        (0.49, 900, 100, 0.0),  # just below tau
        (0.5, 500, 100, 0.5),   # lam == tau: first branch does not fire
        (0.9, 500, 100, 0.9),   # majority first but lam large
        (0.8, 100, 500, 1.0),   # ratio 0.2 <= 1/kappa, 1-lam < tau
        (1.0, 100, 300, 1.0),   # ratio 1/3 boundary, 1-lam = 0 < tau
        (0.51, 100, 500, 1.0),  # 1-lam just below tau
        (0.5, 100, 500, 0.5),   # 1-lam == tau: second branch does not fire
        (0.1, 100, 500, 0.1),   # minority first but lam small
        (0.6, 300, 300, 0.6),   # balanced counts
        (0.25, 200, 100, 0.25), # ratio 2 between 1/kappa and kappa
    ]
    wrong = [
        (lam, n_i, n_j, remix_label_ratio(lam, n_i, n_j, tau, kappa), expected)
        for (lam, n_i, n_j, expected) in cases
        if remix_label_ratio(lam, n_i, n_j, tau, kappa) != expected
    ]
    _report(6, "remix-rule-table", not wrong,
            f"12-case grid, mismatches: {wrong or 'none'}")


_SMOKE_DATASET = {"kind": "blobs", "num_classes": 3, "per_class": 100, "dim": 10, "spread": 0.3}


def _smoke_config(method, seed):
    return train_config_from_dict({
        "seed": seed,
        "dataset": dict(_SMOKE_DATASET),
        "model": {"hidden_dims": [32]},
        "train": {"epochs": 50, "batch_size": 64},
        "method": {"name": method},
    })


def test_criterion_07_end_to_end_smoke():
    methods = ["none", "mixup", "ic_mixup", "regmixup", "ic_regmixup", "remix", "ic_remix"]
    details = []
    ok = True
    for method in methods:
        t0 = time.perf_counter()
        report = train(_smoke_config(method, seed=42))
        elapsed = time.perf_counter() - t0
        acc = report.final_test_accuracy
        ok &= elapsed < 60.0 and acc >= 0.90
        details.append(f"{method} {acc:.3f}/{elapsed:.1f}s")

    ic_accs = [train(_smoke_config("ic_mixup", seed=s)).final_test_accuracy for s in range(101, 106)]
    erm_accs = [train(_smoke_config("none", seed=s)).final_test_accuracy for s in range(101, 106)]
    non_inferior = float(np.mean(ic_accs)) >= float(np.mean(erm_accs)) - 0.01
    ok &= non_inferior
    details.append(
        f"5-seed mean ic_mixup {np.mean(ic_accs):.3f} vs none {np.mean(erm_accs):.3f}"
    )
    _report(7, "end-to-end-smoke", ok, "; ".join(details))


def test_criterion_08_interpolation_trends(tmp_path):
    spearman_hits = 0
    norm_hits = 0
    details = []
    for seed in range(201, 206):
        out = tmp_path / f"run{seed}"
        train(_smoke_config("ic_mixup", seed=seed), out_dir=out)
        params = load_checkpoint(out / "checkpoint.bin")
        report = json.loads((out / "run_report.json").read_text())
        spec = dataset_spec_from_dict(report["config"]["dataset"])
        _, test_ds = build_dataset_pair(spec)
        table = analyze_interpolation(params, test_ds, 0.1, seed=seed)
        lams = [row.lam for row in table.rows]
        diffs = [row.mean_conf_diff for row in table.rows]
        rho = float(stats.spearmanr(lams, diffs).statistic)
        spearman_hits += rho >= 0.9
        norms = {row.lam: row.mean_feature_sq_norm for row in table.rows}
        endpoints = 0.5 * (norms[0.0] + norms[1.0])
        norm_hits += endpoints > norms[0.5]
        details.append(f"seed {seed}: rho={rho:.2f}, ends/mid={endpoints / norms[0.5]:.2f}")
    ok = spearman_hits >= 4 and norm_hits >= 4
    _report(8, "interpolation-trends", ok,
            f"spearman>=0.9 in {spearman_hits}/5, endpoint norms above midpoint in {norm_hits}/5")


def test_criterion_09_determinism():
    checked = []
    for method in ("none", "ic_remix"):
        cfg = {
            "seed": 77,
            "dataset": dict(_SMOKE_DATASET),
            "model": {"hidden_dims": [16]},
            "train": {"epochs": 6, "batch_size": 32},
            "method": {"name": method},
        }
        a = train(train_config_from_dict(cfg)).metrics_csv()
        b = train(train_config_from_dict(cfg)).metrics_csv()
        checked.append(a == b)
    _report(9, "determinism", all(checked), f"byte-identical CSVs for {len(checked)} configs")


def test_criterion_10_data_contracts(cifar10_dir):
    failures = []

    train_ds = load_cifar(cifar10_dir, "cifar10", "train")
    test_ds = load_cifar(cifar10_dir, "cifar10", "test")
    if train_ds.size != 50000 or test_ds.size != 10000:
        failures.append(f"cifar record counts {train_ds.size}/{test_ds.size}")

    balanced, _ = synth_blobs(10, 500, 4, 0.5, seed=5)
    for fraction in (0.5, 0.25, 0.1):
        counts = stratified_subsample(balanced, fraction, seed=6).class_counts()
        expected = round_half_up(fraction * 500)
        if not np.all(counts == expected):
            failures.append(f"fraction {fraction}: counts {counts.tolist()} != {expected}")
    # also on the (unbalanced) parsed split, against the per-class formula
    for fraction in (0.5, 0.25, 0.1):
        counts = stratified_subsample(test_ds, fraction, seed=7).class_counts()
        expected = [round_half_up(fraction * int(n)) for n in test_ds.class_counts()]
        if counts.tolist() != expected:
            failures.append(f"cifar fraction {fraction} mismatch")

    for ratio in (0.1, 0.01):
        counts = longtail_subsample(balanced, ratio, seed=8).class_counts()
        expected = [round_half_up(500 * ratio ** (c / 9)) for c in range(10)]
        if counts.tolist() != expected:
            failures.append(f"ratio {ratio}: counts {counts.tolist()} != {expected}")
    # long-tail construction on the CIFAR-layout split (balanced 5000/class)
    for ratio in (0.1, 0.01):
        counts = longtail_subsample(train_ds, ratio, seed=9).class_counts()
        expected = [round_half_up(5000 * ratio ** (c / 9)) for c in range(10)]
        if counts.tolist() != expected:
            failures.append(f"cifar ratio {ratio} mismatch")

    _report(10, "data-contracts", not failures, "; ".join(failures) or "all counts exact")
