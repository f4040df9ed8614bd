"""Config-driven training, evaluation, and analysis.

A run is described by a single JSON document (seed, dataset, model, train,
method). Unknown keys are rejected and every violated field is reported at
once. Given the same config and seed, a run writes byte-identical metrics
CSVs and checkpoints; wall-clock timing therefore lives only in the JSON
run report, never in the CSV.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, load_cifar, longtail_subsample, standardize, stratified_subsample, synth_blobs
from .losses import MixedScoreMatrix, grad_w_cc, grad_w_ci, grad_w_mixup, loss_cc, loss_ci, loss_ic_joint, loss_mixup_ce, mixed_scores
from .mixing import AXES, METHODS, REGMIXUP_METHODS, ClassHistogram, MixConfig, mix_batch, one_hot, regmixup_compose
from .model import ModelParams, OptimizerState, SgdConfig, backward, forward, init_model, save_checkpoint, sgd_step
from .numerics import RngState, log_sum_exp_rows, round_half_up

DATASET_KINDS = ("cifar10", "cifar100", "blobs")

# derived rng streams: one root seed fans out into non-interacting consumers
_STREAM_DATASET = 1
_STREAM_INIT = 2
_STREAM_LOOP = 3
_STREAM_FRACTION = 4
_STREAM_LONGTAIL = 5


class ConfigError(ValueError):
    """Invalid configuration; ``problems`` lists every violated field."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class NonFiniteError(ArithmeticError):
    """A training step or an epoch's evaluation gave a non-finite loss.

    ``epoch`` is 1-based and ``step`` counts SGD steps from the start of the run.
    """

    def __init__(self, what: str, value: float, epoch: int, step: int):
        self.epoch, self.step = epoch, step
        super().__init__(f"{what} is {value} at epoch {epoch}, step {step}")


@dataclass
class DatasetSpec:
    kind: str = "blobs"
    path: str | None = None
    fraction: float = 1.0
    imbalance_ratio: float = 1.0
    seed: int = 0
    num_classes: int = 3
    per_class: int = 100
    dim: int = 10
    spread: float = 0.3


@dataclass
class ModelSpec:
    hidden_dims: tuple[int, ...] = (64,)


@dataclass
class TrainSpec:
    epochs: int = 50
    batch_size: int = 128
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_steps: tuple[int, ...] | None = None  # None: quarter points of the epoch budget
    lr_decay: float = 0.2


@dataclass
class TrainConfig:
    seed: int
    dataset: DatasetSpec
    model: ModelSpec
    train: TrainSpec
    method: MixConfig


def default_lr_steps(epochs: int) -> tuple[int, ...]:
    """Decay boundaries at the quarter points, as in a 200-epoch 50/100/150 plan."""
    return tuple(sorted({max(1, round_half_up(f * epochs)) for f in (0.25, 0.5, 0.75)}))


_TOP_KEYS = {"seed", "dataset", "model", "train", "method"}
_DATASET_KEYS = {"kind", "path", "fraction", "imbalance_ratio", "seed", "num_classes", "per_class", "dim", "spread"}
_MODEL_KEYS = {"hidden_dims"}
_TRAIN_KEYS = {"epochs", "batch_size", "lr", "momentum", "weight_decay", "lr_steps", "lr_decay"}
_METHOD_KEYS = {"name", "alpha", "tau", "kappa", "axes"}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool))


def _check_keys(d: dict, allowed: set, where: str, problems: list[str]) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        problems.append(f"{where}: unknown keys {unknown}")


def _parse_dataset(d: dict, problems: list[str], default_seed: int | None) -> DatasetSpec:
    _check_keys(d, _DATASET_KEYS, "dataset", problems)
    spec = DatasetSpec()
    kind = d.get("kind")
    if kind not in DATASET_KINDS:
        problems.append(f"dataset.kind: must be one of {DATASET_KINDS}, got {kind!r}")
    else:
        spec.kind = kind
    path = d.get("path")
    if path is not None and not isinstance(path, str):
        problems.append("dataset.path: must be a string")
    elif kind in ("cifar10", "cifar100") and path is None:
        problems.append(f"dataset.path: required for kind {kind!r}")
    else:
        spec.path = path
    for key in ("fraction", "imbalance_ratio"):
        v = d.get(key, 1.0)
        if not _is_num(v) or not (0.0 < v <= 1.0):
            problems.append(f"dataset.{key}: must be a number in (0, 1], got {v!r}")
        else:
            setattr(spec, key, float(v))
    seed = d.get("seed", default_seed if default_seed is not None else 0)
    if not _is_int(seed):
        problems.append("dataset.seed: must be an integer")
    else:
        spec.seed = seed
    for key in ("num_classes", "per_class", "dim"):
        v = d.get(key, getattr(spec, key))
        if not _is_int(v) or v < 1:
            problems.append(f"dataset.{key}: must be an integer >= 1, got {v!r}")
        else:
            setattr(spec, key, v)
    if spec.kind == "blobs" and spec.num_classes < 2:
        problems.append("dataset.num_classes: blobs need at least 2 classes")
    spread = d.get("spread", spec.spread)
    if not _is_num(spread) or not spread > 0:
        problems.append(f"dataset.spread: must be a number > 0, got {spread!r}")
    else:
        spec.spread = float(spread)
    return spec


def _parse_model(d: dict, problems: list[str]) -> ModelSpec:
    _check_keys(d, _MODEL_KEYS, "model", problems)
    spec = ModelSpec()
    dims = d.get("hidden_dims", list(spec.hidden_dims))
    if not isinstance(dims, list) or not all(_is_int(v) and v >= 1 for v in dims):
        problems.append(f"model.hidden_dims: must be a list of integers >= 1, got {dims!r}")
    else:
        spec.hidden_dims = tuple(dims)
    return spec


def _parse_train(d: dict, problems: list[str]) -> TrainSpec:
    _check_keys(d, _TRAIN_KEYS, "train", problems)
    spec = TrainSpec()
    epochs = d.get("epochs", spec.epochs)
    if not _is_int(epochs) or epochs < 1:
        problems.append(f"train.epochs: must be an integer >= 1, got {epochs!r}")
    else:
        spec.epochs = epochs
    bs = d.get("batch_size", spec.batch_size)
    if not _is_int(bs) or bs < 1:
        problems.append(f"train.batch_size: must be an integer >= 1, got {bs!r}")
    else:
        spec.batch_size = bs
    for key, cond, desc in (
        ("lr", lambda v: v > 0, "> 0"),
        ("momentum", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
        ("weight_decay", lambda v: v >= 0, ">= 0"),
        ("lr_decay", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ):
        v = d.get(key, getattr(spec, key))
        if not _is_num(v) or not cond(v):
            problems.append(f"train.{key}: must be a number {desc}, got {v!r}")
        else:
            setattr(spec, key, float(v))
    steps = d.get("lr_steps")
    if steps is not None:
        ok = (isinstance(steps, list) and all(_is_int(v) and v >= 1 for v in steps)
              and list(steps) == sorted(set(steps)))
        if not ok:
            problems.append(f"train.lr_steps: must be a strictly increasing list of integers >= 1, got {steps!r}")
        else:
            spec.lr_steps = tuple(steps)
    if spec.lr_steps is None and _is_int(epochs) and epochs >= 1:
        spec.lr_steps = default_lr_steps(epochs)
    return spec


def _parse_method(d: dict, problems: list[str]) -> MixConfig:
    _check_keys(d, _METHOD_KEYS, "method", problems)
    name = d.get("name", "none")
    if name not in METHODS:
        problems.append(f"method.name: must be one of {METHODS}, got {name!r}")
        name = "none"
    alpha = d.get("alpha", 20.0 if name in REGMIXUP_METHODS else 0.2)
    if not _is_num(alpha) or not alpha > 0:
        problems.append(f"method.alpha: must be a number > 0, got {alpha!r}")
        alpha = 0.2
    tau = d.get("tau", 0.5)
    if not _is_num(tau) or not 0.0 <= tau <= 1.0:
        problems.append(f"method.tau: must be a number in [0, 1], got {tau!r}")
        tau = 0.5
    kappa = d.get("kappa", 3.0)
    if not _is_num(kappa) or not kappa >= 1.0:
        problems.append(f"method.kappa: must be a number >= 1, got {kappa!r}")
        kappa = 3.0
    axes = d.get("axes", "both")
    if axes not in AXES:
        problems.append(f"method.axes: must be one of {AXES}, got {axes!r}")
        axes = "both"
    return MixConfig(method=name, alpha=float(alpha), tau=float(tau), kappa=float(kappa), axes=axes)


def dataset_spec_from_dict(d: dict, default_seed: int | None = None) -> DatasetSpec:
    """Parse a standalone dataset spec (as used by the eval/analyze CLI)."""
    if not isinstance(d, dict):
        raise ConfigError(["dataset: must be a JSON object"])
    problems: list[str] = []
    spec = _parse_dataset(d, problems, default_seed)
    if problems:
        raise ConfigError(problems)
    return spec


def train_config_from_dict(d: dict) -> TrainConfig:
    """Parse and fully validate a training config, reporting all problems."""
    if not isinstance(d, dict):
        raise ConfigError(["config: must be a JSON object"])
    problems: list[str] = []
    _check_keys(d, _TOP_KEYS, "config", problems)

    seed = d.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        problems.append(f"seed: must be a non-negative integer, got {seed!r}")
        seed = 0

    for section in ("dataset", "model", "train", "method"):
        if section in d and not isinstance(d[section], dict):
            problems.append(f"{section}: must be a JSON object")

    dataset_default_seed = RngState(seed).derive(_STREAM_DATASET).seed
    dataset = _parse_dataset(d.get("dataset", {"kind": "blobs"}) if isinstance(d.get("dataset", {}), dict) else {},
                             problems, dataset_default_seed)
    model = _parse_model(d.get("model", {}) if isinstance(d.get("model", {}), dict) else {}, problems)
    train_spec = _parse_train(d.get("train", {}) if isinstance(d.get("train", {}), dict) else {}, problems)
    method = _parse_method(d.get("method", {}) if isinstance(d.get("method", {}), dict) else {}, problems)

    if method.method != "none" and train_spec.batch_size < 2:
        problems.append("train.batch_size: must be >= 2 when a mixing method is active")

    if problems:
        raise ConfigError(problems)
    return TrainConfig(seed=seed, dataset=dataset, model=model, train=train_spec, method=method)


def validate_train_config(config: TrainConfig) -> None:
    """Re-validate a possibly hand-constructed config via its dict form."""
    train_config_from_dict(resolved_config_dict(config))


def resolved_config_dict(config: TrainConfig) -> dict:
    """Config with every default materialized, as written to the run report."""
    out = {
        "seed": config.seed,
        "dataset": asdict(config.dataset),
        "model": {"hidden_dims": list(config.model.hidden_dims)},
        "train": asdict(config.train),
        "method": {
            "name": config.method.method,
            "alpha": config.method.alpha,
            "tau": config.method.tau,
            "kappa": config.method.kappa,
            "axes": config.method.axes,
        },
    }
    steps = config.train.lr_steps
    out["train"]["lr_steps"] = list(steps if steps is not None else default_lr_steps(config.train.epochs))
    return out


def build_dataset_pair(spec: DatasetSpec) -> tuple[Dataset, Dataset]:
    """Load or generate (train, test), subsample the training split, standardize.

    Fractional and long-tail subsampling touch only the training split; the
    standardization statistics come from the training split actually used.
    """
    if spec.kind == "blobs":
        train, test = synth_blobs(spec.num_classes, spec.per_class, spec.dim, spec.spread, spec.seed)
    else:
        train = load_cifar(spec.path, spec.kind, "train")
        test = load_cifar(spec.path, spec.kind, "test")
    root = RngState(spec.seed)
    if spec.fraction < 1.0:
        train = stratified_subsample(train, spec.fraction, root.derive(_STREAM_FRACTION).seed)
    if spec.imbalance_ratio < 1.0:
        train = longtail_subsample(train, spec.imbalance_ratio, root.derive(_STREAM_LONGTAIL).seed)
    train, test = standardize(train, test)
    return train, test


@dataclass
class EvalMetrics:
    accuracy: float
    loss: float
    num_samples: int


def evaluate(params: ModelParams, ds: Dataset) -> EvalMetrics:
    """Top-1 accuracy and mean cross-entropy against the original classes."""
    if params.num_classes != ds.num_classes:
        raise ValueError(
            f"model outputs {params.num_classes} classes but dataset has {ds.num_classes}"
        )
    cache = forward(params, ds.images)
    predictions = np.argmax(cache.logits, axis=1)
    accuracy = float(np.mean(predictions == ds.labels))
    log_p = cache.logits - log_sum_exp_rows(cache.logits)[:, None]
    loss = float(-np.mean(log_p[np.arange(ds.size), ds.labels]))
    return EvalMetrics(accuracy, loss, ds.size)


def batch_loss_and_grads(params: ModelParams, method: MixConfig, inputs, labels,
                         histogram: ClassHistogram, rng: RngState):
    """One training objective evaluation: mix, forward, loss, backward.

    Returns (loss value, parameter gradients, number of rows the loss
    averaged over). Contrastive methods score the batch against its own
    interpolated classifiers; the others use soft-label cross-entropy.
    """
    mixed = mix_batch(inputs, labels, method, histogram, rng)
    batch = regmixup_compose(inputs, labels, mixed) if method.regmixup else mixed
    cache = forward(params, batch.inputs)
    if method.contrastive:
        ms = MixedScoreMatrix.from_logits(cache.logits, batch.mix_weights)
        result = loss_ic_joint(ms, method.axes)
    else:
        result = loss_mixup_ce(cache.logits, batch.mix_weights)
    grads = backward(params, cache, result.grad_s)
    return result.value, grads, batch.size


@dataclass
class EpochRecord:
    epoch: int
    split: str
    loss: float
    accuracy: float
    lr: float


@dataclass
class RunReport:
    """Everything a run produced: per-epoch records, final accuracy, timing."""

    records: list[EpochRecord]
    final_test_accuracy: float
    config: dict
    total_seconds: float
    epoch_seconds: list[float] = field(default_factory=list)

    def metrics_csv(self) -> str:
        lines = ["epoch,split,loss,accuracy,lr"]
        for r in self.records:
            lines.append(f"{r.epoch},{r.split},{r.loss:.12g},{r.accuracy:.12g},{r.lr:.12g}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "final_test_accuracy": self.final_test_accuracy,
            "total_seconds": self.total_seconds,
            "epoch_seconds": self.epoch_seconds,
            "records": [asdict(r) for r in self.records],
        }


def _epoch_batches(n: int, batch_size: int, keep_singletons: bool):
    start = 0
    while start < n:
        stop = min(start + batch_size, n)
        if stop - start >= 2 or keep_singletons:
            yield start, stop
        start = stop


def train(config: TrainConfig, out_dir=None) -> RunReport:
    """Run the full training loop described by ``config``.

    Per epoch: seeded shuffle, per-batch mixing and loss, SGD update, then a
    clean evaluation of both splits (test-time predictions always use the
    original classes). With ``out_dir`` set, writes metrics.csv,
    checkpoint.bin, and run_report.json there. A non-finite step or
    evaluation loss raises NonFiniteError before anything is written.
    """
    validate_train_config(config)
    out_path = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)

    train_ds, test_ds = build_dataset_pair(config.dataset)
    if config.method.method != "none" and train_ds.size < 2:
        raise ValueError("training set too small to pair for mixing")
    histogram = ClassHistogram.from_labels(train_ds.labels, train_ds.num_classes)

    root = RngState(config.seed)
    params = init_model(train_ds.images.shape[1], config.model.hidden_dims,
                        train_ds.num_classes, root.derive(_STREAM_INIT))
    loop_rng = root.derive(_STREAM_LOOP)

    steps = config.train.lr_steps if config.train.lr_steps is not None else default_lr_steps(config.train.epochs)
    opt = OptimizerState(params, SgdConfig(
        lr=config.train.lr, momentum=config.train.momentum,
        weight_decay=config.train.weight_decay,
        lr_decay=config.train.lr_decay, lr_steps=tuple(steps),
    ))

    keep_singletons = config.method.method == "none"
    step = 0  # SGD steps taken over the whole run
    records: list[EpochRecord] = []
    epoch_seconds: list[float] = []
    t_start = time.perf_counter()
    for epoch in range(1, config.train.epochs + 1):
        t_epoch = time.perf_counter()
        opt.set_epoch(epoch)
        order = loop_rng.permutation(train_ds.size)
        loss_sum = 0.0
        rows = 0
        for start, stop in _epoch_batches(train_ds.size, config.train.batch_size, keep_singletons):
            idx = order[start:stop]
            value, grads, n_rows = batch_loss_and_grads(
                params, config.method, train_ds.images[idx], train_ds.labels[idx],
                histogram, loop_rng,
            )
            step += 1
            if not math.isfinite(value):
                raise NonFiniteError("training loss", value, epoch, step)
            sgd_step(params, grads, opt)
            loss_sum += value * n_rows
            rows += n_rows
        if rows == 0:
            raise ValueError("no trainable batches: training set smaller than one pairable batch")
        train_eval = evaluate(params, train_ds)
        test_eval = evaluate(params, test_ds)
        for split, loss in (("train", train_eval.loss), ("test", test_eval.loss)):
            if not math.isfinite(loss):
                raise NonFiniteError(f"{split} eval loss", loss, epoch, step)
        records.append(EpochRecord(epoch, "train", loss_sum / rows, train_eval.accuracy, opt.lr))
        records.append(EpochRecord(epoch, "test", test_eval.loss, test_eval.accuracy, opt.lr))
        epoch_seconds.append(time.perf_counter() - t_epoch)

    report = RunReport(
        records=records,
        final_test_accuracy=records[-1].accuracy,
        config=resolved_config_dict(config),
        total_seconds=time.perf_counter() - t_start,
        epoch_seconds=epoch_seconds,
    )
    if out_path is not None:
        (out_path / "metrics.csv").write_text(report.metrics_csv())
        save_checkpoint(params, out_path / "checkpoint.bin")
        (out_path / "run_report.json").write_text(json.dumps(report.to_json_dict(), indent=2) + "\n")
    return report


@dataclass
class CurveRow:
    lam: float
    mean_feature_sq_norm: float
    std_feature_sq_norm: float
    mean_conf_diff: float
    std_conf_diff: float
    num_pairs: int


@dataclass
class CurveTable:
    rows: list[CurveRow]

    def to_csv(self) -> str:
        lines = ["lambda,mean_feature_sq_norm,std_feature_sq_norm,mean_conf_diff,std_conf_diff,num_pairs"]
        for r in self.rows:
            lines.append(
                f"{r.lam:.12g},{r.mean_feature_sq_norm:.12g},{r.std_feature_sq_norm:.12g},"
                f"{r.mean_conf_diff:.12g},{r.std_conf_diff:.12g},{r.num_pairs}"
            )
        return "\n".join(lines) + "\n"


def analyze_interpolation(params: ModelParams, ds: Dataset, step: float, seed: int = 0) -> CurveTable:
    """Sweep interpolated inputs between class exemplars over a lambda grid.

    Picks one seeded image per class, then for every ordered class pair
    (a, b) and every lambda in [0, 1] forms lam*x_a + (1-lam)*x_b and
    records the squared feature norm (a class-independent confidence proxy)
    and the logit difference between the two source classes. Rows aggregate
    mean/std over pairs per lambda.
    """
    if params.num_classes != ds.num_classes:
        raise ValueError(
            f"model outputs {params.num_classes} classes but dataset has {ds.num_classes}"
        )
    if not step > 0:
        raise ValueError("step must be > 0")
    n_steps = round_half_up(1.0 / step)
    if abs(n_steps * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide 1")

    rng = RngState(seed)
    exemplars = np.empty((ds.num_classes, ds.images.shape[1]), dtype=np.float64)
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size == 0:
            raise ValueError(f"class {c} has no images to sample")
        exemplars[c] = ds.images[members[rng.randbelow(members.size)]]

    pairs = [(a, b) for a in range(ds.num_classes) for b in range(ds.num_classes) if a != b]
    a_idx = np.array([p[0] for p in pairs])
    b_idx = np.array([p[1] for p in pairs])
    rows = []
    for k in range(n_steps + 1):
        lam = k / n_steps
        mixed = lam * exemplars[a_idx] + (1.0 - lam) * exemplars[b_idx]
        cache = forward(params, mixed)
        sq_norm = np.sum(cache.features ** 2, axis=1)
        conf_diff = cache.logits[np.arange(len(pairs)), a_idx] - cache.logits[np.arange(len(pairs)), b_idx]
        rows.append(CurveRow(
            lam=lam,
            mean_feature_sq_norm=float(np.mean(sq_norm)),
            std_feature_sq_norm=float(np.std(sq_norm)),
            mean_conf_diff=float(np.mean(conf_diff)),
            std_conf_diff=float(np.std(conf_diff)),
            num_pairs=len(pairs),
        ))
    return CurveTable(rows)


GRADCHECK_SHAPES = tuple((b, c, d) for b in (2, 4, 8) for c in (3, 5) for d in (4, 7))


def _finite_diff(f, x: np.ndarray, step: float) -> np.ndarray:
    g = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    # per-entry error relative to max(1, |a|, |b|): small entries compare
    # absolutely, large entries relatively
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def _random_instance(rng: RngState, b: int, c: int, d: int):
    r = rng.normals(b * d).reshape(b, d)
    w = 0.7 * rng.normals(d * c).reshape(d, c)
    labels = np.array([rng.randbelow(c) for _ in range(b)], dtype=np.int64)
    perm = rng.permutation(b)
    lam = np.array([rng.sample_beta(1.0) for _ in range(b)], dtype=np.float64)
    y_tilde = lam[:, None] * one_hot(labels, c) + (1.0 - lam)[:, None] * one_hot(labels[perm], c)
    return r, w, y_tilde


@dataclass
class GradcheckReport:
    instances: int
    tol: float
    chain_tol: float
    max_rel_err_s: dict
    max_abs_err_w_chain: dict
    max_rel_err_w_fd: dict
    passed: bool

    def lines(self) -> list[str]:
        out = [f"gradcheck: {self.instances} instances, tol {self.tol:g}, chain tol {self.chain_tol:g}"]
        for name, err in self.max_rel_err_s.items():
            out.append(f"  grad_s {name:<10} max rel err {err:.3e}  {'ok' if err <= self.tol else 'FAIL'}")
        for name in self.max_abs_err_w_chain:
            chain = self.max_abs_err_w_chain[name]
            fd = self.max_rel_err_w_fd[name]
            ok = chain <= self.chain_tol and fd <= self.tol
            out.append(
                f"  grad_w {name:<10} chain abs err {chain:.3e}, fd rel err {fd:.3e}  {'ok' if ok else 'FAIL'}"
            )
        out.append("gradcheck: PASS" if self.passed else "gradcheck: FAIL")
        return out


def gradcheck(instances: int = 100, tol: float = 1e-5, seed: int = 20240, shapes=GRADCHECK_SHAPES,
              fd_step: float = 1e-5, chain_tol: float = 1e-10) -> GradcheckReport:
    """Verify analytic gradients against central finite differences.

    Checks d(loss)/d(logits) for all four objectives, and the closed-form
    final-layer gradients against both the chain rule (they must equal -B
    times the mean-loss gradient) and finite differences over W.
    """
    if not tol > 0:
        raise ValueError("tolerance must be > 0")
    loss_fns = {
        "mixup_ce": lambda s, y: loss_mixup_ce(s, y),
        "cc": lambda s, y: loss_cc(MixedScoreMatrix.from_logits(s, y)),
        "ci": lambda s, y: loss_ci(MixedScoreMatrix.from_logits(s, y)),
        "ic_joint": lambda s, y: loss_ic_joint(MixedScoreMatrix.from_logits(s, y), "both"),
    }
    closed_fns = {
        "mixup_ce": lambda r, ms: grad_w_mixup(r, ms.s, ms.mix_weights),
        "cc": lambda r, ms: grad_w_cc(r, ms),
        "ci": lambda r, ms: grad_w_ci(r, ms),
    }
    err_s = {name: 0.0 for name in loss_fns}
    err_w_chain = {name: 0.0 for name in closed_fns}
    err_w_fd = {name: 0.0 for name in closed_fns}

    root = RngState(seed)
    for i in range(instances):
        b, c, d = shapes[i % len(shapes)]
        r, w, y_tilde = _random_instance(root.derive(i), b, c, d)
        s = r @ w
        for name, fn in loss_fns.items():
            res = fn(s, y_tilde)
            numeric = _finite_diff(lambda ss: fn(ss, y_tilde).value, s, fd_step)
            err_s[name] = max(err_s[name], _rel_err(res.grad_s, numeric))
        ms = mixed_scores(r, w, y_tilde)
        for name, fn in closed_fns.items():
            closed = fn(r, ms)
            res = loss_fns[name](s, y_tilde)
            chain = r.T @ res.grad_s
            err_w_chain[name] = max(err_w_chain[name], float(np.max(np.abs(closed + b * chain))))
            numeric_w = _finite_diff(lambda ww: loss_fns[name]((r @ ww), y_tilde).value, w, fd_step)
            err_w_fd[name] = max(err_w_fd[name], _rel_err(closed, -b * numeric_w))

    passed = (all(e <= tol for e in err_s.values())
              and all(e <= chain_tol for e in err_w_chain.values())
              and all(e <= tol for e in err_w_fd.values()))
    return GradcheckReport(instances, tol, chain_tol, err_s, err_w_chain, err_w_fd, passed)
