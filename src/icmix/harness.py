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
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset, load_cifar, longtail_subsample, standardize, stratified_subsample, synth_blobs
from .losses import MixedScoreMatrix, grad_w_cc, grad_w_ci, grad_w_mixup, loss_cc, loss_ci, loss_ic_joint, loss_mixup_ce, mixed_scores
from .mixing import AXES, METHODS, MIN_ALPHA, REGMIXUP_METHODS, ClassHistogram, MixConfig, mix_batch, one_hot, regmixup_compose
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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v)


class _Field(NamedTuple):
    """One config key: the rule its value must meet and how the value is stored."""

    requirement: str  # completes "must be ..." in the problem message
    ok: Callable[[object], bool]
    convert: Callable[[object], object] = lambda v: v
    attr: str = ""  # the spec attribute, when it is not named like the key
    required: bool = False  # absent is reported as None instead of taking the spec default


def _number(requirement: str, ok: Callable[[float], bool]) -> _Field:
    # JSON admits Infinity and NaN; no number field accepts them
    return _Field(requirement, lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                          and math.isfinite(v) and ok(v)), float)


def _one_of(choices: tuple[str, ...], **kw) -> _Field:
    return _Field(f"one of {choices}", lambda v: isinstance(v, str) and v in choices, **kw)


_COUNT = _Field("an integer >= 1", lambda v: _is_int(v) and v >= 1)
# RngState keeps 64 bits of a seed, so a wider one would run as some other seed
_SEED = _Field("an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64)
_UNIT = _number("a number in (0, 1]", lambda v: 0.0 < v <= 1.0)

# The one place a config key's type, range, message and conversion are written.
# Defaults come from the spec dataclasses; a section's keys are listed in the
# order of its spec's fields, which is the order of resolved_config_dict.
_SCHEMA: dict[str, dict[str, _Field]] = {
    "config": {"seed": _SEED},
    "dataset": {
        "kind": _one_of(DATASET_KINDS, required=True),
        "path": _Field("a string", lambda v: v is None or isinstance(v, str)),
        "fraction": _UNIT,
        "imbalance_ratio": _UNIT,
        "seed": _SEED,
        "num_classes": _COUNT,
        "per_class": _COUNT,
        "dim": _COUNT,
        "spread": _number("a finite number > 0", lambda v: v > 0),
    },
    "model": {
        "hidden_dims": _Field("a list of integers >= 1", _is_int_list, tuple),
    },
    "train": {
        "epochs": _COUNT,
        "batch_size": _COUNT,
        "lr": _number("a finite number > 0", lambda v: v > 0),
        "momentum": _number("a number in [0, 1)", lambda v: 0.0 <= v < 1.0),
        "weight_decay": _number("a finite number >= 0", lambda v: v >= 0),
        "lr_steps": _Field("a strictly increasing list of integers >= 1",
                           lambda v: v is None or (_is_int_list(v) and v == sorted(set(v))),
                           lambda v: v if v is None else tuple(v)),
        "lr_decay": _UNIT,
    },
    "method": {
        "name": _one_of(METHODS, attr="method"),
        "alpha": _number(f"a finite number >= {MIN_ALPHA:g}", lambda v: v >= MIN_ALPHA),
        "tau": _number("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0),
        "kappa": _number("a finite number >= 1", lambda v: v >= 1.0),
        "axes": _one_of(AXES),
    },
}
_SECTIONS = ("dataset", "model", "train", "method")


def _parse_section(section: str, d: dict, problems: list[str]) -> dict:
    """The valid keys of ``d``, converted and named as spec attributes.

    Appends a problem for unknown keys and for every key that breaks its rule.
    """
    fields = _SCHEMA[section]
    unknown = sorted(set(d) - set(fields))
    if unknown:
        problems.append(f"{section}: unknown keys {unknown}")
    values = {}
    for key, f in fields.items():
        if key not in d and not f.required:
            continue
        v = d.get(key)
        if f.ok(v):
            values[f.attr or key] = f.convert(v)
        else:
            name = key if section == "config" else f"{section}.{key}"
            problems.append(f"{name}: must be {f.requirement}, got {v!r}")
    return values


def _dataset_spec(d: dict, problems: list[str]) -> DatasetSpec:
    spec = DatasetSpec(**_parse_section("dataset", d, problems))
    if spec.kind != "blobs" and d.get("path") is None:
        problems.append(f"dataset.path: required for kind {spec.kind!r}")
    if spec.kind == "blobs" and spec.num_classes < 2:
        problems.append("dataset.num_classes: blobs need at least 2 classes")
    return spec


def dataset_spec_from_dict(d: dict) -> DatasetSpec:
    """Parse a standalone dataset spec (as used by the eval/analyze CLI)."""
    if not isinstance(d, dict):
        raise ConfigError(["dataset: must be a JSON object"])
    problems: list[str] = []
    spec = _dataset_spec(d, problems)
    if problems:
        raise ConfigError(problems)
    return spec


def train_config_from_dict(d: dict) -> TrainConfig:
    """Parse and fully validate a training config, reporting all problems."""
    if not isinstance(d, dict):
        raise ConfigError(["config: must be a JSON object"])
    problems: list[str] = []
    top = {k: v for k, v in d.items() if k not in _SECTIONS}
    seed = _parse_section("config", top, problems).get("seed", 0)

    sections = {s: d.get(s, {"kind": "blobs"} if s == "dataset" else {}) for s in _SECTIONS}
    for s, v in sections.items():
        if not isinstance(v, dict):
            problems.append(f"{s}: must be a JSON object")
            sections[s] = {}

    dataset = _dataset_spec(sections["dataset"], problems)
    if "seed" not in sections["dataset"]:
        dataset.seed = RngState(seed).derive(_STREAM_DATASET).seed
    model = ModelSpec(**_parse_section("model", sections["model"], problems))
    train_spec = TrainSpec(**_parse_section("train", sections["train"], problems))
    if train_spec.lr_steps is None:  # the quarter points, as in a 200-epoch 50/100/150 plan
        train_spec.lr_steps = tuple(sorted({max(1, round_half_up(f * train_spec.epochs))
                                            for f in (0.25, 0.5, 0.75)}))
    mix = _parse_section("method", sections["method"], problems)
    if mix.get("method") in REGMIXUP_METHODS:
        mix.setdefault("alpha", 20.0)
    method = MixConfig(**mix)

    if method.method != "none" and train_spec.batch_size < 2:
        problems.append("train.batch_size: must be >= 2 when a mixing method is active")

    if problems:
        raise ConfigError(problems)
    return TrainConfig(seed=seed, dataset=dataset, model=model, train=train_spec, method=method)


def resolved_config_dict(config: TrainConfig) -> dict:
    """The config as plain JSON values, keyed as in the schema, as written to the run report."""
    out: dict = {"seed": config.seed}
    for section in _SECTIONS:
        spec = getattr(config, section)
        values = {key: getattr(spec, f.attr or key) for key, f in _SCHEMA[section].items()}
        out[section] = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
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
    config = train_config_from_dict(resolved_config_dict(config))  # a hand-built config meets the same rules
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

    opt = OptimizerState(params, SgdConfig(
        lr=config.train.lr, momentum=config.train.momentum,
        weight_decay=config.train.weight_decay,
        lr_decay=config.train.lr_decay, lr_steps=config.train.lr_steps,
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
