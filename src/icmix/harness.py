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
import os
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .data import (Dataset, load_cifar, longtail_rows, longtail_subsample, standardize, stratified_rows,
                   stratified_subsample, synth_blobs)
from .losses import MixedScoreMatrix, ScoreBuffer, grad_w_cc, grad_w_ci, grad_w_mixup, loss_cc, loss_ci, loss_ic_joint, loss_mixup_ce, mixed_scores
from .mixing import AXES, IC_METHODS, METHODS, REGMIXUP_METHODS, ClassHistogram, mix_batch, mix_weights, regmixup_compose
from .model import ModelParams, backward, forward, init_model, save_checkpoint, sgd_step
from .numerics import RngState, plan_epoch, round_half_up, softmax_log_z

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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_int_list(v) -> bool:
    return isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v)


class _Rule(NamedTuple):
    """What a config value must be, and how a valid one is stored."""

    requirement: str  # completes "must be ..." in the problem message
    ok: Callable[[object], bool]
    convert: Callable[[object], object] = lambda v: v


def _number(requirement: str, ok: Callable[[float], bool]) -> _Rule:
    # JSON admits Infinity and NaN; no number key accepts them
    return _Rule(requirement, lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                         and math.isfinite(v) and ok(v)), float)


def _one_of(choices: tuple[str, ...]) -> _Rule:
    return _Rule(f"one of {choices}", lambda v: isinstance(v, str) and v in choices)


_COUNT = _Rule("an integer >= 1", lambda v: _is_int(v) and v >= 1)
# RngState keeps 64 bits of a seed, so a wider one would run as some other seed
_SEED = _Rule("an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64)
_UNIT = _number("a number in (0, 1]", lambda v: 0.0 < v <= 1.0)
_POSITIVE = _number("a finite number > 0", lambda v: v > 0)


def _key(default, rule: _Rule, key: str = "", required: bool = False, hand_built_default: bool = True):
    """A spec field that is a config key: its default, its rule, its name if not the field's, and
    whether a config file must give it (if it does not, it is reported as giving None)."""
    meta = {"default": default, "rule": rule, "key": key, "required": required}
    return field(default=default, metadata=meta) if hand_built_default else field(metadata=meta)


# The spec dataclasses are the config schema: each config key's field states its default and rule
# once, and a section's keys are listed in the order of its spec's fields.
@dataclass
class DatasetSpec:
    kind: str = _key("blobs", _one_of(DATASET_KINDS), required=True)
    path: str | None = _key(None, _Rule("a string", lambda v: v is None or isinstance(v, str)))
    fraction: float = _key(1.0, _UNIT)
    imbalance_ratio: float = _key(1.0, _UNIT)
    seed: int = _key(0, _SEED)  # a config file that leaves it out derives it from the run seed
    num_classes: int = _key(3, _COUNT)
    per_class: int = _key(100, _COUNT)
    dim: int = _key(10, _COUNT)
    spread: float = _key(0.3, _POSITIVE)


@dataclass
class ModelSpec:
    hidden_dims: tuple[int, ...] = _key((64,), _Rule("a list of integers >= 1", _is_int_list, tuple))


@dataclass
class TrainSpec:
    epochs: int = _key(50, _COUNT)
    batch_size: int = _key(128, _COUNT)
    lr: float = _key(0.1, _POSITIVE)
    momentum: float = _key(0.9, _number("a number in [0, 1)", lambda v: 0.0 <= v < 1.0))
    weight_decay: float = _key(5e-4, _number("a finite number >= 0", lambda v: v >= 0))
    lr_steps: tuple[int, ...] | None = _key(None, _Rule(  # None: quarter points of the epoch budget
        "a strictly increasing list of integers >= 1",
        lambda v: v is None or (_is_int_list(v) and v == sorted(set(v))), lambda v: v if v is None else tuple(v)))
    lr_decay: float = _key(0.2, _UNIT)


# Beta(alpha, alpha) draws slow down without bound as alpha shrinks: the
# sampler's Gamma boost u**(1/alpha) underflows to 0 and the draw is retried.
MIN_ALPHA = 1e-3
_ALPHA_BY_METHOD = object()  # MixConfig's alpha until __post_init__ picks the method's default


@dataclass(frozen=True)
class MixConfig:
    """Which mixing method to run and its knobs.

    ``alpha`` parameterizes the Beta(alpha, alpha) interpolation draw; left
    out, it is 20 for the regmixup methods (RegMixup's ratio, Pinto et al.,
    NeurIPS 2022) and 0.2 otherwise. ``tau`` and ``kappa`` are the remix
    interpolation and imbalance-ratio thresholds. ``axes`` selects the
    contrastive axis for the ic_* methods and is ignored otherwise. Values
    outside the config rules raise ConfigError. ``dataclasses.replace`` keeps
    an already-resolved ``alpha``: replacing only ``method`` does not pick the
    new method's default.
    """

    method: str = _key("none", _one_of(METHODS), key="name")
    alpha: float = _key(_ALPHA_BY_METHOD, _number(f"a finite number >= {MIN_ALPHA:g}", lambda v: v >= MIN_ALPHA))
    tau: float = _key(0.5, _number("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0))
    kappa: float = _key(3.0, _number("a finite number >= 1", lambda v: v >= 1.0))
    axes: str = _key("both", _one_of(AXES))

    def __post_init__(self):
        if self.alpha is _ALPHA_BY_METHOD:  # a method that breaks its rule is no regmixup method
            regmixup = isinstance(self.method, str) and self.method in REGMIXUP_METHODS
            object.__setattr__(self, "alpha", 20.0 if regmixup else 0.2)
        problems: list[str] = []
        _parse_section(MixConfig, "method", _section_values(self), problems)
        if problems:
            raise ConfigError(problems)

    @property
    def contrastive(self) -> bool:
        return self.method in IC_METHODS

    @property
    def regmixup(self) -> bool:
        return self.method in REGMIXUP_METHODS


@dataclass
class TrainConfig:
    seed: int = _key(0, _SEED, hand_built_default=False)  # a hand-built config names its seed
    dataset: DatasetSpec
    model: ModelSpec
    train: TrainSpec
    method: MixConfig


# each section of a config file, and the spec whose fields are its keys
_SPECS = {"dataset": DatasetSpec, "model": ModelSpec, "train": TrainSpec, "method": MixConfig}


def _config_keys(spec) -> dict:
    """The config keys of a spec class or instance, each with its field, in field order."""
    return {f.metadata["key"] or f.name: f for f in fields(spec) if "rule" in f.metadata}


def _section_values(spec) -> dict:
    return {key: getattr(spec, f.name) for key, f in _config_keys(spec).items()}


def _parse_section(spec_type, section: str, d: dict, problems: list[str]) -> dict:
    """Every config key of ``spec_type``, named as its field: the value in ``d``, converted, or the default.

    Appends a problem for unknown keys and for every key that breaks its
    rule; such a key keeps its default.
    """
    keys = _config_keys(spec_type)
    unknown = sorted(set(d) - set(keys))
    if unknown:
        problems.append(f"{section}: unknown keys {unknown}")
    values = {}
    for key, f in keys.items():
        rule = f.metadata["rule"]
        values[f.name] = f.metadata["default"]
        if key not in d and not f.metadata["required"]:
            continue
        v = d.get(key)
        if rule.ok(v):
            values[f.name] = rule.convert(v)
        else:
            name = key if section == "config" else f"{section}.{key}"
            problems.append(f"{name}: must be {rule.requirement}, got {v!r}")
    return values


def _dataset_spec(d: dict, problems: list[str]) -> DatasetSpec:
    spec = DatasetSpec(**_parse_section(DatasetSpec, "dataset", d, problems))
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
    values = _parse_section(TrainConfig, "config", {k: v for k, v in d.items() if k not in _SPECS}, problems)

    sections = {s: d.get(s, {"kind": "blobs"} if s == "dataset" else {}) for s in _SPECS}
    for s, v in sections.items():
        if not isinstance(v, dict):
            problems.append(f"{s}: must be a JSON object")
            sections[s] = {}

    dataset = values["dataset"] = _dataset_spec(sections["dataset"], problems)
    if "seed" not in sections["dataset"]:
        dataset.seed = RngState(values["seed"]).derive(_STREAM_DATASET).seed
    for s in ("model", "train", "method"):
        values[s] = _SPECS[s](**_parse_section(_SPECS[s], s, sections[s], problems))
    train_spec = values["train"]
    if train_spec.lr_steps is None:  # the quarter points, as in a 200-epoch 50/100/150 plan
        train_spec.lr_steps = tuple(sorted({max(1, round_half_up(f * train_spec.epochs))
                                            for f in (0.25, 0.5, 0.75)}))

    if values["method"].method != "none" and train_spec.batch_size < 2:
        problems.append("train.batch_size: must be >= 2 when a mixing method is active")

    if problems:
        raise ConfigError(problems)
    return TrainConfig(**values)


def resolved_config_dict(config: TrainConfig) -> dict:
    """The config as plain JSON values, keyed as in a config file, as written to the run report."""
    out = _section_values(config)
    for section in _SPECS:
        values = _section_values(getattr(config, section))
        out[section] = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
    return out


def build_dataset_pair(spec: DatasetSpec) -> tuple[Dataset, Dataset]:
    """Load or generate (train, test), subsample the training split, standardize.

    Fractional and long-tail subsampling touch only the training split: the
    stratified rule runs first, then the long-tail rule on what it kept. A
    subsampled CIFAR training split is chosen from its labels alone, and only
    the kept records' pixels are read (see ``load_cifar``'s ``keep``). The
    standardization statistics come from the training split actually used.
    """
    spec = dataset_spec_from_dict(_section_values(spec))  # a hand-built spec meets the same rules
    root = RngState(spec.seed)
    fraction_seed = root.derive(_STREAM_FRACTION).seed
    longtail_seed = root.derive(_STREAM_LONGTAIL).seed
    if spec.kind == "blobs":
        train, test = synth_blobs(spec.num_classes, spec.per_class, spec.dim, spec.spread, spec.seed)
        if spec.fraction < 1.0:
            train = stratified_subsample(train, spec.fraction, fraction_seed)
        if spec.imbalance_ratio < 1.0:
            train = longtail_subsample(train, spec.imbalance_ratio, longtail_seed)
    else:
        def kept_rows(labels: np.ndarray, num_classes: int) -> np.ndarray:
            rows = np.arange(labels.size)
            if spec.fraction < 1.0:
                rows = stratified_rows(labels, num_classes, spec.fraction, fraction_seed)
            if spec.imbalance_ratio < 1.0:
                rows = rows[longtail_rows(labels[rows], num_classes, spec.imbalance_ratio, longtail_seed)]
            return rows

        subsampled = spec.fraction < 1.0 or spec.imbalance_ratio < 1.0
        train = load_cifar(spec.path, spec.kind, "train", keep=kept_rows if subsampled else None)
        test = load_cifar(spec.path, spec.kind, "test")
    train, test = standardize(train, test)
    return train, test


@dataclass
class EvalMetrics:
    accuracy: float
    loss: float
    num_samples: int


def _check_class_count(params: ModelParams, ds: Dataset) -> None:
    if params.num_classes != ds.num_classes:
        raise ValueError(f"model outputs {params.num_classes} classes but dataset has {ds.num_classes}")


# rows per eval block. A split of n >= _EVAL_ROWS rows runs as n // _EVAL_ROWS near-equal
# blocks, so no block of it is shorter: BLAS picks its kernels by row count, and blocks this
# long give every row the bits of one forward pass over the whole split.
_EVAL_ROWS = 2048


def evaluate(params: ModelParams, ds: Dataset) -> EvalMetrics:
    """Top-1 accuracy and mean cross-entropy against the original classes.

    The split runs through ``forward`` in k = max(n // ``_EVAL_ROWS``, 1)
    blocks whose sizes differ by at most one row, each made into features by
    ``Dataset.rows`` in one reused buffer of ceil(n / k) rows.
    """
    _check_class_count(params, ds)
    n = ds.size
    k = max(n // _EVAL_ROWS, 1)
    edges = [n * i // k for i in range(k + 1)]
    buffer = np.empty((-(-n // k), ds.images.shape[1]))
    predictions = np.empty(n, dtype=np.int64)
    log_likelihood = np.empty(n)
    for start, stop in zip(edges, edges[1:]):
        x = ds.rows(slice(start, stop), buffer[:stop - start])
        logits = forward(params, x).logits
        np.argmax(logits, axis=1, out=predictions[start:stop])
        _, log_z = softmax_log_z(logits)
        log_likelihood[start:stop] = logits[np.arange(stop - start), ds.labels[start:stop]] - log_z
    accuracy = float(np.mean(predictions == ds.labels))
    loss = float(-np.mean(log_likelihood))
    return EvalMetrics(accuracy, loss, n)


def batch_loss_and_grads(params: ModelParams, method: MixConfig, inputs, labels,
                         histogram: ClassHistogram, draws: tuple[np.ndarray, np.ndarray] | None,
                         buffer: ScoreBuffer | None = None, grads: ModelParams | None = None):
    """One training objective evaluation: mix (with ``draws``, see mix_batch), forward, loss, backward.

    Returns (loss value, parameter gradients, number of rows the loss
    averaged over). Contrastive methods score the batch against its own
    interpolated classifiers, in ``buffer``'s memory if given; the others
    use soft-label cross-entropy. The gradients are written to ``grads``
    when given (see ``backward``'s ``out``), and hold until its next use.
    """
    mixed = mix_batch(inputs, labels, method, histogram, draws)
    batch = regmixup_compose(inputs, labels, mixed) if method.regmixup else mixed
    cache = forward(params, batch.inputs)
    if method.contrastive:
        ms = MixedScoreMatrix.from_logits(cache.logits, batch.mix_weights, buffer)
        result = loss_ic_joint(ms, method.axes)
    else:
        result = loss_mixup_ce(cache.logits, batch.mix_weights)
    grads = backward(params, cache, result.grad_s, out=grads)
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
    checkpoint.bin, and run_report.json there as one set (see _write_run),
    creating the directory only once training has finished. A non-finite
    step or evaluation loss raises NonFiniteError before anything is written.
    """
    config = train_config_from_dict(resolved_config_dict(config))  # a hand-built config meets the same rules
    train_ds, test_ds = build_dataset_pair(config.dataset)
    histogram = ClassHistogram.from_labels(train_ds.labels, train_ds.num_classes)

    root = RngState(config.seed)
    params = init_model(train_ds.images.shape[1], config.model.hidden_dims,
                        train_ds.num_classes, root.derive(_STREAM_INIT))
    loop_rng = root.derive(_STREAM_LOOP)
    momentum = np.zeros_like(params.flat)
    # memory reused by every step: the contrastive scores and the gradient vector
    scores = ScoreBuffer()
    grads = ModelParams(params.dims)
    spec = config.train

    keep_singletons = config.method.method == "none"
    bounds = list(_epoch_batches(train_ds.size, spec.batch_size, keep_singletons))
    alpha = None if keep_singletons else config.method.alpha
    step = 0  # SGD steps taken over the whole run
    records: list[EpochRecord] = []
    epoch_seconds: list[float] = []
    t_start = time.perf_counter()
    for epoch in range(1, spec.epochs + 1):
        t_epoch = time.perf_counter()
        # the base rate, decayed once for every schedule boundary already crossed
        lr = spec.lr * spec.lr_decay ** sum(1 for s in spec.lr_steps if epoch > s)
        order, partners, lambdas = plan_epoch(loop_rng, train_ds.size, bounds, alpha)
        loss_sum = 0.0
        rows = 0
        for start, stop in bounds:
            idx = order[start:stop]
            value, grads, n_rows = batch_loss_and_grads(
                params, config.method, train_ds.rows(idx), train_ds.labels[idx], histogram,
                (partners[start:stop], lambdas[start:stop]), scores, grads,
            )
            step += 1
            if not math.isfinite(value):
                raise NonFiniteError("training loss", value, epoch, step)
            sgd_step(params, grads, momentum, lr, spec.momentum, spec.weight_decay)
            loss_sum += value * n_rows
            rows += n_rows
        train_eval = evaluate(params, train_ds)
        test_eval = evaluate(params, test_ds)
        for split, loss in (("train", train_eval.loss), ("test", test_eval.loss)):
            if not math.isfinite(loss):
                raise NonFiniteError(f"{split} eval loss", loss, epoch, step)
        records.append(EpochRecord(epoch, "train", loss_sum / rows, train_eval.accuracy, lr))
        records.append(EpochRecord(epoch, "test", test_eval.loss, test_eval.accuracy, lr))
        epoch_seconds.append(time.perf_counter() - t_epoch)

    report = RunReport(
        records=records,
        final_test_accuracy=records[-1].accuracy,
        config=resolved_config_dict(config),
        total_seconds=time.perf_counter() - t_start,
        epoch_seconds=epoch_seconds,
    )
    if out_dir is not None:
        _write_run(Path(out_dir), params, report)
    return report


def _write_run(out_path: Path, params: ModelParams, report: RunReport) -> None:
    """Stage the three run files under temporary names, then rename them into place.

    A failed write removes the staged files and leaves the old run files as
    they were; a crash between the renames can still leave two runs mixed.
    """
    out_path.mkdir(parents=True, exist_ok=True)
    staged = {name: out_path / f".{name}.{os.getpid()}.staged"
              for name in ("metrics.csv", "checkpoint.bin", "run_report.json")}
    try:
        staged["metrics.csv"].write_bytes(report.metrics_csv().encode())
        save_checkpoint(params, staged["checkpoint.bin"])
        staged["run_report.json"].write_bytes((json.dumps(report.to_json_dict(), indent=2) + "\n").encode())
        for name, path in staged.items():
            os.replace(path, out_path / name)
    except BaseException:
        for path in staged.values():
            path.unlink(missing_ok=True)
        raise


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


# the most lambda points analyze sweeps: a step of 1e-4
_MAX_GRID_POINTS = 10001


def analyze_interpolation(params: ModelParams, ds: Dataset, step: float, seed: int = 0) -> CurveTable:
    """Sweep interpolated inputs between class exemplars over a lambda grid.

    Picks one seeded image per class, then for every ordered class pair
    (a, b) and every lambda in [0, 1] forms lam*x_a + (1-lam)*x_b and
    records the squared feature norm (a class-independent confidence proxy)
    and the logit difference between the two source classes. Rows aggregate
    mean/std over pairs per lambda.
    """
    _check_class_count(params, ds)
    if not _UNIT.ok(step):
        raise ValueError(f"step must be {_UNIT.requirement}")
    if not _SEED.ok(seed):
        raise ValueError(f"seed must be {_SEED.requirement}")
    if not 1.0 / step < _MAX_GRID_POINTS - 0.5:  # round(1 / step) + 1 points; 1 / step may be inf
        raise ValueError(f"step {step} gives more than {_MAX_GRID_POINTS} lambda points")
    n_steps = round_half_up(1.0 / step)
    if abs(n_steps * step - 1.0) > 1e-9:
        raise ValueError(f"step {step} does not divide 1")

    rng = RngState(seed)
    picks = []
    for c in range(ds.num_classes):
        members = np.flatnonzero(ds.labels == c)
        if members.size == 0:
            raise ValueError(f"class {c} has no images to sample")
        picks.append(members[rng.randbelow(members.size)])
    exemplars = ds.rows(np.array(picks))

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
_GRADCHECK_SEED = 20240
_FD_STEP = 1e-5
_CHAIN_TOL = 1e-10


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
    lam = np.array([rng.sample_beta(1.0) for _ in range(b)])
    return r, w, mix_weights(labels, perm, lam, c)


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


def gradcheck(instances: int = 100, tol: float = 1e-5, shapes=GRADCHECK_SHAPES) -> GradcheckReport:
    """Verify analytic gradients against central finite differences.

    Checks d(loss)/d(logits) for all four objectives, and the closed-form
    final-layer gradients against both the chain rule (they must equal -B
    times the mean-loss gradient) and finite differences over W.
    """
    if not _COUNT.ok(instances):
        raise ValueError(f"instances must be {_COUNT.requirement}")
    if not _POSITIVE.ok(tol):
        raise ValueError(f"tolerance must be {_POSITIVE.requirement}")
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

    root = RngState(_GRADCHECK_SEED)
    for i in range(instances):
        b, c, d = shapes[i % len(shapes)]
        r, w, y_tilde = _random_instance(root.derive(i), b, c, d)
        s = r @ w
        for name, fn in loss_fns.items():
            res = fn(s, y_tilde)
            numeric = _finite_diff(lambda ss: fn(ss, y_tilde).value, s, _FD_STEP)
            err_s[name] = max(err_s[name], _rel_err(res.grad_s, numeric))
        ms = mixed_scores(r, w, y_tilde)
        for name, fn in closed_fns.items():
            closed = fn(r, ms)
            res = loss_fns[name](s, y_tilde)
            chain = r.T @ res.grad_s
            err_w_chain[name] = max(err_w_chain[name], float(np.max(np.abs(closed + b * chain))))
            numeric_w = _finite_diff(lambda ww: loss_fns[name]((r @ ww), y_tilde).value, w, _FD_STEP)
            err_w_fd[name] = max(err_w_fd[name], _rel_err(closed, -b * numeric_w))

    passed = (all(e <= tol for e in err_s.values())
              and all(e <= _CHAIN_TOL for e in err_w_chain.values())
              and all(e <= tol for e in err_w_fd.values()))
    return GradcheckReport(instances, tol, _CHAIN_TOL, err_s, err_w_chain, err_w_fd, passed)
