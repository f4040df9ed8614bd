"""Dataset ingestion and construction.

Parses the CIFAR-10/100 binary archives into uint8 pixel rows, supports
stratified fractional subsampling and exponential long-tailed subsampling,
and generates synthetic Gaussian blobs for fast deterministic experiments.
Every split keeps the samples it was loaded or generated with, uint8 pixels
or float64 blobs: ``standardize`` only fits per-channel statistics on the
training split actually used and attaches them to both splits, and
``Dataset.rows`` turns the rows a caller asks for into float64 features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .numerics import RngState, matrix, round_half_up

SPLITS = ("train", "test")

# record = label byte(s) + 3 channels x 32 x 32 pixel bytes
_CIFAR = {
    "cifar10": {
        "labels": (("label", 10),),  # each label byte, in record order, and its class count
        "files": {
            "train": [f"data_batch_{i}.bin" for i in range(1, 6)],
            "test": ["test_batch.bin"],
        },
        "records_per_file": {"train": 10000, "test": 10000},
    },
    "cifar100": {
        "labels": (("coarse label", 20), ("label", 100)),
        "files": {"train": ["train.bin"], "test": ["test.bin"]},
        "records_per_file": {"train": 50000, "test": 10000},
    },
}
_PIXELS = 3 * 32 * 32


class DatasetFileError(OSError):
    """A dataset file is missing, truncated, or the wrong variant."""


@dataclass
class Dataset:
    """Samples plus integer labels.

    ``images`` is either raw uint8 pixels, as ``load_cifar`` returns them, or
    a finite float64 matrix, as ``synth_blobs`` returns it. ``channels``
    partitions the columns into equal contiguous groups for per-channel
    standardization (3 for CIFAR's RGB planes, 1 otherwise). ``mean`` and
    ``std`` are the per-channel statistics of the samples, pixels scaled to
    [0, 1]; ``standardize`` sets them, and ``rows`` turns samples into features.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    split: str
    channels: int = 1
    mean: np.ndarray | None = None
    std: np.ndarray | None = None

    def __post_init__(self):
        images = np.asarray(self.images)
        # bytes are always finite, so uint8 images are kept as given: no copy, no scan
        if images.dtype == np.float64:
            images = matrix(images, name="images")
        elif images.dtype != np.uint8:
            raise ValueError(f"images must be uint8 or float64, got {images.dtype}")
        elif images.ndim != 2:
            raise ValueError(f"images must be 2-D, got ndim={images.ndim}")
        self.images = images
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n, d = self.images.shape
        if n < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.labels.shape != (n,):
            raise ValueError("labels length must match the number of images")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        if self.split not in SPLITS:
            raise ValueError(f"split must be one of {SPLITS}")
        if d % self.channels != 0:
            raise ValueError(f"feature width {d} not divisible into {self.channels} channels")
        if (self.mean is None) != (self.std is None):
            raise ValueError("mean and std must be given together")
        if self.mean is not None:
            self.mean = np.asarray(self.mean, dtype=np.float64)
            self.std = np.asarray(self.std, dtype=np.float64)
            if self.mean.shape != (self.channels,) or self.std.shape != (self.channels,):
                raise ValueError(f"mean and std must have shape ({self.channels},)")
            if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.std) & (self.std > 0.0))):
                raise ValueError("mean must be finite and std finite and > 0")

    @property
    def size(self) -> int:
        return int(self.images.shape[0])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def rows(self, idx, out: np.ndarray | None = None) -> np.ndarray:
        """The feature rows of ``images[idx]``, the one place where samples become features.

        With channel statistics, each entry x becomes ``(x / scale - mean) /
        std`` of its channel, in that order (``scale`` is 255.0 for bytes, 1.0
        for floats), written to ``out`` (float64, the shape of ``images[idx]``)
        when given and never into ``images``. Without statistics, ``images[idx]``
        is returned as it is: raw bytes are refused by ``model.forward``.
        """
        x = self.images[idx]
        if self.mean is None:
            return x
        out = np.divide(x, 255.0 if x.dtype == np.uint8 else 1.0, out=out)
        shaped = out.reshape(*x.shape[:-1], self.channels, -1)
        shaped -= self.mean[:, None]
        shaped /= self.std[:, None]
        return out


def load_cifar(path, variant: str, split: str) -> Dataset:
    """Parse a CIFAR binary directory into a Dataset of uint8 pixels.

    ``path`` is the directory holding the standard .bin files. Each record
    is label byte(s) followed by 3072 pixel bytes (1024 per RGB plane).
    ``images`` is a view of the pixel bytes of one record buffer;
    ``standardize`` scales them to [0, 1]. File sizes are checked exactly
    before any parsing, so a truncated archive never yields a partial
    dataset, and a label byte outside its classes (10, or CIFAR-100's 20
    coarse and 100 fine) yields none.
    """
    if variant not in _CIFAR:
        raise ValueError(f"unknown variant {variant!r}, expected 'cifar10' or 'cifar100'")
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}")
    spec = _CIFAR[variant]
    label_bytes = len(spec["labels"])
    record_len = label_bytes + _PIXELS
    per_file = spec["records_per_file"][split]

    base = Path(path)
    names = spec["files"][split]
    expected = per_file * record_len
    records = np.empty((len(names) * per_file, record_len), dtype=np.uint8)
    for i, name in enumerate(names):
        fp = base / name
        if not fp.is_file():
            raise DatasetFileError(f"{fp}: missing dataset file")
        found = fp.stat().st_size
        if found != expected:
            raise DatasetFileError(
                f"{fp}: corrupt or wrong-variant file, expected {expected} bytes, found {found}"
            )
        with fp.open("rb") as f:
            read = f.readinto(records[i * per_file:(i + 1) * per_file])
        if read != expected:
            raise DatasetFileError(f"{fp}: expected {expected} bytes, read {read}")

    for column, (what, classes) in enumerate(spec["labels"]):
        bad = np.flatnonzero(records[:, column] >= classes)
        if bad.size:
            i, record = divmod(int(bad[0]), per_file)
            raise DatasetFileError(f"{base / names[i]}: record {record} has {what} {records[bad[0], column]}, "
                                   f"expected one in [0, {classes})")
    num_classes = spec["labels"][-1][1]  # the last label byte (CIFAR-100's fine label) is the one a run uses
    labels = records[:, label_bytes - 1].astype(np.int64)
    return Dataset(records[:, label_bytes:], labels, num_classes, split, channels=3)


def _keep_per_class(ds: Dataset, n_keep: list[int], seed: int, why: str) -> Dataset:
    """Keep n_keep[c] members of each class c, the first of one permutation of its members."""
    rng = RngState(seed)
    keep: list[np.ndarray] = []
    for c, n in enumerate(n_keep):
        if n < 1:
            raise ValueError(f"class {c} would drop to 0 samples at {why}")
        members = np.flatnonzero(ds.labels == c)
        keep.append(members[rng.permutation(members.size)[:n]])
    idx = np.concatenate(keep)
    return replace(ds, images=ds.images[idx], labels=ds.labels[idx])


def stratified_subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep round(fraction * n_c) samples per class, uniformly without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    n_keep = [round_half_up(fraction * int(n_c)) for n_c in ds.class_counts()]
    return _keep_per_class(ds, n_keep, seed, f"fraction {fraction}")


def longtail_subsample(ds: Dataset, ratio: float, seed: int) -> Dataset:
    """Exponential imbalance: class c keeps round(n_head * ratio^(c / (C-1))).

    ``n_head`` is the smallest class count of the input, so every class can
    supply its share; counts decay monotonically from n_head down to roughly
    ratio * n_head for the last class. Each class is drawn uniformly without
    replacement, by one permutation of its members.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    counts = ds.class_counts()
    n_head = int(counts.min())
    if n_head < 1:
        raise ValueError(f"class {int(counts.argmin())} has no samples")
    last = max(ds.num_classes - 1, 1)
    n_keep = [round_half_up(n_head * ratio ** (c / last)) for c in range(ds.num_classes)]
    return _keep_per_class(ds, n_keep, seed, f"ratio {ratio}")


def _blob_means(num_classes: int, dim: int) -> np.ndarray:
    # deterministic placement on the unit sphere: evenly spaced on the
    # great circle of the first two axes (alternating poles when dim == 1)
    means = np.zeros((num_classes, dim), dtype=np.float64)
    if dim == 1:
        means[:, 0] = [1.0 if c % 2 == 0 else -1.0 for c in range(num_classes)]
        return means
    for c in range(num_classes):
        theta = 2.0 * math.pi * c / num_classes
        means[c, 0] = math.cos(theta)
        means[c, 1] = math.sin(theta)
    return means


def synth_blobs(num_classes: int, per_class: int, dim: int, spread: float, seed: int):
    """Gaussian blobs around fixed unit-sphere means; returns (train, test).

    The two splits draw from independent derived streams, so changing one
    never perturbs the other.
    """
    if num_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("num_classes, per_class, and dim must all be >= 1")
    if not spread > 0:
        raise ValueError("spread must be > 0")
    means = _blob_means(num_classes, dim)
    root = RngState(seed)

    def draw(split: str, rng: RngState) -> Dataset:
        n = num_classes * per_class
        images = np.empty((n, dim), dtype=np.float64)
        labels = np.empty(n, dtype=np.int64)
        for c in range(num_classes):
            block = images[c * per_class:(c + 1) * per_class]
            # means[c] + spread * z, with z drawn for the whole class at once:
            # the same draws, row by row, as one normals(dim) call per row
            np.multiply(rng.normals(per_class * dim).reshape(per_class, dim), spread, out=block)
            block += means[c]
            labels[c * per_class:(c + 1) * per_class] = c
        return Dataset(images, labels, num_classes, split)

    return draw("train", root.derive(0)), draw("test", root.derive(1))


# rows converted at a time while summing byte statistics (about 6 MB of float64 for CIFAR)
_STAT_ROWS = 256


def _byte_statistics(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of ``images / 255``, streamed in row blocks.

    Each pass sums every row's channel (pairwise, over the channel's
    contiguous columns), then adds those sums over the rows in order. That is
    the order numpy reduces a C-contiguous ``(n, channels, width)`` array
    over axes (0, 2), so the results equal its ``mean`` and ``std`` bit for
    bit whenever numpy cannot merge the two axes, which holds for more than
    one channel.
    """
    n, d = ds.images.shape
    count = n * (d // ds.channels)
    block = np.empty((min(n, _STAT_ROWS), d))
    row_sums = np.empty((n, ds.channels))

    def channel_sums(center: np.ndarray | None) -> np.ndarray:
        for start in range(0, n, _STAT_ROWS):
            pixels = ds.images[start:start + _STAT_ROWS]
            shaped = np.divide(pixels, 255.0, out=block[:len(pixels)]).reshape(len(pixels), ds.channels, -1)
            if center is not None:
                shaped -= center[:, None]
                np.multiply(shaped, shaped, out=shaped)
            shaped.sum(axis=2, out=row_sums[start:start + _STAT_ROWS])
        return row_sums.sum(axis=0)

    mean = channel_sums(None) / count
    return mean, np.sqrt(channel_sums(mean) / count)


def standardize(train: Dataset, test: Dataset):
    """Fit per-channel statistics on the training split and attach them to both splits.

    The test split gets the training statistics, never its own. Both keep
    their samples: ``Dataset.rows`` standardizes the rows a caller asks for.
    Returns (train, test).
    """
    n, d = train.images.shape
    if (test.channels != train.channels or test.images.shape[1] != d
            or test.images.dtype != train.images.dtype):
        raise ValueError("train and test layouts disagree")
    if train.images.dtype == np.uint8:
        mean, std = _byte_statistics(train)
    else:
        # numpy's reduction over a view of the split: with one channel it merges the two axes,
        # an order the streamed sums of _byte_statistics would not keep
        grouped = train.images.reshape(n, train.channels, -1)
        mean, std = grouped.mean(axis=(0, 2)), grouped.std(axis=(0, 2))
    if np.any(std == 0.0):
        raise ValueError("cannot standardize: a channel has zero variance")
    return replace(train, mean=mean, std=std), replace(test, mean=mean, std=std)
