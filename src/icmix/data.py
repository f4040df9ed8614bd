"""Dataset ingestion and construction.

Parses the CIFAR-10/100 binary archives into uint8 pixel rows, supports
stratified fractional subsampling and exponential long-tailed subsampling
as row selections on labels (a subsampled CIFAR split reads only the
records it keeps), and generates synthetic Gaussian blobs for fast deterministic experiments.
Every split keeps the samples it was loaded or generated with, uint8 pixels
or float64 blobs: ``standardize`` only fits per-channel statistics on the
training split actually used and attaches them to both splits, and
``Dataset.rows`` turns the rows a caller asks for into float64 features.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

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

        With channel statistics, each entry x becomes ``(x / 255 - mean) /
        std`` of its channel for bytes, and ``(x - mean) / std`` for floats, in
        that order, written to ``out`` (float64, the shape of ``images[idx]``)
        when given and never into ``images``. Without statistics, ``images[idx]``
        is returned as it is: raw bytes are refused by ``model.forward``.
        """
        x = self.images[idx]
        if self.mean is None:
            return x
        if x.dtype == np.uint8:
            x = out = np.divide(x, 255.0, out=out)
        elif out is None:
            out = np.empty(x.shape)
        shaped = out.reshape(*x.shape[:-1], self.channels, -1)
        np.subtract(x.reshape(shaped.shape), self.mean[:, None], out=shaped)
        shaped /= self.std[:, None]
        return out


def load_cifar(path, variant: str, split: str,
               keep: Callable[[np.ndarray, int], np.ndarray] | None = None) -> Dataset:
    """Parse a CIFAR binary directory into a Dataset of uint8 pixels.

    ``path`` is the directory holding the standard .bin files. Each record
    is label byte(s) followed by 3072 pixel bytes (1024 per RGB plane).
    File sizes are checked exactly before any parsing, so a truncated archive
    never yields a partial dataset, and a label byte outside its classes (10,
    or CIFAR-100's 20 coarse and 100 fine) yields none.

    Without ``keep``, each file is read whole with one ``readinto`` and
    ``images`` is a view of the pixel bytes of one record buffer. With
    ``keep``, a callable ``keep(labels, num_classes)`` that returns row
    indices, the split is read twice. Pass 1 maps each file read-only, copies
    only its label bytes and closes the map, then ``keep`` gets the int64
    label of every record, after every check above. Pass 2 seeks to and reads
    only the pixels of the rows it returns, in that order, into one
    contiguous array; a record cut short by then is a ``DatasetFileError``
    naming the file and record. The result equals ``load_cifar(...)`` indexed
    by those rows, bit for bit. A file that shrinks between its size check
    and its map, or during pass 1 as seen by the size check after the copy,
    is a ``DatasetFileError`` too. One race is left: another process
    truncating a file while its labels are being copied from the map can
    kill this one with ``SIGBUS``.
    """
    if variant not in _CIFAR:
        raise ValueError(f"unknown variant {variant!r}, expected 'cifar10' or 'cifar100'")
    if split not in SPLITS:
        raise ValueError(f"split must be one of {SPLITS}")
    spec = _CIFAR[variant]
    label_bytes = len(spec["labels"])
    record_len = label_bytes + _PIXELS
    per_file = spec["records_per_file"][split]
    num_classes = spec["labels"][-1][1]  # the last label byte (CIFAR-100's fine label) is the one a run uses

    files = [Path(path) / name for name in spec["files"][split]]
    expected = per_file * record_len
    if keep is None:
        records = np.empty((len(files) * per_file, record_len), dtype=np.uint8)
        for i, fp in enumerate(files):
            with _checked_open(fp, expected) as f:
                _check_read(fp, expected, f.readinto(records[i * per_file:(i + 1) * per_file]))
        _check_labels(records[:, :label_bytes], spec["labels"], files, per_file)
        labels = records[:, label_bytes - 1].astype(np.int64)
        return Dataset(records[:, label_bytes:], labels, num_classes, split, channels=3)

    label_records = np.empty((len(files) * per_file, label_bytes), dtype=np.uint8)
    for i, fp in enumerate(files):
        with _checked_open(fp, expected) as f:
            _copy_labels(fp, f, expected, label_records[i * per_file:(i + 1) * per_file])
    _check_labels(label_records, spec["labels"], files, per_file)
    labels = label_records[:, label_bytes - 1].astype(np.int64)
    rows = np.asarray(keep(labels, num_classes))
    if rows.dtype.kind not in "iu" or rows.ndim != 1 or (rows.size and (rows.min() < 0 or rows.max() >= labels.size)):
        raise ValueError(f"kept rows must be a 1-D vector of indices in [0, {labels.size})")

    # read the kept records in file order, each into its row of the result
    images = np.empty((rows.size, _PIXELS), dtype=np.uint8)
    order = np.argsort(rows, kind="stable")
    bounds = np.searchsorted(rows[order], np.arange(len(files) + 1) * per_file)
    for i, fp in enumerate(files):
        if bounds[i] == bounds[i + 1]:
            continue
        with fp.open("rb", buffering=0) as f:
            for k in order[bounds[i]:bounds[i + 1]].tolist():
                record = int(rows[k]) - i * per_file
                f.seek(record * record_len + label_bytes)
                got = f.readinto(images[k])
                if got != _PIXELS:
                    raise DatasetFileError(f"{fp}: record {record}: expected {_PIXELS} pixel bytes, read {got}")
    return Dataset(images, labels[rows], num_classes, split, channels=3)


def _checked_open(fp: Path, expected: int):
    """``fp`` opened for reading, once it is known to exist and hold exactly ``expected`` bytes."""
    if not fp.is_file():
        raise DatasetFileError(f"{fp}: missing dataset file")
    _check_size(fp, expected, fp.stat().st_size)
    return fp.open("rb")


def _copy_labels(fp: Path, f, expected: int, out: np.ndarray) -> None:
    """Copy the label bytes of every record of ``f``, one row of ``out`` per record.

    The labels come from a read-only map of the file's ``expected`` bytes by
    one strided copy, which touches only the pages that hold them. The numpy
    view of the map lives only inside that statement: a map cannot be closed
    while a view of it exists. The file's size is checked again afterwards.
    """
    try:
        mapped = mmap.mmap(f.fileno(), expected, access=mmap.ACCESS_READ)
    except ValueError:  # mmap's own size check: the file shrank after it was opened
        _check_size(fp, expected, os.fstat(f.fileno()).st_size)
        raise
    with mapped:
        np.copyto(out, np.frombuffer(mapped, dtype=np.uint8).reshape(out.shape[0], -1)[:, :out.shape[1]])
    _check_size(fp, expected, os.fstat(f.fileno()).st_size)


def _check_size(fp: Path, expected: int, found: int) -> None:
    if found != expected:
        raise DatasetFileError(f"{fp}: corrupt or wrong-variant file, expected {expected} bytes, found {found}")


def _check_read(fp: Path, expected: int, read: int) -> None:
    if read != expected:
        raise DatasetFileError(f"{fp}: expected {expected} bytes, read {read}")


def _check_labels(label_records: np.ndarray, labels, files: list[Path], per_file: int) -> None:
    """Every record's label bytes (one row per record, files in order) lie in their classes."""
    for column, (what, classes) in enumerate(labels):
        bad = np.flatnonzero(label_records[:, column] >= classes)
        if bad.size:
            i, record = divmod(int(bad[0]), per_file)
            raise DatasetFileError(f"{files[i]}: record {record} has {what} {label_records[bad[0], column]}, "
                                   f"expected one in [0, {classes})")


def _keep_per_class(labels: np.ndarray, n_keep: list[int], seed: int, why: str) -> np.ndarray:
    """Rows that keep n_keep[c] members of each class c, the first of one permutation of its members."""
    rng = RngState(seed)
    keep: list[np.ndarray] = []
    for c, n in enumerate(n_keep):
        if n < 1:
            raise ValueError(f"class {c} would drop to 0 samples at {why}")
        members = np.flatnonzero(labels == c)
        keep.append(members[rng.permutation(members.size)[:n]])
    return np.concatenate(keep)


def stratified_rows(labels: np.ndarray, num_classes: int, fraction: float, seed: int) -> np.ndarray:
    """Rows that keep round(fraction * n_c) samples per class, uniformly without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    n_keep = [round_half_up(fraction * int(n_c)) for n_c in np.bincount(labels, minlength=num_classes)]
    return _keep_per_class(labels, n_keep, seed, f"fraction {fraction}")


def longtail_rows(labels: np.ndarray, num_classes: int, ratio: float, seed: int) -> np.ndarray:
    """Rows of an exponential imbalance: class c keeps round(n_head * ratio^(c / (C-1))).

    ``n_head`` is the smallest class count of ``labels``, so every class can
    supply its share; counts decay monotonically from n_head down to roughly
    ratio * n_head for the last class. Each class is drawn uniformly without
    replacement, by one permutation of its members.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError("ratio must be in (0, 1]")
    counts = np.bincount(labels, minlength=num_classes)
    n_head = int(counts.min())
    if n_head < 1:
        raise ValueError(f"class {int(counts.argmin())} has no samples")
    last = max(num_classes - 1, 1)
    n_keep = [round_half_up(n_head * ratio ** (c / last)) for c in range(num_classes)]
    return _keep_per_class(labels, n_keep, seed, f"ratio {ratio}")


def _take(ds: Dataset, rows: np.ndarray) -> Dataset:
    return replace(ds, images=ds.images[rows], labels=ds.labels[rows])


def stratified_subsample(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """``ds`` at the rows ``stratified_rows`` keeps of its labels."""
    return _take(ds, stratified_rows(ds.labels, ds.num_classes, fraction, seed))


def longtail_subsample(ds: Dataset, ratio: float, seed: int) -> Dataset:
    """``ds`` at the rows ``longtail_rows`` keeps of its labels."""
    return _take(ds, longtail_rows(ds.labels, ds.num_classes, ratio, seed))


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
        # means[c] + spread * z, with z drawn for the whole split at once: the same draws,
        # row by row, as one normals(dim) call per row, classes in order
        blobs = rng.normals(num_classes * per_class * dim).reshape(num_classes, per_class, dim)
        blobs *= spread
        blobs += means[:, None]
        labels = np.repeat(np.arange(num_classes), per_class)
        return Dataset(blobs.reshape(-1, dim), labels, num_classes, split)

    return draw("train", root.derive(0)), draw("test", root.derive(1))


# rows summed at a time while forming byte statistics (a 1.5 MB uint16 copy of 256 CIFAR rows)
_STAT_ROWS = 256


def _byte_statistics(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel mean and std of ``images / 255``, from exact integer sums.

    Over each channel's N pixels v, S1 = sum v and S2 = sum v^2 are exact
    integers: the bytes and their uint16 squares (255^2 = 65025 fits) are
    summed in row blocks, first along each row into uint32 when a row's
    channel cannot overflow it and uint64 when it can, then over the rows into
    int64. As Python ints they give mean = S1 / (255 N) and var = (N S2 -
    S1^2) / (255 N)^2, each rounded once.
    """
    n, d = ds.images.shape
    width = d // ds.channels
    row_sum = np.uint32 if width * 255 * 255 < 2**32 else np.uint64
    s1 = np.zeros(ds.channels, dtype=np.int64)
    s2 = np.zeros(ds.channels, dtype=np.int64)
    for start in range(0, n, _STAT_ROWS):
        block = ds.images[start:start + _STAT_ROWS].reshape(-1, ds.channels, width)
        s1 += block.sum(axis=2, dtype=row_sum).sum(axis=0, dtype=np.int64)
        s2 += np.square(block, dtype=np.uint16).sum(axis=2, dtype=row_sum).sum(axis=0, dtype=np.int64)
    pixels = n * width
    mean = [a / (255 * pixels) for a in s1.tolist()]
    var = [(pixels * b - a * a) / (255 * pixels) ** 2 for a, b in zip(s1.tolist(), s2.tolist())]
    return np.array(mean), np.sqrt(var)


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
        grouped = train.images.reshape(n, train.channels, -1)
        mean, std = grouped.mean(axis=(0, 2)), grouped.std(axis=(0, 2))
    if np.any(std == 0.0):
        raise ValueError("cannot standardize: a channel has zero variance")
    return replace(train, mean=mean, std=std), replace(test, mean=mean, std=std)
