"""Output checks computed apart from the program.

Nothing here imports icmix. The checkpoint is read with this file's own
parser of the container layout in the README; the datasets are rebuilt from
the raw inputs with a re-implementation of the program's seeded generator
(xoshiro256++ seeded by splitmix64, Fisher-Yates, Marsaglia polar normals);
the test split is standardized here with statistics of the training split
actually used, and scored with this file's own ReLU-MLP forward pass.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

import workloads

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53

# dataset rng streams, as documented for build_dataset_pair and synth_blobs
_STREAM_FRACTION = 4
_STREAM_LONGTAIL = 5


def _mix64(x: int) -> int:
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


class RefRng:
    """xoshiro256++ with the program's seeding, stream derivation and samplers."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        s, state = self.seed, []
        for _ in range(4):
            s = (s + _GOLDEN) & _MASK
            state.append(_mix64(s))
        self.s = state if any(state) else [1, 0, 0, 0]
        self.spare = None

    def derive(self, stream: int) -> "RefRng":
        return RefRng(_mix64(self.seed ^ _mix64(((stream + 1) * _GOLDEN) & _MASK)))

    def next64(self) -> int:
        s0, s1, s2, s3 = self.s
        x = (s0 + s3) & _MASK
        result = ((((x << 23) | (x >> 41)) & _MASK) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self.s = [s0, s1, s2, s3]
        return result

    def below(self, n: int) -> int:
        limit = (1 << 64) - (1 << 64) % n
        while True:
            r = self.next64()
            if r < limit:
                return r % n

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def normals(self, n: int) -> list[float]:
        out = []
        while len(out) < n:
            if self.spare is not None:
                out.append(self.spare)
                self.spare = None
                continue
            while True:
                u = 2.0 * ((self.next64() >> 11) * _INV_2_53) - 1.0
                v = 2.0 * ((self.next64() >> 11) * _INV_2_53) - 1.0
                s = u * u + v * v
                if 0.0 < s < 1.0:
                    break
            f = math.sqrt(-2.0 * math.log(s) / s)
            self.spare = v * f
            out.append(u * f)
        return out


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def blob_means(num_classes: int, dim: int) -> np.ndarray:
    means = np.zeros((num_classes, dim))
    for c in range(num_classes):
        means[c, 0] = math.cos(2.0 * math.pi * c / num_classes)
        means[c, 1] = math.sin(2.0 * math.pi * c / num_classes)
    return means


def _blob_split(rng: RefRng, means: np.ndarray, per_class: int, spread: float):
    num_classes, dim = means.shape
    draws = np.array(rng.normals(num_classes * per_class * dim)).reshape(-1, dim)
    labels = np.repeat(np.arange(num_classes), per_class)
    return means[labels] + spread * draws, labels


def _read_cifar10(directory: Path, names: list[str]):
    """Pixel bytes and labels of the records in ``names``; pixels stay uint8 until kept."""
    raw = np.concatenate([np.frombuffer((directory / n).read_bytes(), dtype=np.uint8) for n in names])
    records = raw.reshape(-1, 1 + workloads.CIFAR_PIXELS)
    return records[:, 1:], records[:, 0].astype(np.int64)


def _subsample(labels: np.ndarray, keep_per_class, rng: RefRng) -> np.ndarray:
    """Indices kept per class in class order, each class drawn by one permutation."""
    keep = []
    for c, n_keep in enumerate(keep_per_class):
        members = np.flatnonzero(labels == c)
        keep.append(members[rng.permutation(members.size)[:n_keep]])
    return np.concatenate(keep)


class Reference:
    """The workload's test split, standardized here, plus its accuracy ceiling."""

    def __init__(self, config: dict, true_test_classes: np.ndarray | None = None):
        ds = config["dataset"]
        root = RefRng(ds["seed"])
        if ds["kind"] == "cifar10":
            directory = Path(ds["path"])
            train_x, train_y = _read_cifar10(directory, workloads.CIFAR_TRAIN_FILES)
            test_x, test_y = _read_cifar10(directory, [workloads.CIFAR_TEST_FILE])
            channels, num_classes, scale = 3, workloads.CIFAR_CLASSES, 255.0
            # the generator draws every image from its class prototype, so the
            # best possible accuracy is the share of labels left unredrawn
            ceiling = float(np.mean(test_y == true_test_classes))
        else:
            num_classes = ds["num_classes"]
            means = blob_means(num_classes, ds["dim"])
            train_x, train_y = _blob_split(root.derive(0), means, ds["per_class"], ds["spread"])
            test_x, test_y = _blob_split(root.derive(1), means, ds["per_class"], ds["spread"])
            channels, scale = 1, 1.0
            # equal isotropic Gaussians: the nearest true mean is the Bayes rule
            dist = ((test_x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            ceiling = float(np.mean(np.argmin(dist, axis=1) == test_y))
        counts = np.bincount(train_y, minlength=num_classes)
        fraction = ds.get("fraction", 1.0)
        if fraction < 1.0:
            keep = [_round_half_up(fraction * n) for n in counts]
            idx = _subsample(train_y, keep, RefRng(root.derive(_STREAM_FRACTION).seed))
            train_x, train_y = train_x[idx], train_y[idx]
        ratio = ds.get("imbalance_ratio", 1.0)
        if ratio < 1.0:
            n_max = int(np.bincount(train_y, minlength=num_classes)[0])
            keep = [_round_half_up(n_max * ratio ** (c / (num_classes - 1))) for c in range(num_classes)]
            idx = _subsample(train_y, keep, RefRng(root.derive(_STREAM_LONGTAIL).seed))
            train_x, train_y = train_x[idx], train_y[idx]
        train_x = train_x.astype(np.float64) / scale
        test_x = test_x.astype(np.float64) / scale
        n, d = train_x.shape
        grouped = train_x.reshape(n, channels, d // channels)
        mean = grouped.sum(axis=(0, 2)) / (n * d // channels)
        var = ((grouped - mean[None, :, None]) ** 2).sum(axis=(0, 2)) / (n * d // channels)
        shaped = test_x.reshape(-1, channels, d // channels)
        self.test_x = ((shaped - mean[None, :, None]) / np.sqrt(var)[None, :, None]).reshape(-1, d)
        self.test_y = test_y
        self.train_size = n
        self.ceiling = ceiling
        chance = 1.0 / num_classes
        self.floor = chance + 0.5 * (ceiling - chance)


def epoch_batches(config: dict, train_size: int) -> list[int]:
    """Sizes of the batches one epoch trains on: mixing drops a trailing singleton."""
    b = config["train"]["batch_size"]
    sizes = [min(b, train_size - start) for start in range(0, train_size, b)]
    return sizes[:-1] if sizes[-1] == 1 else sizes


def read_checkpoint(path: Path) -> list[np.ndarray]:
    """Arrays of a kind-1 container: hidden0.w, hidden0.b, ..., final_weights."""
    raw = path.read_bytes()
    if raw[:8] != b"ICMXBIN\x00":
        raise ValueError("bad magic")
    version, kind, n_hidden, _, n_arrays = struct.unpack_from("<IIQQI", raw, 8)
    if (version, kind) != (1, 1) or n_arrays != 2 * n_hidden + 1:
        raise ValueError(f"unexpected header: version {version} kind {kind} arrays {n_arrays}")
    offset, shapes = 36, []
    for _ in range(n_arrays):
        (ndim,) = struct.unpack_from("<I", raw, offset)
        shapes.append(struct.unpack_from(f"<{ndim}Q", raw, offset + 4))
        offset += 4 + 8 * ndim
    arrays = []
    for shape in shapes:
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape))
        offset += 8 * count
    if offset != len(raw):
        raise ValueError(f"length {len(raw)} != {offset} implied by the header")
    return arrays


def score_checkpoint(arrays: list[np.ndarray], x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Top-1 accuracy and mean cross-entropy of a ReLU MLP with a bias-free final layer."""
    h = x
    for k in range(0, len(arrays) - 1, 2):
        h = np.maximum(h @ arrays[k] + arrays[k + 1], 0.0)
    logits = h @ arrays[-1]
    top = logits.max(axis=1)
    log_z = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    loss = float(np.mean(log_z - logits[np.arange(y.size), y]))
    return float(np.mean(np.argmax(logits, axis=1) == y)), loss


def last_test_row(metrics_csv: str) -> dict:
    header, *rows = [line.split(",") for line in metrics_csv.strip().splitlines()]
    test = [dict(zip(header, r)) for r in rows if r[header.index("split")] == "test"]
    return {"loss": float(test[-1]["loss"]), "accuracy": float(test[-1]["accuracy"])}


def remix_ratio(lam: float, n_i: int, n_j: int, tau: float, kappa: float) -> float:
    """The README remix label rule, row by row."""
    if n_i / n_j >= kappa and lam < tau:
        return 0.0
    if n_i / n_j <= 1.0 / kappa and 1.0 - lam < tau:
        return 1.0
    return lam


def check_mixed_batch(labels, counts, method, tau, kappa, lambdas, pairs, weights) -> str | None:
    """None if a mixed batch follows the label rule and its weight rows sum to 1."""
    b, num_classes = weights.shape
    if sorted(pairs[:, 1].tolist()) != list(range(b)) or pairs[:, 0].tolist() != list(range(b)):
        return "pair indices are not (row, permutation of rows)"
    if not np.all((lambdas > 0.0) & (lambdas < 1.0)) or np.any(lambdas * 2.0 ** 53 % 1.0 != 0.0):
        return "a lambda lies off the 2^-53 grid inside (0, 1)"
    if np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-12):
        return "a mix-weight row does not sum to 1"
    expected = np.zeros((b, num_classes))
    for i, j in enumerate(pairs[:, 1].tolist()):
        a, c = int(labels[i]), int(labels[j])
        lam_y = float(lambdas[i])
        if method.endswith("remix"):
            lam_y = remix_ratio(lam_y, int(counts[a]), int(counts[c]), tau, kappa)
        expected[i, a] += lam_y
        expected[i, c] += 1.0 - lam_y
    if np.any(np.abs(weights - expected) > 1e-12):
        return f"{method}: mix weights differ from the label rule"
    return None


def check_regmixup_batch(labels, mixed_weights, lambdas, pairs, weights) -> str | None:
    """None if a composite batch is the clean batch (one-hot, lambda 1) over the mixed one."""
    b = labels.shape[0]
    clean = np.zeros((b, weights.shape[1]))
    clean[np.arange(b), labels] = 1.0
    if not (np.array_equal(weights[:b], clean) and np.array_equal(weights[b:], mixed_weights)
            and np.all(lambdas[:b] == 1.0) and np.array_equal(pairs[:b, 1], np.arange(b))):
        return "regmixup composite is not clean-over-mixed"
    return None
