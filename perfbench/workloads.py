"""Workload definitions and the seeded CIFAR-10-shaped input generator.

Each workload is a training config for ``icmix.harness.train`` built from the
benchmark seed. Sizes are fixed here, once, for run length; the program only
ever sees the generated config and input files.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

CIFAR_PIXELS = 3 * 32 * 32
CIFAR_RECORDS_PER_FILE = 10000
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"

# The generated CIFAR-shaped task: one prototype image per class plus pixel
# noise, so every image is classifiable from its pixels; a share of labels is
# then redrawn uniformly, which caps test accuracy near
# (1 - LABEL_NOISE) + LABEL_NOISE / 10 and gives a floor to check against.
CIFAR_CLASSES = 10
PROTOTYPE_AMPLITUDE = 12
PIXEL_NOISE = 80  # uniform integer noise in [-80, 80]
LABEL_NOISE = 0.2

WORKLOADS = ("cifar10_ic_mixup", "blobs_ic_regmixup_wide", "blobs_remix_longtail")


def dataset_seed(seed: int) -> int:
    return 1_000_003 * (seed + 1) % (1 << 31)


def workload_config(name: str, seed: int, cifar_dir: Path | None = None) -> dict:
    """The training config of workload ``name`` for benchmark seed ``seed``."""
    if name == "cifar10_ic_mixup":
        return {
            "seed": seed,
            "dataset": {"kind": "cifar10", "path": str(cifar_dir), "fraction": 0.1,
                        "seed": dataset_seed(seed)},
            "model": {"hidden_dims": [512]},
            "train": {"epochs": 2, "batch_size": 128, "lr": 0.05},
            "method": {"name": "ic_mixup"},
        }
    if name == "blobs_ic_regmixup_wide":
        return {
            "seed": seed,
            "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32, "per_class": 400,
                        "spread": 0.3, "seed": dataset_seed(seed)},
            "model": {"hidden_dims": [64]},
            # a constant rate: the default schedule would decay it after each of the few epochs
            "train": {"epochs": 4, "batch_size": 1024, "lr": 0.1, "lr_steps": [4]},
            "method": {"name": "ic_regmixup"},
        }
    if name == "blobs_remix_longtail":
        return {
            "seed": seed,
            "dataset": {"kind": "blobs", "num_classes": 10, "dim": 32, "per_class": 400,
                        "spread": 0.3, "imbalance_ratio": 0.1, "seed": dataset_seed(seed)},
            "model": {"hidden_dims": [64]},
            "train": {"epochs": 30, "batch_size": 32, "lr": 0.05},
            "method": {"name": "remix"},
        }
    raise ValueError(f"unknown workload {name!r}")


def write_cifar10(directory: Path, seed: int) -> dict:
    """Write CIFAR-10-shaped ``.bin`` files for ``seed``; return their true classes.

    Five training files and one test file of 10000 records each, every
    record one label byte plus 3072 pixel bytes. Classes are balanced per
    file. The returned dict maps "train"/"test" to the class each image was
    drawn from, before label noise.
    """
    rng = np.random.default_rng([seed, 0xC1FA])
    base = rng.integers(64, 192, size=CIFAR_PIXELS)
    signs = rng.choice(np.array([-1, 1]), size=(CIFAR_CLASSES, CIFAR_PIXELS))
    prototypes = (base + PROTOTYPE_AMPLITUDE * signs).astype(np.int16)
    directory.mkdir(parents=True, exist_ok=True)
    true_classes = {"train": [], "test": []}
    for split, name in [("train", n) for n in CIFAR_TRAIN_FILES] + [("test", CIFAR_TEST_FILE)]:
        classes = rng.permutation(np.arange(CIFAR_RECORDS_PER_FILE) % CIFAR_CLASSES)
        noisy = rng.random(CIFAR_RECORDS_PER_FILE) < LABEL_NOISE
        labels = np.where(noisy, rng.integers(0, CIFAR_CLASSES, CIFAR_RECORDS_PER_FILE), classes)
        noise = rng.integers(-PIXEL_NOISE, PIXEL_NOISE + 1, (CIFAR_RECORDS_PER_FILE, CIFAR_PIXELS),
                             dtype=np.int16)
        records = np.empty((CIFAR_RECORDS_PER_FILE, 1 + CIFAR_PIXELS), dtype=np.uint8)
        records[:, 0] = labels
        records[:, 1:] = np.clip(prototypes[classes] + noise, 0, 255)
        with open(directory / name, "wb") as f:
            f.write(records.tobytes())
            # flushed now, so that write-back does not run into the timed calls
            f.flush()
            os.fsync(f.fileno())
        true_classes[split].append(classes)
    return {split: np.concatenate(parts) for split, parts in true_classes.items()}
