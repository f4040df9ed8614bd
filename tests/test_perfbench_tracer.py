"""The benchmark's tracer still finds every name it wraps.

``perfbench/tracer.py`` patches names in ``icmix.harness`` and methods of
``RngState``, ``MixedScoreMatrix`` and ``icmix.container`` from outside the
program. A refactor that moves or renames one of them would otherwise show up
only in a traced benchmark run. The tracer is imported read-only: no bytecode
is written under ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

from icmix import harness, mixing, numerics
from icmix.harness import build_dataset_pair, train, train_config_from_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
EPOCHS = 2
BATCH_SIZE = 16


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


# "none" is left out: its lambdas are 1, outside the checker's open interval (0, 1)
@pytest.mark.parametrize("method", [m for m in mixing.METHODS if m != "none"])
def test_traced_run_checks_clean_and_restores_names(method, tracer_module, tmp_path):
    config = train_config_from_dict({
        "seed": 21, "dataset": {"kind": "blobs", "num_classes": 4, "per_class": 30, "dim": 4, "imbalance_ratio": 0.3},
        "model": {"hidden_dims": [8]}, "train": {"epochs": EPOCHS, "batch_size": BATCH_SIZE},
        "method": {"name": method},
    })
    batches = list(harness._epoch_batches(build_dataset_pair(config.dataset)[0].size, BATCH_SIZE, False))
    harness_names = {attr: getattr(harness, attr) for attr in tracer_module._HARNESS_SPANS}
    rng_names = {attr: numerics.RngState.__dict__[attr] for attr in tracer_module._RNG_SPANS}

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        train(config, out_dir=tmp_path)
    finally:
        tracer.uninstall()

    assert tracer.check_mixed_batches() == {"violations": 0, "first": None}
    assert tracer.counts["harness.steps"] == EPOCHS * len(batches)
    assert tracer.counts["mixing.rows_mixed"] == EPOCHS * sum(stop - start for start, stop in batches)
    assert {attr: getattr(harness, attr) for attr in harness_names} == harness_names
    assert {attr: numerics.RngState.__dict__[attr] for attr in rng_names} == rng_names
