"""Spans and counts at the layer boundaries of ``icmix.harness.train``.

The tracer wraps, from outside the program, the names ``train`` looks up in
``icmix.harness`` and the ``RngState`` methods that draw in bulk. Each call
records a span (name, start, end, parent) in memory; counts are taken at the
same boundaries from argument and result shapes. Mixed batches are kept by
reference and checked after training, so checking adds nothing to the loop.
"""

from __future__ import annotations

import json
import resource
import time
from collections import defaultdict
from pathlib import Path

import checks

_HARNESS_SPANS = {
    "build_dataset_pair": "harness.build_dataset_pair",
    "load_cifar": "data.load_cifar",
    "stratified_subsample": "data.stratified_subsample",
    "longtail_subsample": "data.longtail_subsample",
    "synth_blobs": "data.synth_blobs",
    "standardize": "data.standardize",
    "init_model": "model.init_model",
    "mix_batch": "mixing.mix_batch",
    "regmixup_compose": "mixing.regmixup_compose",
    "forward": "model.forward",
    "loss_ic_joint": "losses.loss_ic_joint",
    "loss_mixup_ce": "losses.loss_mixup_ce",
    "backward": "model.backward",
    "sgd_step": "model.sgd_step",
    "evaluate": "harness.evaluate",
    "save_checkpoint": "model.save_checkpoint",
    "train": "harness.train",
}
_RNG_SPANS = {"permutation": "numerics.permutation", "sample_beta": "numerics.sample_beta",
              "normals": "numerics.normals"}


def _dense_macs(params) -> int:
    """Multiply-adds per input row of one forward pass."""
    sizes = [layer.w.shape for layer in params.hidden] + [params.final_weights.shape]
    return sum(int(a) * int(b) for a, b in sizes)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.mixed: list[tuple] = []
        self.composed: list[tuple] = []
        self._restore: list[tuple] = []
        self._rss_before = 0.0

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, name, before=None, after=None):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(name, raw.__func__, before, after))
        else:
            new = self._wrap(name, raw, before, after)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, new)

    def _add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def install(self) -> None:
        from icmix import container, harness, losses, numerics

        add = self._add
        after = {
            "build_dataset_pair": self._after_build,
            # a CIFAR-10 record is one label byte and the pixel bytes
            "load_cifar": lambda a, out: add("data.bytes_read", out.size * (1 + out.images.shape[1])),
            "mix_batch": self._after_mix,
            "regmixup_compose": lambda a, out: self.composed.append((a[1], a[2], out)),
            "forward": lambda a, out: add("model.matmul_flop", 2 * out.inputs.shape[0] * _dense_macs(a[0])),
            "backward": lambda a, out: add("model.matmul_flop", 4 * a[1].inputs.shape[0] * _dense_macs(a[0])),
            "sgd_step": lambda a, out: add("harness.steps", 1),
        }
        for attr, name in _HARNESS_SPANS.items():
            before = self._before_build if attr == "build_dataset_pair" else None
            self._patch(harness, attr, name, before, after.get(attr))
        rng_after = {
            "permutation": lambda a, out: add("numerics.permuted_items", a[1]),
            "sample_beta": lambda a, out: add("numerics.beta_draws", 1),
            "normals": lambda a, out: add("numerics.normals_drawn", a[1]),
        }
        for attr, name in _RNG_SPANS.items():
            self._patch(numerics.RngState, attr, name, after=rng_after[attr])
        self._patch(losses.MixedScoreMatrix, "from_logits", "losses.from_logits",
                    after=lambda a, out: add("losses.score_entries", out.s_tilde.size))
        self._patch(container, "write_container", "container.write_container",
                    after=lambda a, out: add("container.bytes_written", Path(a[0]).stat().st_size))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def _before_build(self, args) -> None:
        self._rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _after_build(self, args, out) -> None:
        gain = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - self._rss_before
        self.counts["data.peak_rss_gain_mb"] += gain / 1024.0

    def _after_mix(self, args, out) -> None:
        inputs, labels, config, histogram = args[:4]
        self.counts["mixing.rows_mixed"] += out.size
        self.mixed.append((labels, histogram.counts, config, out))

    # -- results --------------------------------------------------------------

    def check_mixed_batches(self) -> dict:
        """Check every mixed batch against the README remix table and row sums."""
        problems = []
        for labels, counts, config, out in self.mixed:
            problem = checks.check_mixed_batch(labels, counts, config.method, config.tau, config.kappa,
                                               out.lambdas, out.pair_indices, out.mix_weights)
            if problem:
                problems.append(problem)
        for labels, mixed, out in self.composed:
            problem = checks.check_regmixup_batch(labels, mixed.mix_weights, out.lambdas,
                                                  out.pair_indices, out.mix_weights)
            if problem:
                problems.append(problem)
        return {"violations": len(problems), "first": problems[0] if problems else None}

    def summary(self, loop_s: float) -> dict:
        """Total and self seconds per span name, counts, and loop coverage."""
        total = defaultdict(float)
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        names = [rec[0] for rec in self.spans]
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            if name == "model.forward":
                under_eval = parent >= 0 and names[parent] == "harness.evaluate"
                name = "model.forward_eval" if under_eval else "model.forward_train"
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
        # the epoch loop lies between the end of init and the checkpoint write
        root = next(i for i, n in enumerate(names) if n == "harness.train")
        init_end = max(r[2] for r in self.spans if r[0] == "model.init_model")
        save_start = min(r[1] for r in self.spans if r[0] == "model.save_checkpoint")
        covered = sum(t1 - t0 for _, t0, t1, parent in self.spans
                      if parent == root and t0 >= init_end and t1 <= save_start)
        return {"total_s": dict(total), "self_s": dict(self_s), "counts": dict(self.counts),
                "loop_s": loop_s, "loop_covered_s": covered, "spans": len(self.spans)}

    def write_spans(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}))

