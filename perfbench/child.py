"""One training call in a fresh process: ``python3 child.py CONFIG OUT RESULT [--trace]``.

Trains through the library's public entry point, ``icmix.harness.train``,
and writes a JSON result with the call's wall time, the epoch-loop time the
run report records, and the process's peak RSS. With ``--trace`` the layer
boundaries are wrapped first (see tracer.py) and the result also carries the
per-layer summary and the mixed-batch check.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    config_path, out_dir, result_path = argv[:3]
    traced = "--trace" in argv[3:]
    import icmix
    from icmix import harness

    tracer = None
    if traced:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()
    config = harness.train_config_from_dict(json.loads(Path(config_path).read_text()))
    t0 = time.perf_counter()
    report = harness.train(config, out_dir=out_dir)
    wall = time.perf_counter() - t0
    result = {
        "icmix_file": icmix.__file__,
        "wall_s": wall,
        "loop_s": report.total_seconds,
        "epoch_s": report.epoch_seconds,
        "final_test_accuracy": report.final_test_accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(loop_s=report.total_seconds)
        result["mix_check"] = tracer.check_mixed_batches()
        tracer.write_spans(Path(result_path).with_suffix(".spans.json"))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
