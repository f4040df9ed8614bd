"""Command-line entry points.

Subcommands: train, eval, analyze, gradcheck. Exit codes: 0 success,
1 validation error, 2 numeric-check failure, 3 I/O error. All state flows
through flags and config files; no environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .container import write_atomic
from .data import DatasetFileError
from .harness import (
    ConfigError,
    NonFiniteError,
    analyze_interpolation,
    build_dataset_pair,
    dataset_spec_from_dict,
    evaluate,
    gradcheck,
    train,
    train_config_from_dict,
)
from .model import load_checkpoint

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def _load_json_file(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _dataset_spec(arg: str):
    # inline JSON object or a path to one
    if arg.lstrip().startswith("{"):
        return dataset_spec_from_dict(json.loads(arg))
    return dataset_spec_from_dict(_load_json_file(arg))


def _cmd_train(args) -> int:
    config = train_config_from_dict(_load_json_file(args.config))
    report = train(config, out_dir=args.out)
    print(f"final test accuracy {report.final_test_accuracy:.4f} "
          f"({report.total_seconds:.1f}s, artifacts in {args.out})")
    return EXIT_OK


def _cmd_eval(args) -> int:
    params = load_checkpoint(args.checkpoint)
    spec = _dataset_spec(args.dataset)
    _, test = build_dataset_pair(spec)
    metrics = evaluate(params, test)
    print(json.dumps({"accuracy": metrics.accuracy, "loss": metrics.loss,
                      "num_samples": metrics.num_samples}))
    return EXIT_OK


def _cmd_analyze(args) -> int:
    params = load_checkpoint(args.checkpoint)
    spec = _dataset_spec(args.dataset)
    _, test = build_dataset_pair(spec)
    table = analyze_interpolation(params, test, args.step, seed=args.seed)
    write_atomic(args.out, table.to_csv().encode())
    print(f"wrote {len(table.rows)} curve rows to {args.out}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    report = gradcheck(instances=args.seeds, tol=args.tol)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.passed else EXIT_NUMERIC


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="icmix", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True, help="path to the JSON config")
    p.add_argument("--out", required=True, help="output directory for metrics/checkpoint/report")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset's test split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset spec: JSON file path or inline JSON")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="interpolation sweep over class exemplar pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True, help="dataset spec: JSON file path or inline JSON")
    p.add_argument("--step", type=float, default=0.1, help="lambda grid step (must divide 1)")
    p.add_argument("--seed", type=int, default=0, help="seed for exemplar selection")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference and closed-form gradient suite")
    p.add_argument("--seeds", type=int, default=100, help="number of random instances")
    p.add_argument("--tol", type=float, default=1e-5, help="max relative error tolerance")
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on bad flags; remap
        return EXIT_OK if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except NonFiniteError as exc:
        print(f"numeric check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DatasetFileError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
