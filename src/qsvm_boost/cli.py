"""Command-line interface.

Subcommands: ``generate`` (datasets to CSV), ``fit`` (one dataset, one model,
JSON out), ``experiment`` (full sweep from a config file), ``report``
(aggregate records into summary/box-plot files). Exit codes: 0 success,
1 configuration error, 2 runtime failure.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

from .boosted_qsvm import DEFAULT_MAX_ROUNDS
from .datasets import GENERATORS, SplitDataset, dataset_from_csv, dataset_to_csv, split_and_scale
from .experiment import (
    MODELS,
    ExperimentConfig,
    aggregate,
    emit_report,
    fit_model,
    load_config,
    read_records_csv,
    run_experiment,
)
from .kernels import GramCache


def _cmd_generate(args) -> int:
    generator = GENERATORS[args.family]
    # only the flags given, so the generator's own defaults apply to the rest
    kwargs = {k: getattr(args, k) for k in ("margin", "noise_std", "factor")
              if getattr(args, k) is not None}
    foreign = sorted(set(kwargs) - set(inspect.signature(generator).parameters))
    if foreign:
        flags = ", ".join("--" + k.replace("_", "-") for k in foreign)
        raise ValueError(f"{args.family} takes no {flags}")
    data = generator(args.n, seed=args.seed, **kwargs)
    if args.split:
        data = split_and_scale(data, args.sizes, seed=args.split_seed)
    dataset_to_csv(args.out, data)
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(args) -> int:
    data = dataset_from_csv(args.data)
    if not isinstance(data, SplitDataset):
        raise ValueError("fit needs a split dataset CSV (generate with --split)")
    config = ExperimentConfig(max_rounds=args.max_rounds)
    entry = fit_model(data, config, args.model, GramCache()).entry
    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out} (test accuracy {entry['test_accuracy']:.3f})")
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config)
    if args.output_dir is not None:
        config = replace(config, output_dir=args.output_dir)
    records = run_experiment(config, verbose=not args.quiet)
    paths = emit_report(aggregate(records), config.output_dir)
    print(f"wrote {Path(config.output_dir) / 'records.csv'}, {paths['summary']}, {paths['boxplot']}")
    return 0


def _cmd_report(args) -> int:
    records = read_records_csv(args.records)
    paths = emit_report(aggregate(records), args.out)
    print(f"wrote {paths['summary']} and {paths['boxplot']}")
    return 0


def _sizes(text: str) -> tuple[int, ...]:
    """``--sizes`` as its comma-separated counts; argparse names the flag when one is not an integer."""
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsvm-boost", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a dataset CSV")
    p.add_argument("--family", choices=sorted(GENERATORS), required=True)
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=None, help="xor exclusion band")
    p.add_argument("--noise-std", dest="noise_std", type=float, default=None)
    p.add_argument("--factor", type=float, default=None, help="circles inner radius")
    p.add_argument("--split", action="store_true", help="split 50/50/50 and scale to [0, pi]")
    p.add_argument("--sizes", type=_sizes, default="50,50,50", help="train,val,test counts")
    p.add_argument("--split-seed", dest="split_seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("fit", help="fit one model on one split dataset")
    p.add_argument("--data", required=True, help="split dataset CSV")
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=DEFAULT_MAX_ROUNDS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("experiment", help="run a full sweep from a config file")
    p.add_argument("--config", required=True, help="JSON config file")
    p.add_argument("--output-dir", dest="output_dir", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="aggregate a records CSV into summary files")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
