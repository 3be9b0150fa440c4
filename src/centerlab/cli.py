"""Command-line surface for the experiment harness.

Subcommands: run, named, sweep, compare, list. Exit codes: 0 success,
2 config validation error, 3 numeric abort, 4 comparison failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .harness import (ComparisonError, ConfigError, ExperimentConfig,
                      NumericAbort, apply_overrides, compare_runs,
                      experiment_names, named_experiment, run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_COMPARISON = 4


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_overrides(pairs: list[str]) -> dict[str, object]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        overrides[key] = _parse_value(value)
    return overrides


def _parse_grid(specs: list[str]) -> list[dict[str, object]]:
    axes = []
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid axis {spec!r} is not of the form key=v1,v2")
        key, _, values = spec.partition("=")
        axes.append([(key, _parse_value(v)) for v in values.split(",")])
    return [dict(combo) for combo in itertools.product(*axes)]


# a diverging run reports itself as one `numeric abort` line; the overflow
# warnings numpy would print on the way there change no value
@np.errstate(all="ignore")
def _run_configs(configs, out_dir, quiet: bool) -> int:
    for label, cfg in configs:
        try:
            cfg.validate()
        except ConfigError as exc:
            print(f"config error ({label}): {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for label, cfg in configs:
        try:
            result = run_experiment(cfg, out_dir)
        except NumericAbort as exc:
            print(f"numeric abort ({label}): {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        if not quiet:
            print(f"{label}: wrote {result.aggregate_csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centerlab",
        description="Toy-scale SSL collapse experiments and diagnostics.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config base seed")
    parser.add_argument("--out-dir", default="runs", help="metrics output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single experiment config file")
    p_run.add_argument("config", help="JSON experiment config")

    p_named = sub.add_parser("named", help="run a registered experiment")
    p_named.add_argument("key")
    p_named.add_argument("--override", action="append", default=[],
                         metavar="K=V", help="dotted-path config override")

    p_sweep = sub.add_parser("sweep", help="run a config over a parameter grid")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grid", action="append", required=True,
                         metavar="K=V1,V2", help="grid axis (repeatable)")

    p_cmp = sub.add_parser("compare", help="evaluate claims between metric files")
    p_cmp.add_argument("spec", help="JSON comparison spec")

    sub.add_parser("list", help="list registered experiments")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            for name in experiment_names():
                print(name)
            return EXIT_OK

        if args.command == "run":
            cfg = ExperimentConfig.from_file(args.config)
            if args.seed is not None:
                cfg = apply_overrides(cfg, {"base_seed": args.seed})
            return _run_configs([(cfg.name, cfg)], args.out_dir, args.quiet)

        if args.command == "named":
            try:
                variants = named_experiment(args.key)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return EXIT_CONFIG
            overrides = _parse_overrides(args.override)
            if args.seed is not None:
                overrides["base_seed"] = args.seed
            configs = [(label, apply_overrides(cfg, overrides) if overrides else cfg)
                       for label, cfg in variants]
            return _run_configs(configs, Path(args.out_dir) / args.key, args.quiet)

        if args.command == "sweep":
            base = ExperimentConfig.from_file(args.config)
            if args.seed is not None:
                base = apply_overrides(base, {"base_seed": args.seed})
            configs = []
            for combo in _parse_grid(args.grid):
                cfg = apply_overrides(base, combo)
                suffix = "-".join(f"{k.split('.')[-1]}{v}" for k, v in combo.items())
                cfg.name = f"{base.name}-{suffix}"
                configs.append((cfg.name, cfg))
            return _run_configs(configs, args.out_dir, args.quiet)

        if args.command == "compare":
            with open(args.spec) as fh:
                spec = json.load(fh)
            results = compare_runs(spec)
            width = max(len(r["name"]) for r in results)
            all_passed = True
            for r in results:
                status = "PASS" if r["passed"] else "FAIL"
                all_passed &= r["passed"]
                print(f"{r['name']:<{width}}  {status}  a={r['a']:.6g} "
                      f"b={r['b']:.6g} op={r['op']} margin={r['margin']:g}")
            return EXIT_OK if all_passed else EXIT_COMPARISON
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ComparisonError as exc:
        print(f"comparison error: {exc}", file=sys.stderr)
        return EXIT_COMPARISON
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
