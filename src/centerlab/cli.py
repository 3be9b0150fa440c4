"""Command-line surface for the experiment harness.

Subcommands: run, named, sweep, claims, list. Exit codes: 0 success,
2 config, I/O or out-of-memory error, 3 numeric abort, 4 a failed claim
or a malformed run directory; each failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import claims
from .harness import (ConfigError, ExperimentConfig, NumericAbort,
                      apply_overrides, experiment_names, named_experiment,
                      run_experiment)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_COMPARISON = 4


def _parse_value(text: str):
    try:
        return json.loads(text)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        return text


def _parse_overrides(pairs: list[str]) -> dict[str, object]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, value = pair.partition("=")
        overrides[key] = _parse_value(value)
    return overrides


def _split_values(values: str) -> list[str]:
    """A grid axis's values, split at the commas outside brackets, so that a
    list value reaches `_parse_value` whole."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(values):
        depth += (ch == "[") - (ch == "]")
        if ch == "," and depth == 0:
            parts.append(values[start:i])
            start = i + 1
    return parts + [values[start:]]


def _parse_grid(specs: list[str]) -> list[dict[str, object]]:
    axes: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise ConfigError(f"grid axis {spec!r} is not of the form key=v1,v2")
        key, _, values = spec.partition("=")
        if key in axes:  # one grid point would take only the last axis's value
            raise ConfigError(f"grid key {key} is named by two --grid axes")
        axes[key] = [(key, _parse_value(v)) for v in _split_values(values)]
    return [dict(combo) for combo in itertools.product(*axes.values())]


# a diverging run reports itself as one `numeric abort` line; the overflow
# warnings numpy would print on the way there change no value
@np.errstate(all="ignore")
def _run_configs(configs, out_dir, quiet: bool) -> int:
    run_dirs = [Path(out_dir) / cfg.name for _, cfg in configs]
    for i, run_dir in enumerate(run_dirs):  # checked before any run writes one
        if run_dir in run_dirs[:i]:
            raise ConfigError(f"{run_dir}: two configs would write this run directory")
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

    p_claims = sub.add_parser("claims", help="judge the paper's claims on run directories")
    p_claims.add_argument("keys", nargs="*", metavar="KEY",
                          help="registered experiment (default: all of them)")

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

        if args.command == "claims":
            unknown = [key for key in args.keys if key not in claims.CLAIMS]
            if unknown:
                print(f"unknown experiment(s) {', '.join(unknown)}; available: "
                      f"{', '.join(claims.CLAIMS)}", file=sys.stderr)
                return EXIT_CONFIG
            keys = args.keys
            if not keys:  # a partial run tree: judge what it holds
                keys = [key for key in claims.CLAIMS if (Path(args.out_dir) / key).exists()]
                skipped = [key for key in claims.CLAIMS if key not in keys]
                if skipped:
                    print(f"no run directory under {args.out_dir} for "
                          f"{', '.join(skipped)}; skipped", file=sys.stderr)
                if not keys:
                    return EXIT_CONFIG
            all_passed = True
            for key in keys:
                for claim in claims.CLAIMS[key]:
                    for v in claim(Path(args.out_dir) / key):
                        all_passed &= v.passed
                        print(f"{key}  {v.claim}  {'PASS' if v.passed else 'FAIL'}  "
                              f"margin={v.margin:+.4g}  {v.left:.6g} {v.op} {v.right:.6g}")
            return EXIT_OK if all_passed else EXIT_COMPARISON

        # a run is a sweep over one empty grid point. --seed beats
        # `named --override base_seed=...` and loses to a base_seed grid axis
        seed = {} if args.seed is None else {"base_seed": args.seed}
        if args.command == "named":
            try:
                variants = named_experiment(args.key)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                return EXIT_CONFIG
            fixed, grid = {**_parse_overrides(args.override), **seed}, [{}]
            out_dir = Path(args.out_dir) / args.key
        else:
            base = ExperimentConfig.from_file(args.config)
            variants, fixed, out_dir = [(base.name, base)], seed, args.out_dir
            grid = _parse_grid(args.grid) if args.command == "sweep" else [{}]
        configs = []
        for label, cfg in variants:
            for combo in grid:
                overrides = {**fixed, **combo}
                if combo:  # the suffixed name goes through build()'s name check
                    suffix = "-".join(f"{k.split('.')[-1]}{v}" for k, v in combo.items())
                    overrides["name"] = f"{cfg.name}-{suffix}"
                variant = apply_overrides(cfg, overrides) if overrides else cfg
                configs.append((variant.name if combo else label, variant))
        return _run_configs(configs, out_dir, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except claims.ComparisonError as exc:
        print(f"comparison error: {exc}", file=sys.stderr)
        return EXIT_COMPARISON
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
