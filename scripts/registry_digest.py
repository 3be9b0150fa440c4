"""sha256 over the CSVs of every registry variant: per experiment, in total, and
over the aggregates.

    python3 scripts/registry_digest.py [--base-seed 5] [--num-seeds 2] [--out DIR]

Runs each variant of each registered experiment once through
`run_experiment`, with `base_seed`, `num_seeds` and `record_wall_time=False`
overridden, into `<out>/<experiment>/<variant name>/seed<s>.csv`. A digest
is the sha256 of CSVs' bytes concatenated in sorted relative-path order:
one line per experiment over its own CSVs, one line for each loss swap of
fig3's `simple-blobs` (`triplet-blobs`, `infonce-blobs` and
`triplet-margin-blobs`, run into `<out>/<swap>/`), then the total over the
experiments' CSVs, then one
line over their variants' `aggregate.csv`. Two trees that print the
same digest wrote byte-identical CSVs, so a change meant to be exact can be
checked against its parent, and a change that adds an experiment can show
that every other experiment kept its digest. Imports centerlab from this
checkout's `src/`, ahead of PYTHONPATH, and prints the package's path first,
with the numpy version and the BLAS numpy was built with: the digest rests on
numpy's summation orders (einsum's among them), so a line that differs on
another host can be traced to a library change.

At the default seeds the digest lines are compared with the ones pinned in
`registry_digest.expected` beside this script; on any difference the script
prints a diff to stderr and exits 1. A change that moves the outputs on
purpose updates that file and says why.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from centerlab import harness, registry  # noqa: E402

# loss swaps of fig3's simple-blobs, name -> overrides: the two the benchmark's
# objective-catalog workload runs, where triplet is the one objective whose
# negatives share the pair stream with the partner draws, and triplet with a
# finite margin, whose node folds its three views in another order
SWAPPED_EXPERIMENT, SWAPPED_VARIANT = "fig3-simple-vs-simsiam", "simple-blobs"
LOSS_SWAPS = {
    "triplet-blobs": {"loss.kind": "triplet"},
    "infonce-blobs": {"loss.kind": "infonce"},
    "triplet-margin-blobs": {"loss.kind": "triplet", "loss.margin": 0.5},
}
EXPECTED = Path(__file__).with_suffix(".expected")
BASE_SEED, NUM_SEEDS = 5, 2  # the seeds EXPECTED pins


def _digest(out: Path, csvs: list[str]) -> str:
    h = hashlib.sha256()
    for rel in csvs:
        h.update((out / rel).read_bytes())
    return h.hexdigest()


def _files(out: Path, keys, pattern: str) -> list[str]:
    return sorted(p.relative_to(out).as_posix()
                  for key in keys for p in (out / key).rglob(pattern))


def digest_runs() -> dict[str, list[harness.ExperimentConfig]]:
    """Each digest line's configs, by key: every registered experiment's
    variants, then each loss swap."""
    simple_blobs = dict(registry.named_experiment(SWAPPED_EXPERIMENT))[SWAPPED_VARIANT]
    runs = {name: [cfg for _, cfg in registry.named_experiment(name)]
            for name in registry.experiment_names()}
    runs.update({key: [harness.apply_overrides(simple_blobs, {"name": key, **overrides})]
                 for key, overrides in LOSS_SWAPS.items()})
    return runs


def key_digest(out: Path, key: str, configs, base_seed: int, num_seeds: int
               ) -> tuple[str, int]:
    """Run `configs` into `<out>/<key>/`: (digest, count) of their seed CSVs."""
    for cfg in configs:
        harness.run_experiment(harness.apply_overrides(cfg, {
            "base_seed": base_seed, "num_seeds": num_seeds,
            "record_wall_time": False}), out / key)
    own = _files(out, [key], "seed*.csv")
    return _digest(out, own), len(own)


def digest_line(key: str, digest: str, count: int) -> str:
    swap = "" if key in registry.experiment_names() else (
        f" ({SWAPPED_EXPERIMENT} {SWAPPED_VARIANT}, not in the total)")
    return f"{digest}  {count} seed CSVs, {key}{swap}"


def registry_digest(out: Path, base_seed: int, num_seeds: int
                    ) -> tuple[str, int, dict[str, tuple[str, int]], tuple[str, int]]:
    """(total digest, CSV count, {experiment or loss swap: (digest, CSV count)},
    (aggregate digest, aggregate count)); the total and the aggregate digest
    cover the registered experiments only."""
    digests = {key: key_digest(out, key, configs, base_seed, num_seeds)
               for key, configs in digest_runs().items()}
    names = registry.experiment_names()
    csvs = _files(out, names, "seed*.csv")
    aggregates = _files(out, names, "aggregate.csv")
    return (_digest(out, csvs), len(csvs), digests,
            (_digest(out, aggregates), len(aggregates)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-seed", type=int, default=BASE_SEED)
    ap.add_argument("--num-seeds", type=int, default=NUM_SEEDS)
    ap.add_argument("--out", type=Path, default=None,
                    help="an empty directory for the runs (default: a temporary one)")
    args = ap.parse_args(argv)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"centerlab from {Path(harness.__file__).resolve().parent}, numpy "
          f"{np.__version__}, BLAS {blas['name']} {blas['version']}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        digest, n, per_experiment, aggregates = registry_digest(
            args.out, args.base_seed, args.num_seeds)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digest, n, per_experiment, aggregates = registry_digest(
                Path(tmp), args.base_seed, args.num_seeds)
    lines = [digest_line(key, *pair) for key, pair in per_experiment.items()]
    lines.append(f"{digest}  {n} seed CSVs, base seed {args.base_seed}, "
                 f"{args.num_seeds} seeds per variant")
    lines.append(f"{aggregates[0]}  {aggregates[1]} aggregate CSVs")
    print("\n".join(lines))
    if (args.base_seed, args.num_seeds) != (BASE_SEED, NUM_SEEDS):
        return 0
    expected = EXPECTED.read_text().splitlines()
    if lines == expected:
        print(f"every line matches {EXPECTED.name}")
        return 0
    sys.stderr.writelines(difflib.unified_diff(
        [f"{line}\n" for line in expected], [f"{line}\n" for line in lines],
        EXPECTED.name, "printed"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
