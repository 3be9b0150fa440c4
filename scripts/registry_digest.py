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
checkout's `src/`, ahead of PYTHONPATH, and prints the package's path first.

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

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from centerlab import harness  # noqa: E402

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


def _digest(out: Path, csvs: list[str]) -> str:
    h = hashlib.sha256()
    for rel in csvs:
        h.update((out / rel).read_bytes())
    return h.hexdigest()


def _files(out: Path, keys, pattern: str) -> list[str]:
    return sorted(p.relative_to(out).as_posix()
                  for key in keys for p in (out / key).rglob(pattern))


def registry_digest(out: Path, base_seed: int, num_seeds: int
                    ) -> tuple[str, int, dict[str, tuple[str, int]], tuple[str, int]]:
    """(total digest, CSV count, {experiment or loss swap: (digest, CSV count)},
    (aggregate digest, aggregate count)); the total and the aggregate digest
    cover the registered experiments only."""
    names = harness.experiment_names()
    simple_blobs = dict(harness.named_experiment(SWAPPED_EXPERIMENT))[SWAPPED_VARIANT]
    swaps = {key: harness.apply_overrides(simple_blobs, {"name": key, **overrides})
             for key, overrides in LOSS_SWAPS.items()}
    runs = [(name, cfg) for name in names for _, cfg in harness.named_experiment(name)]
    for key, cfg in runs + list(swaps.items()):
        cfg = harness.apply_overrides(cfg, {
            "base_seed": base_seed, "num_seeds": num_seeds, "record_wall_time": False})
        harness.run_experiment(cfg, out / key)
    csvs = _files(out, names, "seed*.csv")
    digests = {}
    for key in [*names, *swaps]:
        own = _files(out, [key], "seed*.csv")
        digests[key] = (_digest(out, own), len(own))
    aggregates = _files(out, names, "aggregate.csv")
    return (_digest(out, csvs), len(csvs), digests,
            (_digest(out, aggregates), len(aggregates)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-seed", type=int, default=5)
    ap.add_argument("--num-seeds", type=int, default=2)
    ap.add_argument("--out", type=Path, default=None,
                    help="an empty directory for the runs (default: a temporary one)")
    args = ap.parse_args(argv)
    print(f"centerlab from {Path(harness.__file__).resolve().parent}")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        digest, n, per_experiment, aggregates = registry_digest(
            args.out, args.base_seed, args.num_seeds)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digest, n, per_experiment, aggregates = registry_digest(
                Path(tmp), args.base_seed, args.num_seeds)
    names = harness.experiment_names()
    lines = []
    for key, (exp_digest, exp_n) in per_experiment.items():
        swap = "" if key in names else (
            f" ({SWAPPED_EXPERIMENT} {SWAPPED_VARIANT}, not in the total)")
        lines.append(f"{exp_digest}  {exp_n} seed CSVs, {key}{swap}")
    lines.append(f"{digest}  {n} seed CSVs, base seed {args.base_seed}, "
                 f"{args.num_seeds} seeds per variant")
    lines.append(f"{aggregates[0]}  {aggregates[1]} aggregate CSVs")
    print("\n".join(lines))
    if (args.base_seed, args.num_seeds) != (ap.get_default("base_seed"),
                                            ap.get_default("num_seeds")):
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
