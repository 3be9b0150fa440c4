"""sha256 over the seed CSVs of every registry variant.

    python3 scripts/registry_digest.py [--base-seed 5] [--num-seeds 2] [--out DIR]

Runs each variant of each registered experiment once through
`run_experiment`, with `base_seed`, `num_seeds` and `record_wall_time=False`
overridden, into `<out>/<experiment>/<variant name>/seed<s>.csv`. The digest
is the sha256 of those CSVs' bytes concatenated in sorted relative-path
order. Two trees that print the same digest wrote byte-identical CSVs, so a
change meant to be exact can be checked against its parent. Imports
centerlab from this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from centerlab import harness  # noqa: E402


def registry_digest(out: Path, base_seed: int, num_seeds: int) -> tuple[str, int]:
    for name in harness.experiment_names():
        for _, cfg in harness.named_experiment(name):
            cfg = harness.apply_overrides(cfg, {
                "base_seed": base_seed, "num_seeds": num_seeds,
                "record_wall_time": False})
            harness.run_experiment(cfg, out / name)
    csvs = sorted(p.relative_to(out).as_posix() for p in out.rglob("seed*.csv"))
    h = hashlib.sha256()
    for rel in csvs:
        h.update((out / rel).read_bytes())
    return h.hexdigest(), len(csvs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-seed", type=int, default=5)
    ap.add_argument("--num-seeds", type=int, default=2)
    ap.add_argument("--out", type=Path, default=None,
                    help="an empty directory for the runs (default: a temporary one)")
    args = ap.parse_args(argv)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        digest, n = registry_digest(args.out, args.base_seed, args.num_seeds)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            digest, n = registry_digest(Path(tmp), args.base_seed, args.num_seeds)
    print(f"{digest}  {n} seed CSVs, base seed {args.base_seed}, "
          f"{args.num_seeds} seeds per variant")
    return 0


if __name__ == "__main__":
    sys.exit(main())
