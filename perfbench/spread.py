"""Run the benchmark on ten seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py            # report only
    python3 perfbench/spread.py --write    # also rewrite perfbench/baseline.json

For every workload in BENCHMARK.json it runs `run.py` for `run_seconds` once
per seed in SEEDS, one run at a time, and reports per end-to-end metric the
median, the quartiles (Python's `statistics.quantiles(values, n=4)`) and the
spread (q3 - q1) / median next to the metric's bound. Then it makes one
traced run at TRACED_SEED. It exits 1 if a run was not correct or a spread,
other than that of setup_s, is not below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import machine
import spans

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"
SEEDS = list(range(1, 11))
TRACED_SEED = 1
RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run: its JSON result line plus the run's output digest."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    saved = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result["output_digest"] = json.loads(saved.read_text())["output_digest"]
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {BASELINE.name}")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": SEEDS, "workloads": {},
              "layer_map": {m: moves for m, _, moves in spans.LAYER_TIMES}
              | dict(spans.LAYER_COUNTS)}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            start = time.perf_counter()
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed={seed} wall={time.perf_counter() - start:.1f}s "
                  f"correct={runs[-1]['correct']}", flush=True)
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "output_digests": {seed: r["output_digest"] for seed, r in zip(SEEDS, runs)},
                 "end_to_end": {}}
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  spread < bound/3")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s.update(unit=runs[0]["metrics"][name]["unit"], bound=bound)
            steady = s["spread"] < bound / 3
            ok &= steady or name == "setup_s"
            entry["end_to_end"][name] = s
            print(f"{name:<14} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bound:>6.2f}  {'yes' if steady else 'NO'}")
        traced = run_once(workload, TRACED_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACED_SEED, "correct": traced["correct"],
                              "metrics": traced["metrics"]}
        print(f"{workload} traced seed={TRACED_SEED} correct={traced['correct']}", flush=True)
        report["workloads"][workload] = entry
        ok &= entry["correct"] and traced["correct"]
    if args.write:
        import numpy as np
        report["machine"] = machine.facts(ROOT, np)
        BASELINE.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
