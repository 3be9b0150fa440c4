"""centerlab benchmark: train registry workloads end to end and check the outputs.

    python3 perfbench/run.py --workload collapse-mini --seed 1 --seconds 30 --trace 0

Runs one workload (workloads.py) through `centerlab.harness.run_experiment`,
imported from this checkout's `src/`, with `--seed` as every variant's
`base_seed`. The workload runs in rounds until `--seconds` is spent, and at
least MIN_ROUNDS times. Every round re-imports centerlab, runs each variant
once (NUM_SEEDS seeds per call) and checks every (variant, seed) output.
Timing is taken from outside: wall time around each `run_experiment` call,
cut into set-up, epoch and tail segments by the public `tick_callback`.
Each segment is rescaled to a reference host speed (probe.py) and takes its
median over the rounds. The end-to-end metrics:

    run_s         one round: the sum of its segments
    pairs_per_s   training pairs (rows of all batches) per second of run_s
    epoch_ms_p50  median epoch time; epoch_ms_p90 its 90th percentile
    setup_s       centerlab import plus each seed's time to its epoch-0 tick
    peak_rss_mb   ru_maxrss of this process
    failed_share  (variant, seed) runs that aborted or failed a check; it is
                  0 when the program works, so the JSON line carries it as
                  `failed` out of `attempted` instead of as a metric

`--trace 0` prints the end-to-end metrics. `--trace 1` alternates untraced
and traced rounds and prints the per-layer split instead (spans.py). The
last line of stdout is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the metric names and units are the ones declared in
BENCHMARK.json. Everything written goes under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import machine
import probe
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_ROUNDS = 3
# centerlab is imported this many times per round; set-up counts the median
IMPORTS_PER_ROUND = 5
# after MIN_ROUNDS rounds, another starts only if it is expected to end within
# --seconds of the first round's start
WARMUP_EPOCHS = 2


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Round:
    traced: bool
    imports_s: list[float]          # centerlab import times, rescaled (probe.py)
    run_s: float = 0.0              # wall time of the run_experiment calls
    # (variant, seed, epoch) -> (rescaled seconds, epochs covered); see EpochClock
    segments: dict = field(default_factory=dict)
    segments_wall_s: float = 0.0    # the segments' wall time, before rescaling
    spans: tuple[int, int] = (0, 0)  # the round's span indices in the tracer
    pairs: int = 0
    steps: int = 0
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)  # (run, problem)
    digest: str = ""

    @property
    def rescaled_s(self) -> float:
        return sum(seconds for seconds, _ in self.segments.values())

    @property
    def speed_factor(self) -> float:
        """Reference-host seconds per wall second over the round's segments."""
        return self.rescaled_s / self.segments_wall_s


class EpochClock:
    """A `tick_callback` that cuts each `run_experiment` call into segments.

    The segment ending at a seed's epoch-0 tick (from the call, or from the
    previous seed's last tick) is set-up and covers 0 epochs. Each later
    segment ends at a tick and covers the epochs since the previous tick. The
    segment after the last tick, to the end of the call, is keyed
    (variant, None, None). After each segment the host-speed probe runs; its
    time belongs to no segment.
    """

    def __init__(self, tracer: spans.Tracer | None):
        self.tracer = tracer
        self.probe = probe.probe if tracer is None else tracer.wrap(spans.PROBE_SPAN, probe.probe)
        self.last = 0.0
        self.last_epoch = 0
        self.timed: list[tuple] = []      # (key, seconds, epochs covered, probe seconds)
        self.ticks: Counter = Counter()

    def _end_segment(self, key, covered: int) -> None:
        seconds = time.perf_counter() - self.last
        self.timed.append((key, seconds, covered, self.probe()))
        self.last = time.perf_counter()

    def tick(self, trainer, epoch, report, emb) -> None:
        self._end_segment((trainer.cfg.name, trainer.seed, epoch),
                          epoch - self.last_epoch if epoch else 0)
        self.last_epoch = epoch
        self.ticks[trainer.cfg.name, trainer.seed] += 1
        if self.tracer is not None:
            self.tracer.ticks += 1

    def close(self, variant: str) -> None:
        self._end_segment((variant, None, None), 0)

    def segments(self) -> dict:
        """key -> (seconds rescaled to the reference host speed, epochs covered)."""
        factors = probe.speed_factors([p for *_, p in self.timed])
        return {key: (seconds * f, covered)
                for (key, seconds, covered, _), f in zip(self.timed, factors)}


def fresh_centerlab(times: int = 1):
    """Import centerlab anew from `src/` `times` times; returns the last
    package and the import times in seconds."""
    took = []
    for _ in range(times):
        for name in [m for m in sys.modules if m == "centerlab" or m.startswith("centerlab.")]:
            del sys.modules[name]
        gc.collect()  # the previous import's modules are garbage; do not time them
        start = time.perf_counter()
        pkg = importlib.import_module("centerlab")
        took.append(time.perf_counter() - start)
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "centerlab":
        raise BenchError(f"imported centerlab from {pkg.__file__}, not from src/")
    return pkg, took


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def seed_problems(harness, cfg, seed: int, ticks: int, out: Path) -> tuple[list[str], bytes]:
    """Check one seed's outputs; returns (problems, seed CSV bytes)."""
    base = out / cfg.name
    path = base / f"seed{seed}.csv"
    if not path.is_file():
        return ["seed CSV missing"], b""
    raw = path.read_bytes()
    problems = []
    lines = raw.decode().splitlines()
    if not lines or lines[0] != harness.METRICS_HEADER:
        problems.append("CSV header differs from METRICS_HEADER")
    if len(lines) - 1 != ticks:
        problems.append(f"{len(lines) - 1} CSV rows for {ticks} ticks")
    for row in csv.DictReader(io.StringIO(raw.decode())):
        epoch = int(row["epoch"])
        if epoch != 0 and not math.isfinite(float(row["loss"] or "nan")):
            problems.append(f"non-finite loss at epoch {epoch}")
        if cfg.encoder.output_normalize and not float(row["center_norm"]) <= 1.0 + 1e-12:
            problems.append(f"center_norm {row['center_norm']} > 1 at epoch {epoch}")
        if row["knn_accuracy"] and not 0.0 <= float(row["knn_accuracy"]) <= 1.0:
            problems.append(f"knn_accuracy {row['knn_accuracy']} outside [0, 1]")
    if not (base / "aggregate.csv").is_file():
        problems.append("aggregate CSV missing")
    if not (base / f"seed{seed}.npz").is_file():
        problems.append("checkpoint missing")
    return problems, raw


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

def run_round(workload, seed: int, out: Path, tracer: spans.Tracer | None) -> Round:
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # every round starts without the previous round's garbage
    probes = [probe.probe() for _ in range(IMPORTS_PER_ROUND)]
    pkg, imports_s = fresh_centerlab(IMPORTS_PER_ROUND)
    probes += [probe.probe() for _ in range(IMPORTS_PER_ROUND)]
    factor = probe.REFERENCE_S / statistics.median(probes)
    harness = pkg.harness
    configs = workload.configs(harness, seed)
    run = harness.run_experiment
    if tracer is not None:
        spans.install(tracer, pkg)
        run = tracer.wrap("harness.loop", run)
    clock = EpochClock(tracer)
    results = []
    rnd = Round(traced=tracer is not None, imports_s=[t * factor for t in imports_s])
    first_span = 0 if tracer is None else len(tracer.start)
    for cfg in configs:
        if tracer is not None:
            tracer.set_run(f"{cfg.name}/-")
        start = time.perf_counter()
        clock.last = start
        try:
            result = run(cfg, out, tick_callback=clock.tick)
        except harness.NumericAbort as exc:
            result = exc
        clock.close(cfg.name)
        rnd.run_s += time.perf_counter() - start
        results.append((cfg, result))
    rnd.segments = clock.segments()
    rnd.segments_wall_s = sum(seconds for _, seconds, _, _ in clock.timed)
    if tracer is not None:
        rnd.spans = (first_span, len(tracer.start))

    digest = hashlib.sha256()
    for cfg, result in results:
        for seed_i in range(cfg.base_seed, cfg.base_seed + cfg.num_seeds):
            rnd.attempted += 1
            if isinstance(result, harness.NumericAbort):
                rnd.failures.append((f"{cfg.name}/{seed_i}", f"NumericAbort: {result}"))
                continue
            problems, raw = seed_problems(harness, cfg, seed_i,
                                          clock.ticks[cfg.name, seed_i], out)
            rnd.failures += [(f"{cfg.name}/{seed_i}", p) for p in problems]
            digest.update(f"{cfg.name}/seed{seed_i}.csv\0".encode() + raw)
            trainer = result.trainers[seed_i]
            rnd.pairs += trainer.augmented.n * result.rows_by_seed[seed_i][-1]["epoch"]
            rnd.steps += trainer.state.step
    rnd.digest = digest.hexdigest()
    return rnd


def warm_up(workload, seed: int, out: Path) -> None:
    """Untimed short pass over every variant: compiles bytecode, fills caches."""
    shutil.rmtree(out, ignore_errors=True)
    pkg, _ = fresh_centerlab()
    harness = pkg.harness
    for cfg in workload.configs(harness, seed):
        short = harness.apply_overrides(cfg, {"optimizer.epochs": WARMUP_EPOCHS,
                                              "num_seeds": 1})
        try:
            harness.run_experiment(short, out)
        except harness.NumericAbort:
            pass  # the measured rounds count it
    shutil.rmtree(out, ignore_errors=True)


def measure(workload, seed: int, seconds: float, trace: bool,
            out: Path) -> tuple[list[Round], spans.Tracer | None]:
    """Rounds until `seconds` is spent; with `trace`, odd rounds are traced."""
    tracer = spans.Tracer() if trace else None
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, out, tracer if traced else None))
        n = len(rounds)
        projected = (time.perf_counter() - start) * (n + 1) / n
        if n >= MIN_ROUNDS and projected > seconds:
            break
    shutil.rmtree(out, ignore_errors=True)
    return rounds, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: list[Round], attempted: int, failed: int) -> tuple[dict, list[str]]:
    """End-to-end metrics from the untraced rounds.

    Every round repeats the same computation. Each segment (set-up, an
    epoch, or the tail of a call) is rescaled to the reference host speed
    (probe.py) and takes its median over the rounds; `run_s` sums them over
    one round and the epoch percentiles are taken over them.
    """
    plain = [r for r in rounds if not r.traced]
    first = plain[0].segments
    median = {key: statistics.median(r.segments[key][0] for r in plain) for key in first}
    epochs = [median[key] / n for key, (_, n) in first.items() for _ in range(n)]
    deciles = statistics.quantiles(epochs, n=10, method="inclusive")
    run_s = sum(median.values())
    setup_s = (statistics.median(t for r in plain for t in r.imports_s)
               + sum(median[key] for key in first if key[2] == 0))
    values = {
        "run_s": (run_s, "s"),
        "pairs_per_s": (plain[0].pairs / run_s, "pairs/s"),
        "epoch_ms_p50": (1000.0 * deciles[4], "ms"),
        "epoch_ms_p90": (1000.0 * deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_share": (failed / attempted, "ratio"),
    }
    notes = {
        "run_s": f"median of {len(plain)} rounds, rescaled (wall times "
                 f"{', '.join(f'{r.run_s:.3f}' for r in plain)} s)",
        "pairs_per_s": f"{plain[0].pairs} pairs per round",
        "epoch_ms_p50": f"n={len(epochs)} epochs, {len(epochs) // 10} above p90",
        "epoch_ms_p90": f"n={len(epochs)} epochs, {len(epochs) // 10} above p90",
        "setup_s": "centerlab import + time before each epoch-0 tick",
        "peak_rss_mb": "ru_maxrss of this process",
        "failed_share": f"{failed}/{attempted} (variant, seed) runs",
    }
    return values, [notes[k] for k in values]


def consistency_problems(rounds: list[Round], tracer: spans.Tracer | None) -> list[str]:
    first = rounds[0]
    problems = []
    for i, r in enumerate(rounds[1:], 2):
        if ((r.digest, r.pairs, r.steps, r.segments.keys())
                != (first.digest, first.pairs, first.steps, first.segments.keys())):
            problems.append(f"round {i} differs from round 1 in outputs, counts or ticks")
    traced = sum(r.traced for r in rounds)
    if tracer is not None and (tracer.pairs != traced * first.pairs
                               or tracer.self_times().get("harness.step", (0.0, 0))[1]
                               != traced * first.steps):
        problems.append("traced pair or step counts differ from the run results")
    return problems


def layer_report(tracer: spans.Tracer, rounds: list[Round]) -> tuple[dict, list]:
    """Per-layer metrics of the traced rounds, printed as a table; returns
    (metrics, table rows).

    Self times, run_s and the tracing overhead are rescaled (probe.py). The
    raw wall times sit beside them, so that a change the rescaling may hide
    (see probe.py) can be judged on wall time too.
    """
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    traced_s = statistics.fmean(r.rescaled_s for r in traced)
    plain_s = statistics.fmean(r.rescaled_s for r in plain)
    wall_s = statistics.fmean(r.run_s for r in traced)
    plain_wall_s = statistics.fmean(r.run_s for r in plain)
    metrics, rows = spans.layer_metrics(tracer, traced)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.untraced_run_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall_s, "s")
    print(f"\nper-layer self time, rescaled, mean of {len(traced)} traced rounds; "
          f"rescaled run_s traced {traced_s:.4f} s, untraced {plain_s:.4f} s, "
          f"tracing overhead {traced_s - plain_s:+.4f} s; wall time traced "
          f"{wall_s:.4f} s, untraced {plain_wall_s:.4f} s")
    print(f"{'layer metric':<26} {'value':>12} {'share':>7} {'spans':>8}  should move")
    for name, value, share, calls, moves in rows:
        share_txt = "" if share is None else f"{share:6.2f}%"
        calls_txt = "" if calls is None else str(calls)
        print(f"{name:<26} {value:>12.6g} {share_txt:>7} {calls_txt:>8}  {moves}")
    return metrics, rows


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (ROOT / "src" / "centerlab" / "__init__.py").is_file():
        raise BenchError(f"no centerlab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np  # loaded before the timed imports, which cover centerlab only

    workload = WORKLOADS[args.workload]
    declared = declared_metrics(bool(args.trace))
    facts = machine.facts(ROOT, np)
    out = OUT / "runs" / f"{args.workload}-{os.getpid()}"
    warm_up(workload, args.seed, out)
    rounds, tracer = measure(workload, args.seed, args.seconds, bool(args.trace), out)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(len({run for run, _ in r.failures}) for r in rounds)
    failures = [f"{run}: {problem}" for r in rounds for run, problem in r.failures]
    problems = consistency_problems(rounds, tracer)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} rounds={len(rounds)}")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"output_digest {rounds[0].digest}")
    result = {"workload": args.workload, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "output_digest": rounds[0].digest,
              "rounds": [{"traced": r.traced, "run_s": r.run_s,
                          "rescaled_s": r.rescaled_s,
                          "imports_s": r.imports_s,
                          "pairs": r.pairs, "steps": r.steps}
                         for r in rounds],
              "failures": failures, "problems": problems}

    metrics = {}
    # rounds that did not repeat one computation cannot be matched up
    # segment by segment, so they give no metrics
    if not problems:
        e2e, notes = end_to_end(rounds, attempted, failed)
        print(f"{'metric':<16} {'value':>14} {'unit':<8} note")
        for (name, (value, unit)), note in zip(e2e.items(), notes):
            print(f"{name:<16} {value:>14.6g} {unit:<8} {note}")
        result["end_to_end"] = {k: v for k, (v, _) in e2e.items()}
        if tracer is None:
            metrics = e2e
        else:
            metrics, result["layer_table"] = layer_report(tracer, rounds)
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        metrics = {k: v for k, v in metrics.items() if k in declared}
        missing = [k for k, u in declared.items() if k not in metrics or metrics[k][1] != u]
        if missing:
            raise BenchError(f"BENCHMARK.json declares metrics this run cannot give: {missing}")

    for line in failures + problems:
        print(f"FAILED {line}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0

if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
