"""In-memory span tracing of centerlab, installed from the benchmark's side.

`install` replaces public functions and methods of the imported centerlab
modules with wrappers that record one span per call: name, start, end,
parent span and the (variant, seed) run it belongs to. Nothing in `src/`
changes; the harness imports some functions by name, so those are patched
on `centerlab.harness`, the place the training loop looks them up.

A layer's self time is its spans' durations minus the time covered by their
child spans. The spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

# (per-layer metric, span name, the end-to-end metric it should move and where)
LAYER_TIMES = (
    ("autodiff.backward_s", "autodiff.backward",
     "epoch_ms_p50, pairs_per_s on collapse-mini and objective-catalog; little on collapse-full"),
    ("losses.loss_s", "losses.loss",
     "epoch_ms_p50 on objective-catalog; about 3% on the collapse workloads"),
    ("losses.sinkhorn_s", "losses.sinkhorn", "objective-catalog only"),
    ("layers.forward_s", "layers.forward",
     "epoch_ms_p50 on collapse-mini and objective-catalog"),
    ("layers.forward_array_s", "layers.forward_array", "epoch_ms_p50 on objective-catalog"),
    ("layers.sgd_s", "layers.sgd", "pairs_per_s on collapse-mini"),
    ("layers.ema_s", "layers.ema", "objective-catalog only"),
    ("layers.checkpoint_s", "layers.checkpoint", "run_s"),
    ("data.batches_s", "data.batches", "collapse-mini"),
    ("data.generate_s", "data.generate", "setup_s"),
    ("diagnostics.verdict_s", "diagnostics.verdict", "epoch_ms_p50 on collapse-full"),
    ("diagnostics.knn_s", "diagnostics.knn",
     "epoch_ms_p90 and run_s on objective-catalog; zero on both collapse workloads"),
    ("harness.step_self_s", "harness.step",
     "pairs_per_s on collapse-full, collapse-mini and objective-catalog"),
    ("harness.loop_self_s", "harness.loop", "run_s on collapse-full"),
    ("harness.init_self_s", "harness.init", "setup_s"),
)
LAYER_COUNTS = (
    ("autodiff.nodes_per_step", "same as autodiff.backward_s; repeats exactly"),
    ("diagnostics.knn_calls", "zero on both collapse workloads"),
    ("harness.steps", "denominator"),
    ("harness.pairs", "denominator"),
    ("harness.ticks", "denominator"),
)
# spans of the benchmark's own work inside the run: no layer of centerlab
COUNT_SPAN = "trace.count"        # graph node counting before backward
PROBE_SPAN = "bench.probe"        # host-speed probe (probe.py)

_LOSS_FUNCTIONS = ("invariance_loss", "triplet_loss", "infonce_loss", "simsiam_loss",
                   "byol_loss", "dino_loss", "swav_loss", "barlow_twins_loss",
                   "simple_objective")


def count_nodes(loss) -> int:
    """Graph nodes `backward` visits: the loss plus every requires_grad node
    reachable from it through parent links."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self.runs: list[str] = [""]
        self._ids: dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._run = 0
        self.nodes = 0
        self.pairs = 0
        self.ticks = 0

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def set_run(self, label: str) -> None:
        self.runs.append(label)
        self._run = len(self.runs) - 1

    def begin(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._open[-1] if self._open else -1)
        self.name.append(nid)
        self.run.append(self._run)
        self.end.append(0.0)
        self._open.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        nid = self._intern(name)

        def traced(*args, **kwargs):
            sid = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(sid)

        return traced

    # -- summaries ---------------------------------------------------------
    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[float, int]]:
        """Span name -> (summed self time in seconds, span count) over the
        spans lo..hi-1, which must hold the parent of each span among them."""
        hi = len(self.start) if hi is None else hi
        child = [0.0] * (hi - lo)
        parent, start, end = self.parent, self.start, self.end
        for i in range(lo, hi):
            if parent[i] >= 0:
                child[parent[i] - lo] += end[i] - start[i]
        totals = [0.0] * len(self.names)
        counts = [0] * len(self.names)
        for i in range(lo, hi):
            nid = self.name[i]
            totals[nid] += end[i] - start[i] - child[i - lo]
            counts[nid] += 1
        return {name: (totals[i], counts[i]) for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            fh.write("span,parent,name,run,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.names[self.name[i]]},"
                         f"{self.runs[self.run[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f}\n")


def install(tracer: Tracer, centerlab) -> None:
    """Wrap the entry points of every centerlab module the training path uses.

    `centerlab` is a freshly imported package; the benchmark re-imports it
    every round, so nothing needs restoring.
    """
    harness, losses, layers, data = (centerlab.harness, centerlab.losses,
                                     centerlab.layers, centerlab.data)

    def patch(owner, attr, name):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    for fn in _LOSS_FUNCTIONS:
        patch(losses, fn, "losses.loss")
    patch(harness, "batch_norm_cols", "losses.loss")
    patch(losses, "sinkhorn_knopp", "losses.sinkhorn")
    patch(layers.EncoderStack, "forward", "layers.forward")
    patch(layers.EncoderStack, "forward_array", "layers.forward_array")
    patch(harness, "sgd_step", "layers.sgd")
    patch(layers.EmaTwin, "update", "layers.ema")
    patch(harness, "save_checkpoint", "layers.checkpoint")
    patch(data.BatchSampler, "epoch_batches", "data.batches")
    for fn in ("gen_blobs", "gen_moons", "gen_gaussian_points"):
        patch(data, fn, "data.generate")
    patch(harness, "augment", "data.generate")
    patch(harness, "collapse_verdict", "diagnostics.verdict")
    patch(harness, "estimate_center", "diagnostics.verdict")
    patch(harness, "knn_eval", "diagnostics.knn")

    traced_backward = tracer.wrap("autodiff.backward", harness.backward)
    count_id = tracer._intern(COUNT_SPAN)

    def backward(loss):
        sid = tracer.begin(count_id)
        tracer.nodes += count_nodes(loss)
        tracer.finish(sid)
        return traced_backward(loss)

    harness.backward = backward

    traced_step = tracer.wrap("harness.step", harness.Trainer.train_step)

    def train_step(self, idx, rng):
        tracer.pairs += len(idx)
        return traced_step(self, idx, rng)

    harness.Trainer.train_step = train_step

    traced_init = tracer.wrap("harness.init", harness.Trainer.__init__)

    def init(self, cfg, seed):
        tracer.set_run(f"{cfg.name}/{seed}")
        traced_init(self, cfg, seed)

    harness.Trainer.__init__ = init


def layer_metrics(tracer: Tracer, traced: list) -> tuple[dict, list]:
    """Per-layer values averaged over the `traced` rounds, and table rows.

    Each round's self times are rescaled by the round's host-speed factor
    (run.Round.speed_factor), so they are in the same reference-host seconds
    as its rescaled time; shares are taken of the mean rescaled round time.
    """
    selfs: dict[str, tuple[float, int]] = {}
    for r in traced:
        for name, (seconds, calls) in tracer.self_times(*r.spans).items():
            total, count = selfs.get(name, (0.0, 0))
            selfs[name] = (total + seconds * r.speed_factor, count + calls)
    rounds = len(traced)
    run_s = sum(r.rescaled_s for r in traced) / rounds
    values: dict[str, tuple[float, str]] = {}
    rows = []
    for metric, span, moves in LAYER_TIMES:
        total, calls = selfs.get(span, (0.0, 0))
        per_round = total / rounds
        share = per_round / run_s
        values[metric] = (per_round, "s")
        values[metric[:-2] + "_share"] = (100.0 * share, "%")
        rows.append((metric, per_round, 100.0 * share, calls // rounds, moves))
    for span, what in ((COUNT_SPAN, "tracing overhead: node counting before backward"),
                       (PROBE_SPAN, "benchmark: host-speed probe after each tick")):
        total, calls = selfs.get(span, (0.0, 0))
        rows.append((f"({span}_s)", total / rounds, 100.0 * total / rounds / run_s,
                     calls // rounds, what))
    steps = selfs.get("harness.step", (0.0, 0))[1]
    counts = {
        "autodiff.nodes_per_step": tracer.nodes / steps if steps else 0.0,
        "diagnostics.knn_calls": selfs.get("diagnostics.knn", (0.0, 0))[1] / rounds,
        "harness.steps": steps / rounds,
        "harness.pairs": tracer.pairs / rounds,
        "harness.ticks": tracer.ticks / rounds,
    }
    for metric, moves in LAYER_COUNTS:
        values[metric] = (counts[metric], "count")
        rows.append((metric, counts[metric], None, None, moves))
    return values, rows
