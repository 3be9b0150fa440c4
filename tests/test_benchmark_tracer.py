"""The benchmark's span tracer still wraps what the training path calls.

`perfbench/spans.py` patches functions and methods of centerlab by name. A
refactor of `src/` that drops or bypasses one of them breaks `--trace 1`
runs; this test fails first. It only reads `perfbench/`.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCRIPT = textwrap.dedent("""
    import json, sys, tempfile
    sys.path.insert(0, sys.argv[1])
    import centerlab
    import spans
    from centerlab import harness

    tracer = spans.Tracer()
    spans.install(tracer, centerlab)
    trainers = []
    with tempfile.TemporaryDirectory() as out:
        for kind in harness._OBJECTIVES:
            cfg = harness.ExperimentConfig(
                name=kind,
                dataset=harness.DatasetSpec(kind="blobs", n_per_class=10),
                loss=harness.LossConfig(kind=kind),
                optimizer=harness.OptimizerSpec(epochs=1, batch_size=15),
                num_seeds=1, record_wall_time=False)
            trainers += harness.run_experiment(cfg, out).trainers.values()
    names = [tracer.names[n] for n in tracer.name]
    # what the runs trained (one epoch each) beside what the tracer counted
    totals = {"rows": sum(t.augmented.n for t in trainers), "pairs": tracer.pairs,
              "steps": sum(t.state.step for t in trainers),
              "traced_steps": names.count("harness.step")}
    # run label -> [steps, steps with a losses.loss child, steps with a
    # layers.forward child]
    steps = {}
    parents = {child: {tracer.parent[i] for i, n in enumerate(names) if n == child}
               for child in ("losses.loss", "layers.forward")}
    for i, n in enumerate(names):
        if n == "harness.step":
            counts = steps.setdefault(tracer.runs[tracer.run[i]], [0, 0, 0])
            counts[0] += 1
            counts[1] += i in parents["losses.loss"]
            counts[2] += i in parents["layers.forward"]
    print(json.dumps(totals))
    print(json.dumps(steps))
    """)


def test_tracer_records_a_loss_span_per_step_for_every_kind():
    # and a student forward span: a trainer that bypassed
    # EncoderStack.forward would leave layers.forward_s reading zero
    from centerlab.harness import _OBJECTIVES

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(PERFBENCH)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    totals, steps = map(json.loads, out.stdout.splitlines()[-2:])
    # 30 blob points in batches of 15: two steps per (kind, seed 0) run
    assert steps == {f"{kind}/0": [2, 2, 2] for kind in _OBJECTIVES}
    # perfbench checks these counts only in --trace 1 runs: the trainer must
    # call Trainer.train_step(idx, x) once per step, with len(idx) the
    # batch's rows
    assert totals["pairs"] == totals["rows"] == 30 * len(_OBJECTIVES)
    assert totals["traced_steps"] == totals["steps"] == 2 * len(_OBJECTIVES)
