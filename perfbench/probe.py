"""Host-speed probe: a fixed computation timed between the epochs it rescales.

Other tenants of a shared host can slow a run down by up to 2x, in spells
from under a second to minutes. The probe is a fixed mix of small numpy
operations and interpreter work, shaped like one step of the collapse
workloads, so it slows down with the host in about the same proportion as
centerlab does. Each timed segment is multiplied by REFERENCE_S over the
probe time around it: the end-to-end timings then read as seconds on a host
where the probe takes REFERENCE_S, which is about the idle speed of the
2-vCPU Xeon host the baseline was recorded on.

The probe never calls centerlab, but it shares the process and the CPUs
with it, and the rescaling reads any slowdown of the probe as host
slowness. Two kinds of program change can therefore be partly rescaled
away: one that makes the probe slower through shared state (say, cache
pollution), and one that keeps CPUs busy while the probe runs (threads, a
process pool, or seeds run in parallel), which shrinks the factor and with
it the speedup. Judge such changes on the raw wall times as well: the
`run_s` note and the result file give each round's wall time, and the
traced run reports `trace.wall_s` and `trace.untraced_wall_s`.

Changing the probe, REFERENCE_S or WINDOW rescales every end-to-end timing,
so it is a change to the benchmark.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 165e-6
WINDOW = 10            # probes on each side of a segment in its rolling median
_REPS = 8
_rng = np.random.default_rng(0)
_X = _rng.standard_normal((50, 3))
_W = _rng.standard_normal((3, 8)) * 0.3


def probe() -> float:
    """Seconds the fixed reference computation takes right now."""
    start = time.perf_counter()
    for _ in range(_REPS):
        h = np.tanh(_X @ _W)
        z = h / np.sqrt((h * h).sum(axis=1, keepdims=True) + 1e-12)
        _X.T @ (z - z.mean(axis=0, keepdims=True))
        [i for i in range(20)]
    return time.perf_counter() - start


def speed_factors(probes: list[float]) -> list[float]:
    """For each probe, REFERENCE_S over the median of the probes around it."""
    return [REFERENCE_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(len(probes))]
