"""Host speed, measured next to every timed step.

The benchmark runs on a shared host.  Other tenants slow every CPU-bound
step by up to about 1.5x, in bursts that last tens of seconds: a whole
run can fall inside one, so taking more repetitions inside a run does not
average them out.  A fixed kernel that calls no program code runs before
every step and after the last one, and reports the host's slowdown: its
time over its time on an uncontended host.  Each step's time is divided
by the median slowdown around it.  A change to the program moves the
step times but not the kernel, so it shows in the scaled times in full.

Different code slows by different amounts under the same contention, so
each workload runs the kernels that imitate its own work.  Candidates
were timed between the steps of each workload across bursts, and kept
where their slowdown tracked the steps'.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Sequence

import numpy as np

_now = time.perf_counter

#: Steps on each side of a step whose kernels set its local slowdown;
#: the bursts last far longer than this window, while single kernels
#: jitter.
WINDOW = 2


def _dispatch_and_churn() -> None:
    """Small-array numpy dispatch and dict/tuple/str churn.

    Tracks the campaign cells, which spend their time in guest FP ops on
    small arrays (log-log slope 1.0; interpreter loops and whole-array
    numpy slowed about a third less).
    """
    a = np.linspace(1.0, 2.0, 256)
    b = np.linspace(2.0, 3.0, 256)
    for _ in range(300):
        x, y = np.broadcast_arrays(np.asarray(a, dtype=np.float64),
                                   np.asarray(b, dtype=np.float64))
        x = np.atleast_1d(x).ravel()
        y = np.atleast_1d(y).ravel()
        with np.errstate(all="ignore"):
            z = np.add(x, y)
        z.astype(np.float64).reshape(x.shape).view(np.uint64)
    table = {}
    for i in range(20_000):
        table[i] = (i, str(i))
    [v for v in table.values() if v[0] % 3]


def _loops_and_arrays() -> None:
    """Interpreter arithmetic loops and whole-array integer numpy.

    With the dispatch kernel, it tracks the model builds: trace synthesis
    and the core model loop per instruction, DTA on whole operand
    arrays.  Either kernel alone over- or under-corrected them.
    """
    total = 0
    for i in range(60_000):
        total += i * i
    x = np.arange(200_000, dtype=np.uint64)
    y = (x * np.uint64(2654435761)) ^ (x >> np.uint64(7))
    (y & np.uint64(0xFF)).sum()


#: kind -> (kernel, its time in ms on an uncontended 2-core x86 host).
KERNELS = {
    "dispatch": (_dispatch_and_churn, 8.5),
    "loops": (_loops_and_arrays, 5.0),
}


def slowdown(*kinds: str) -> float:
    """Run the named kernels once; their time over their uncontended time."""
    start = _now()
    for kind in kinds:
        KERNELS[kind][0]()
    elapsed_ms = (_now() - start) * 1000.0
    return elapsed_ms / sum(KERNELS[kind][1] for kind in kinds)


def scale_steps(steps_ms: Sequence[float],
                slowdowns: Sequence[float]) -> List[float]:
    """Each step divided by the host's median slowdown around it.

    ``slowdowns[i]`` was measured just before step ``i`` and the last one
    just after the last step, so there is one more slowdown than steps.
    """
    if len(slowdowns) != len(steps_ms) + 1:
        raise ValueError("need one kernel before each step and one after")
    return [ms / statistics.median(slowdowns[max(0, i - WINDOW):
                                             i + WINDOW + 2])
            for i, ms in enumerate(steps_ms)]
