"""A fixed reference loop that measures how fast the host runs right now.

The host this benchmark was built on is shared, and its speed drifts:
identical jobs ran 38% slower in one set of ten runs than in a set twenty
minutes earlier, and up to 2x slower for seconds at a time. The loop below
shares no code with trajkit. It does what the DP kernels and the pair loop
spend their time on, interpreter-bound scalar updates over NumPy values. A
run times it in the benchmark process, just before and just after each
job's own process, so that nothing the job leaves behind can slow it, and
scales the run's median times by REFERENCE_S / (mean loop time over the
run). Each scaled time reads as seconds on a host that runs the loop in
REFERENCE_S. Rates are scaled the other way.
"""

from __future__ import annotations

import time

import numpy as np

#: The loop's median time on the baseline host, in a quiet period.
REFERENCE_S = 0.02

_CELLS = np.random.default_rng(0).random((160, 160))


def reference_time() -> float:
    """Wall seconds of one pass of the reference loop."""
    t0 = time.perf_counter()
    n, m = _CELLS.shape
    prev = np.full(m + 1, np.inf)
    prev[0] = 0.0
    for i in range(n):
        cur = np.full(m + 1, np.inf)
        for j in range(m):
            cur[j + 1] = _CELLS[i, j] + min(prev[j], prev[j + 1], cur[j])
        prev = cur
    return time.perf_counter() - t0
