"""The reference kernel: fixed work, independent of ssbrp, timed beside each solve.

On a shared host the same code runs up to 1.5 times slower for stretches
of seconds to minutes, as neighbours load the machine. Raw wall times of
``run()`` therefore differ by 20% and more between runs of one commit.
The benchmark times this kernel before and after every ``run()`` call and
reports solve times in units of the kernel's time. A slow stretch slows
both alike, so the ratio holds where the seconds do not.

``setup_s`` must stay in seconds, so it is scaled instead: set-up seconds
times ``QUIET_HOST_S`` over the kernel's time in the same process just after
the set-up. It reads as the set-up time on a host where one kernel pass takes
``QUIET_HOST_S``, about what it takes on the 2-core VM the benchmark was
defined on while that host is quiet.

The kernel mixes the two kinds of work ssbrp does: an interpreted loop
over dicts and integers (phase one is plain Python) and one HiGHS solve of
a fixed dense LP (phase two calls ``scipy.optimize.linprog``). It does not
import ssbrp, so no change to ssbrp changes the kernel's time.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import linprog

LOOP = 20_000
QUIET_HOST_S = 0.010
_rng = np.random.default_rng(0)
_A = _rng.random((60, 40))
_B = _A.sum(axis=1) / 2
_C = -_rng.random(40)


def reference_s() -> float:
    """Seconds one pass of the kernel takes."""
    t0 = perf_counter()
    table: dict[int, float] = {}
    total = 0
    for i in range(LOOP):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        total += i * i % 7
    result = linprog(_C, A_ub=_A, b_ub=_B, bounds=(0, 1), method="highs")
    elapsed = perf_counter() - t0
    if result.status != 0:
        raise RuntimeError(f"reference LP failed: {result.message}")
    return elapsed
