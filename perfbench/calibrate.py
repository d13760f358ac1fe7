"""A fixed piece of Python and small-matrix numpy work that gauges machine speed.

On the shared 2-core machine this benchmark was built on, the CPU time of one
fixed rlmdual ``dynamics`` call ranged from 0.13 s to 0.24 s between 2-second
blocks of a 90 s loop, while its ratio to a probe of this kind run after each
call stayed between 31.7 and 39.2.  Operation and import times are therefore
reported as CPU time scaled by PROBE_REF_S / probe time: seconds at the probe
speed of an uncontended core.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The probe's CPU time on an uncontended core of the reference machine (its
# 10th percentile over 3000 calls was 4.0 ms, its minimum 3.8 ms).
PROBE_REF_S = 0.004


def probe() -> float:
    """CPU seconds of the fixed work: 800 steps of 4x4 complex products and libm calls."""
    t0 = time.process_time()
    a = np.full((4, 4), 0.05 + 0.02j)
    eye = np.eye(4)
    acc = 0.0
    for i in range(800):
        a = (a @ a) * 0.2 + eye * 0.1
        acc += math.sin(i) * math.exp(-1e-3 * i)
    return time.process_time() - t0
