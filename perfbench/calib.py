"""Calibration kernel shared by the set-up timing and the worker.

A fixed mix of the work poukit does (Fraction arithmetic, frozenset and
dict building, JSON encoding, small numpy lstsq) that calls no poukit code.
On a shared virtual machine the CPU speed drifts by 20-40% within a minute;
timing this kernel next to each measurement and scaling the measurement by
``CAL_REF_S`` over the kernel's time cancels most of that drift.  Scaled
times read as times on a machine where the kernel takes ``CAL_REF_S``.
"""

import json
import time
from fractions import Fraction

import numpy as np

CAL_REF_S = 0.002

_A = np.eye(5) + 0.1
_B = np.ones(5)


def calibrate():
    """Seconds for one run of the kernel (about 2 ms)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
    sets = {frozenset((i % 13, i % 7, i % 5)) for i in range(800)}
    json.dumps(sorted(map(sorted, sets)))
    for _ in range(25):
        np.linalg.lstsq(_A, _B, rcond=None)
    return time.perf_counter() - t0
