"""Machine-speed calibration of the benchmark's end-to-end timings.

The benchmark runs on shared hosts whose speed drifts: the same fixed
pure-Python or numpy kernel can take 1.5 to 1.8 times longer for seconds or
minutes at a time, and each core drifts on its own. Every wall-clock time
moves with it, so two runs of the same code disagree by more than any change
worth measuring.

A fixed reference kernel (small symmetric eigen solves, Python float
arithmetic and interpreted matrix code: the mix pidcert itself runs) is
therefore timed four times just before and four times just after every
operation. An operation's latency is reported at nominal speed: its wall
time times ``REF_NOMINAL_S / median(those eight reference times)``. The
kernel does not touch pidcert, so a change to pidcert moves the calibrated
latency as it moves the wall time at a fixed machine speed. The kernel is
never run inside an operation: there it would read the caches the operation
left behind, so its time would depend on the operation's length and
footprint.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from array import array

import numpy as np

# time of one reference_kernel() call that defines the nominal machine speed
REF_NOMINAL_S = 1.5e-4
SAMPLES_PER_SIDE = 4

_REF_REPS = 6
_REF_MATRIX = np.array(
    [[4.0, 1.0, 0.5, 0.0, 0.2, 0.1],
     [1.0, 3.0, 0.3, 0.4, 0.0, 0.2],
     [0.5, 0.3, 2.0, 0.1, 0.6, 0.0],
     [0.0, 0.4, 0.1, 5.0, 0.3, 0.7],
     [0.2, 0.0, 0.6, 0.3, 1.0, 0.2],
     [0.1, 0.2, 0.0, 0.7, 0.2, 6.0]]
)
_REF_ROWS = _REF_MATRIX.tolist()
_REF_CONFIG = {"kind": "PID", "gains": {"kp": 1.5, "ki": 0.3, "kd": 2.0}, "x0": [0.1, 0.2, 0.3, 0.4]}


def _jacobi_sweeps(rows: list, sweeps: int) -> float:
    """Cyclic Jacobi rotations on a nested-list symmetric matrix, in pure Python."""
    a = [r[:] for r in rows]
    n = len(a)
    for _ in range(sweeps):
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-12:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p], a[k][q] = c * akp - s * akq, s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k], a[q][k] = c * apk - s * aqk, s * apk + c * aqk
    return a[0][0]


def reference_kernel() -> float:
    """Seconds taken by one fixed unit of pidcert-like work.

    Half small numpy eigen solves with Python float arithmetic, half
    interpreted code (Jacobi rotations on nested lists and a JSON round
    trip). On its own the first half slows down a little less than pidcert
    does when the host slows down, and the second a little more. The garbage
    collector is off while it runs: a collection would time the heap that
    the last operation left behind, not the machine.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(_REF_REPS):
            acc += float(np.linalg.eigvalsh(_REF_MATRIX)[0])
            for j in range(40):
                acc += j * 0.5
        acc += _jacobi_sweeps(_REF_ROWS, 2)
        acc += len(json.loads(json.dumps(_REF_CONFIG)))
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


class Speedometer:
    """Reference-kernel samples taken over a run."""

    def __init__(self):
        self.ref = array("d")
        for _ in range(50):  # warm the kernel's code paths before any sample counts
            reference_kernel()

    def sample(self) -> None:
        self.ref.append(reference_kernel())

    def timed(self, call):
        """Run ``call()``: (result, exception or None, wall seconds, calibrated seconds)."""
        first = len(self.ref)
        for _ in range(SAMPLES_PER_SIDE):
            self.sample()
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # the caller counts it as a failed op
            result, error = None, exc
        wall = time.perf_counter() - t0
        for _ in range(SAMPLES_PER_SIDE):
            self.sample()
        return result, error, wall, wall * self.factor(first)

    def factor(self, first: int) -> float:
        """Nominal over measured reference time, from sample number ``first`` on.

        Multiplying a wall time by it gives the time at nominal speed. The
        median, because a sample now and then is preempted and reads many
        times too long.
        """
        return REF_NOMINAL_S / statistics.median(self.ref[first:])
