"""Machine-speed calibration for the timed figures.

On a shared machine the speed of the cores drifts by up to 1.7x over minutes
as neighbours come and go, and the program's absolute times drift with it.
Two fixed kernels that do not touch zenodense are timed next to every stage;
a stage's time is scaled by REF / (kernel time around that stage). When the
cores slow down, program and kernel slow down together and the scaled time
stays put; when the program changes, the kernels do not, so the change shows
in full. Scaled figures are in reference-speed units: the time the stage
would take on a machine where the kernels take exactly REF seconds (this
machine at its typical speed). The raw times are kept next to them.

Kernel and program were timed alternately, 10 ms at a time, in processes
started minutes apart on a 2-vCPU Xeon VM: raw medians moved by
25-50% between processes, scaled medians by 0.6-3%. The benchmark's own
spreads, scaled and not, are in README.md.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Kernel times, in seconds, that define reference speed.
REF = {"numpy": 2.5e-3, "numpy.threaded": 4.5e-3, "python": 2.0e-3}
THREADS = len(os.sched_getaffinity(0))

_KEY = np.array([0x5EED, 0xBE7C], dtype=np.uint64)
_ROTATION = np.array([[math.cos(0.1), -math.sin(0.1)], [math.sin(0.1), math.cos(0.1)]])


def numpy_kernel() -> int:
    """Bulk Philox doubles and a vector compare: the shape of a tally chunk."""
    u = np.random.Generator(np.random.Philox(key=_KEY)).random((65536, 4))
    return int(np.count_nonzero(u[:, 1] < u[:, 0]))


def python_kernel() -> float:
    """An interpreter-bound loop over a 2-vector: the shape of an oracle cycle."""
    v = np.array([1.0, 0.0])
    acc = 0.0
    for i in range(1000):
        v = _ROTATION @ v
        acc += float(abs(v[1]) ** 2) + math.cos(i * 1e-3)
        v[1] = 0.0
    return acc


def threaded_numpy_kernel() -> int:
    """The numpy kernel on every core at once, from a fresh pool, as
    `protocol.simulate` fans its chunks out."""
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        return sum(pool.map(lambda _: numpy_kernel(), range(THREADS)))


KERNELS = {"numpy": numpy_kernel, "numpy.threaded": threaded_numpy_kernel,
           "python": python_kernel}


def measure(kind: str) -> dict[str, float]:
    """The time in seconds of the kernel that `factor(..., kind)` needs (both
    for "mixed"), the fastest of three runs, so that an interruption does not
    count."""
    out = {}
    for name in ("numpy", "python") if kind == "mixed" else (kind,):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            KERNELS[name]()
            times.append(time.perf_counter() - start)
        out[name] = min(times)
    return out


def factor(before: dict[str, float], after: dict[str, float], kind: str) -> float:
    """Scale for a stage timed between two calibrations.

    kind is a kernel name or "mixed" (the geometric mean of numpy and python).
    """
    if kind == "mixed":
        return math.sqrt(factor(before, after, "numpy") * factor(before, after, "python"))
    return REF[kind] / (0.5 * (before[kind] + after[kind]))
