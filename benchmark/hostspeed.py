"""Host-speed calibration for the timed metrics.

On a shared VM the processor speed drifts by up to 2x over seconds to
minutes for identical work, and that drift, not the program, would set the
spread between runs.  A fixed kernel of interpreter loops and small-array
numpy calls, the same mix as the CLI's hot paths, is timed next to the
measured work; it also round-trips a nested document through JSON and
deepcopy, as the CLI does with configs and reports.  Each measured time is multiplied by ``REF_S`` over the
kernel's time around it, which gives the time the work would take on a
host where the kernel takes ``REF_S``.  The kernel is the benchmark's own
code, so a change to the program does not move it.
"""

import copy
import json
import time

import numpy as np

# about the kernel's median time on the host where the benchmark was tuned
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4)
REF_S = 0.007
REPEATS = 3
_DOC = {"rows": [{f"k{i}": [float(i), "value", {"n": i}] for i in range(40)}
                 for _ in range(10)]}


def _kernel():
    s = 0
    for i in range(25_000):
        s += (i * 7) % 13
    a = np.arange(200.0)
    for _ in range(250):
        a = np.sqrt(a * a + 1.0) - 0.5
    s += len(copy.deepcopy(json.loads(json.dumps(_DOC)))["rows"])
    return s + float(a[0])


def kernel_seconds():
    """Median time of the kernel over a few repeats."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[REPEATS // 2]


def scale(*kernel_s):
    """Factor that takes a time measured where the kernel took ``kernel_s``
    (the mean of the given samples) to the reference host speed."""
    return REF_S * len(kernel_s) / sum(kernel_s)
