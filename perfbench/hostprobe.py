"""How fast the host is right now, from a fixed task that runs no program code.

The shared 2-vCPU host this benchmark was built on changed speed by
2.3-2.9x over tens of minutes: the same ``table1-detect`` sample took
3.3 s in one half hour and 1.5 s in the next, and ``import repro`` 0.8 s
and 0.4 s. A bound of at most 25 % cannot hold across such swings, so
right before every sample the orchestrator times this probe in fresh
processes of their own (one per core the workload keeps busy, the slowest
counting), and the end-to-end times of a run are reported in
reference-host seconds::

    reported = median(measured) * REFERENCE_S / median(probe_s)

The probe mixes the kinds of work the program does: interpreted Python
(imports), text parsing into lists of floats (``read_edge_list``, which a
slow host state hurt most: ~3.2x against ~2.4x for the rest) and NumPy
calls on small and medium arrays (the training batches, walks and
k-means). It imports nothing from the program, so no change to the
program can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["REFERENCE_S", "probe_s"]

#: About the probe's time in a fresh process on the reference host, the
#: 2-vCPU host at its fast state, where reported times are close to
#: measured ones.
REFERENCE_S = 0.038


def _task() -> float:
    rng = np.random.default_rng(0)
    table = rng.random((4096, 32))
    rows = rng.integers(0, table.shape[0], 40960)
    acc = 0.0
    for i in range(200000):  # interpreted Python
        acc += (i * i) % 7
    # Text formatted and parsed line by line, like an edge list being read.
    text = "\n".join(f"{i} {(i * 7919) % 20000} {i % 13}.5" for i in range(12500))
    parsed = [[float(t) for t in line.split()] for line in text.splitlines()]
    acc += float(np.asarray(parsed)[:, 1].sum())
    for start in range(0, rows.shape[0], 512):  # small-array NumPy calls
        batch = table[rows[start : start + 512]]
        scores = batch @ table[:8].T
        np.add.at(table, rows[start : start + 64], batch[:64] * 1e-9)
        acc += float(scores.sum())
    for start in range(0, rows.shape[0], 8192):  # medium-array NumPy calls
        acc += float(np.sort(table[rows[start : start + 8192]].ravel())[-1])
    return acc


def probe_s(repeats: int = 7) -> float:
    """Median of ``repeats`` timings of the fixed task, in seconds.

    One untimed run first warms caches and allocator. Single timings
    jitter by about 15 % on the shared host, and their fastest follows
    short bursts rather than the sustained speed a sample sees, so the
    probe takes the median.
    """
    _task()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    print(repr(probe_s()))
