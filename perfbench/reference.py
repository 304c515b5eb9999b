"""Host-speed reference for the benchmark's timings.

``reference_loop`` is fixed work that never calls dimlab, in dimlab's mix of
Python and small numpy calls. Timed next to an operation, it tells how fast
the host runs at that moment; the runner scales each timing by
``REF_S / time_reference()``.
"""

from __future__ import annotations

import time

import numpy as np

# seconds time_reference reports on an idle 2-vCPU Intel Xeon VM (Python
# 3.11, numpy 2.4); the unit of every normalised timing
REF_S = 0.02


def reference_loop(rounds: int = 1000) -> float:
    acc = 0.0
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    a = np.linspace(0.0, 1.0, 64)
    for i in range(rounds):
        b = a * (i % 7) + 1.0
        acc += float(b.max()) - float(np.sqrt(b).sum())
        table[(i % 97, i % 13)] = tuple(sorted((i * 7919 % 101, i % 17, i % 5)))
    return acc + len(table)


def time_reference() -> float:
    """Three times the median of three timed reference_loop calls.

    A burst that slows one call does not move the median of three.
    """
    took = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        took.append(time.perf_counter() - t0)
    return 3.0 * sorted(took)[1]
