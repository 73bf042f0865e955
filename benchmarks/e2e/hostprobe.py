"""Host-speed probe: a fixed pure-Python + numpy snippet, timed over and over.

Started by ``measure.HostSpeed``, one process pinned to each of (at most two)
CPUs, at a few percent duty.  Each line it appends is ``start duration`` in
seconds on the system-wide monotonic clock, so the benchmark can ask how fast
the host was during any interval of its own run.
"""

import os
import sys
import time

import numpy as np

PERIOD_S = 0.04


def snippet(matrix: np.ndarray) -> None:
    total = 0
    for i in range(6000):
        total += (i * i) % 7
    np.sort(np.tanh(matrix @ matrix.T / 64.0), axis=None)


def main(path: str, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    matrix = np.random.default_rng(0).random((64, 64))
    with open(path, "w", encoding="ascii") as out:
        while True:
            started = time.perf_counter()
            snippet(matrix)
            took = time.perf_counter() - started
            out.write(f"{started!r} {took!r}\n")
            out.flush()
            time.sleep(max(0.0, PERIOD_S - took))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
