"""Sample bookkeeping: percentiles, time slices, and host-speed normalisation."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SLICES = 5

#: The CPUs this process was given, read before ``pin_load_generator``.
CPUS = sorted(os.sched_getaffinity(0))
#: The daemon's threads stay on the first CPU and this process's (the load
#: generator, and the in-process stacks) on the last.  Left to the scheduler, a
#: run's threads settled either on one CPU or across two, which a release's
#: half-dozen thread hand-offs read as 0.8 or 1.35 ms, for runs on end.
SERVER_CPU, LOADGEN_CPU = CPUS[0], CPUS[-1]


def pin_load_generator() -> None:
    os.sched_setaffinity(0, {LOADGEN_CPU})



def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of unsorted values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median, as the acceptance rule takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


class HostSpeed:
    """How fast the host ran, interval by interval, from ``hostprobe.py``.

    The sandboxes this benchmark runs in slow down and speed up by tens of
    percent for seconds to minutes at a time (noisy neighbours), which would
    drown any regression bound.  Every duration the benchmark reports is
    therefore multiplied by ``factor(start, end)``: the probe's speed during
    that interval over ``REFERENCE_PER_S``.  A duration then reads as it would
    on a host on which the probe snippet runs ``REFERENCE_PER_S`` times a
    second; the program under test cannot move the probe, so a slower program
    still reads slower.
    """

    REFERENCE_PER_S = 1500.0
    MAX_PROBES = 2
    #: Fewest samples an interval must hold to be judged by its own samples.
    FEWEST = 5
    START_TIMEOUT_S = 30.0

    def __init__(self, directory: Path) -> None:
        self._paths: List[Path] = []
        self._procs: List[subprocess.Popen] = []
        for cpu in CPUS[: self.MAX_PROBES]:
            path = directory / f"hostprobe-{cpu}.txt"
            self._paths.append(path)
            self._procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("hostprobe.py")), str(path), str(cpu)]
            ))
        # Nothing is timed before every probe has its first few samples.
        deadline = time.monotonic() + self.START_TIMEOUT_S
        while any(len(self._samples(path)) < self.FEWEST for path in self._paths):
            if time.monotonic() > deadline or any(p.poll() is not None for p in self._procs):
                self.stop()
                raise RuntimeError("the host-speed probes did not start")
            time.sleep(0.05)

    @staticmethod
    def _samples(path: Path) -> List[Tuple[float, float]]:
        """``(start, seconds taken)`` of every complete line a probe has written."""
        if not path.exists():
            return []
        with open(path, "r", encoding="ascii") as handle:
            rows = [line.split() for line in handle if line.endswith("\n")]
        return [(float(row[0]), float(row[1])) for row in rows if len(row) == 2]

    def per_second(self, start: float, end: float) -> float:
        """Probe snippets per second during ``[start, end]``, mean over probes.

        Each probe's speed is one over its median snippet time in the
        interval (over all its samples when the interval holds too few).
        """
        speeds = []
        for path in self._paths:
            samples = self._samples(path)
            inside = [took for at, took in samples if start <= at <= end]
            chosen = inside if len(inside) >= self.FEWEST else [took for _at, took in samples]
            speeds.append(1.0 / statistics.median(chosen))
        return sum(speeds) / len(speeds)

    def factor(self, start: float, end: float) -> float:
        return self.per_second(start, end) / self.REFERENCE_PER_S

    def stop(self) -> None:
        for proc in self._procs:
            proc.kill()
            proc.wait()
        self._procs = []


class Samples:
    """``(completion time, family, ms)`` triples of one client thread."""

    def __init__(self) -> None:
        self.rows: List[Tuple[float, str, float]] = []
        self.ops: List[float] = []

    def add(self, done: float, family: str, ms: float) -> None:
        self.rows.append((done, family, ms))


class Window:
    """The measured window, cut into ``SLICES`` equal slices.

    Every latency is scaled by the host-speed factor of its slice, and every
    rate is taken over the slice's scaled width.
    """

    def __init__(
        self, start: float, seconds: float, samples: Sequence[Samples], host: HostSpeed
    ) -> None:
        self.start = start
        self._width = seconds / SLICES
        self.factors = [
            host.factor(start + index * self._width, start + (index + 1) * self._width)
            for index in range(SLICES)
        ]
        self._families: Dict[str, List[List[float]]] = {}
        self.op_counts = [0] * SLICES
        for client in samples:
            for done in client.ops:
                index = self._slice(done)
                if index is not None:
                    self.op_counts[index] += 1
            for done, family, ms in client.rows:
                index = self._slice(done)
                if index is not None:
                    self._families.setdefault(family, [[] for _ in range(SLICES)])[
                        index
                    ].append(ms * self.factors[index])

    def _slice(self, done: float) -> Optional[int]:
        index = int((done - self.start) / self._width)
        return index if 0 <= index < SLICES else None

    def in_order(self, client: Samples, prefix: str) -> List[float]:
        """One client's scaled samples of the families ``prefix*``, as they came."""
        return [
            ms * self.factors[self._slice(done)]
            for done, family, ms in client.rows
            if family.startswith(prefix) and self._slice(done) is not None
        ]

    def slices(self, *families: str) -> List[List[float]]:
        """Per-slice samples of one family, or of several merged."""
        merged: List[List[float]] = [[] for _ in range(SLICES)]
        for family in families:
            for index, values in enumerate(self._families.get(family, [])):
                merged[index].extend(values)
        return merged

    def pooled(self, *families: str) -> List[float]:
        return [ms for values in self.slices(*families) for ms in values]

    def families(self, prefix: str) -> List[str]:
        return [name for name in self._families if name.startswith(prefix)]

    def rate_per_slice(self, *families: str) -> List[float]:
        """Completions per second in each slice (all ops when no family given)."""
        counts = (
            [len(values) for values in self.slices(*families)] if families else self.op_counts
        )
        return [count / (self._width * factor) for count, factor in zip(counts, self.factors)]

    def p50_per_slice(self, *families: str) -> List[float]:
        return [percentile(values, 50.0) for values in self.slices(*families) if values]
