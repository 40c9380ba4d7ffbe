"""Wall time converted to reference-machine time with an interleaved calibration.

The machines this benchmark runs on are shared, and their speed drifts.
Identical `train` calls in one process ranged from 0.79 to 1.43 s within
200 s, with no steal time recorded. Across seeds, the interquartile range of
a wall-clock throughput median was 15-28% of the median. That is too wide
for a regression gate.

A fixed calibration kernel, timed right after every operation, slows down
with the machine. An operation's wall time is divided by the kernel's
slowdown around it, the mean of the kernel runs just before and just after.
The kernel does no flowids work, so no change to the package moves it. It
has three segments, each timed on its own, one for each kind of work the
workloads do:

- "python": CSV parsing and float conversion in the interpreter, like ingest;
- "numpy": small numpy ops with per-call overhead, like a batch-16 step;
- "blas": a 512-row GEMM, like inference.

Contention does not slow the three kinds alike, so each operation names the
segments that resemble its work (its mix). In a 150 s run on a busy
machine, this cut the spread of per-window medians:

- the ingest-bound FNN eval fell from 43% to 6% with the "python" segment
  alone;
- training fell from 23% to 4%, and the transformer eval from 15% to 3%,
  with all three segments.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

import numpy as np

# Each segment's time in seconds on the reference machine (2-core Intel Xeon
# at 2.0 GHz, Python 3.11.7, numpy 2.4.6, one BLAS thread) in its fast state.
# Normalized figures therefore read as wall-clock figures on that machine.
REFERENCE_S = {"python": 0.0058, "numpy": 0.0060, "blas": 0.0045}

ALL = {"python": 1.0, "numpy": 1.0, "blas": 1.0}
PYTHON = {"python": 1.0}


class Clock:
    """Converts wall seconds to reference seconds using the calibration kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(1000.0, 300.0, size=(700, 13))
        self._csv = "\n".join(
            [",".join(f"c{j}" for j in range(13))] + [",".join(repr(float(v)) for v in row) for row in rows]
        )
        self._tokens = rng.normal(size=(16, 13, 32))
        self._weight = rng.normal(size=(32, 32))
        self._batch = rng.normal(size=(512 * 13, 32))
        self._wide = rng.normal(size=(32, 128))
        self.calibrations: list[dict[str, float]] = []
        self._previous = self.calibrate()

    def calibrate(self) -> dict[str, float]:
        """Run the kernel once; return each segment's wall time."""
        times = {}
        start = perf_counter()
        for row in csv.DictReader(io.StringIO(self._csv)):
            for cell in row.values():
                float(cell)
        times["python"] = perf_counter() - start
        start = perf_counter()
        for _ in range(300):
            x = self._tokens @ self._weight
            x = np.maximum(x + 1.0, 0.0) * 0.5
        times["numpy"] = perf_counter() - start
        start = perf_counter()
        for _ in range(2):
            x = self._batch @ self._wide
        times["blas"] = perf_counter() - start
        self.calibrations.append(times)
        return times

    def restart(self) -> None:
        """Calibrate afresh, before an operation that follows untimed work."""
        self._previous = self.calibrate()

    def normalize(self, elapsed: float, mix: dict[str, float] = ALL) -> float:
        """Reference seconds for `elapsed` wall seconds that have just ended.

        The kernel runs once more. The slowdown is the mix-weighted mean,
        over segments, of this run's and the previous run's time over the
        segment's reference time.
        """
        before = self._previous
        after = self._previous = self.calibrate()
        slowdown = sum(
            weight * (before[name] + after[name]) / (2.0 * REFERENCE_S[name])
            for name, weight in mix.items()
        ) / sum(mix.values())
        return elapsed / slowdown
