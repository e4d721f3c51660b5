"""A fixed probe of the host's speed, timed between the program's calls.

The host the benchmark was defined on is a shared virtual machine. Its speed
changed by up to 1.4 times between runs a few minutes apart, and all of a
run's calls slowed down together: across ten runs of one workload, the
per-run mean times of the sample, recover and convolve calls correlated at
0.83 to 0.99. The probe does the kinds of work the program does (parsing
and writing JSON, numpy row operations in a Python loop, a LAPACK
eigendecomposition) on fixed inputs made here, never through ``gsptk``.

The end-to-end times are divided by ``factor()``, the run's mean probe time
over ``REFERENCE_S``. They then read as seconds on a host running at the
speed it had when ``REFERENCE_S`` was measured.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

# Mean probe time on the machine in README.md ("Setting and machine"), over
# the runs that defined the benchmark.
REFERENCE_S = 0.012
INTERVAL_S = 0.25  # one probe for each such interval since the last probe
MAX_PROBES = 8  # at most this many probes in a row
N = 64


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((N, N)) + N * np.eye(N)  # no pivoting needed
        self.text = json.dumps({"values": rng.standard_normal((3000, 2)).tolist()})
        self.times: list[float] = []
        self._last = -math.inf

    def run(self) -> None:
        start = time.perf_counter()
        values = np.asarray(json.loads(self.text)["values"])
        json.dumps({"values": values[::-1].tolist()})
        m = self.matrix.copy()
        for i in range(N):
            m[i + 1 :] -= np.outer(m[i + 1 :, i] / m[i, i], m[i])
        np.linalg.eigvals(self.matrix)
        end = time.perf_counter()
        self.times.append(end - start)
        self._last = end

    def maybe(self) -> None:
        """Probe once for each ``INTERVAL_S`` since the last probe, so that
        the probes weight each part of the run by its length."""
        count = (time.perf_counter() - self._last) / INTERVAL_S
        for _ in range(int(min(count, MAX_PROBES))):
            self.run()

    def factor(self) -> float:
        return statistics.fmean(self.times) / REFERENCE_S
