"""A gauge of how fast the machine runs at the moment.

On a shared virtual machine the same code was seen to run up to 1.5x slower
for seconds to minutes at a time, with no steal time reported and with the
thread's CPU time slowing as much as its wall time. No estimator over one
run's wall times removes that when a slow spell spans the whole run. So the
benchmark times a fixed calibration kernel next to every interval it
measures, and reports the interval scaled by ``REFERENCE_S`` over the
kernel's time: the time the interval would have taken at the speed where
the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code, independent of the program: matrix
products of the shapes the default model's attention runs (tokens x width
into query, key and value, and width x width), the kind of work whose
slowdown in slow spells best followed the program's in measurements on
such a machine. A program that gets faster or slower moves the
scaled times by the same factor as the wall times. The wall times are
reported beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time at the reference speed: about its warm time alone on a
# 2-vCPU Haswell-class virtual machine. Readings taken between the
# program's calls run somewhat slower, so scaled times there read 10-40%
# below wall times; the constant only sets the scale
REFERENCE_S = 0.65e-3


class Gauge:
    """Times the calibration kernel and scales measured intervals by it.

    ``begin`` reads the gauge and starts the clock; each ``split`` ends a
    segment, reads the gauge again and starts the next segment. A segment
    is scaled by the mean of the readings on its two sides, and the
    kernel's own time falls between segments, outside every one of them.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._tokens = rng.standard_normal((512, 64))
        self._qkv = rng.standard_normal((64, 192))
        self._a = rng.standard_normal((16, 64))
        self._b = rng.standard_normal((64, 64))
        for _ in range(20):     # warm up before the first reading
            self._kernel()
        self._reading = 0.0
        self._start = 0.0

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(2):
            total += float((self._tokens @ self._qkv)[0, 0])
        for _ in range(30):
            total += float((self._a @ self._b)[0, 0])
        return total

    def _read(self) -> float:
        """The faster of two passes: the first pass also reloads the
        kernel's operands into cache, which the program's work between
        readings evicts, so the reading would depend on how much memory
        the program touched."""
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best

    def begin(self) -> None:
        self._reading = self._read()
        self._start = time.perf_counter()

    def split(self) -> tuple[float, float]:
        """End the current segment; its wall time and its time at the
        reference speed, in seconds."""
        wall = time.perf_counter() - self._start
        reading = self._read()
        scaled = wall * 2.0 * REFERENCE_S / (self._reading + reading)
        self._reading = reading
        self._start = time.perf_counter()
        return wall, scaled


class Meter:
    """Sums the segments of one measured interval."""

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.wall_s = 0.0
        self.scaled_s = 0.0
        gauge.begin()

    def split(self) -> tuple[float, float]:
        wall, scaled = self.gauge.split()
        self.wall_s += wall
        self.scaled_s += scaled
        return wall, scaled
