"""Machine-speed calibration for the end-to-end timings.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes, because other tenants load its sibling threads.  Timing
only the workload, the median of ten runs moved by more than the bounds
allow.  So every timed stretch is bracketed by a fixed calibration kernel
that does not touch pptalgebra, and its wall time is scaled by
ref_s / (kernel time at its two ends): the result is in seconds as they
would pass on a machine where the kernel takes ref_s.  A change to the
package moves these seconds exactly as it moves wall time; a change in the
machine's speed moves them far less.

Two kernels, for two kinds of cost: CPU, a little bytecode, small-object and
big-integer work, for the in-process workloads; PROCESS, the start-up of a
bare interpreter, for anything timed as a whole process (cli requests and
setup_s), whose cost is mostly exec, mapping and imports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from proc import child_env, run_python


def cpu_kernel() -> float:
    t0 = time.perf_counter()
    acc = Fraction(0)
    x = 7**700
    seen = {}
    for i in range(1, 600):
        acc += Fraction(i, i + 1)
        seen[i] = (x * i) % 1_000_003
    return time.perf_counter() - t0


def process_kernel() -> float:
    return run_python(["-c", "pass"], child_env())[0]


@dataclass(frozen=True)
class Calibration:
    kernel: Callable[[], float]
    ref_s: float  # the kernel's median wall time on a 2-vCPU x86-64 VM, CPython 3.11
    min_segment_s: float  # ticks closer together than this are ignored

    def scaled(self, wall: float, before: float, after: float) -> float:
        return wall * self.ref_s * 2 / (before + after)


CPU = Calibration(cpu_kernel, 0.0025, 0.1)
PROCESS = Calibration(process_kernel, 0.07, 0.5)


class Clock:
    """Times one pass as segments between ticks, each scaled by the kernel at its ends.

    Kernel time is excluded from the pass.  A workload calls tick() wherever
    it may be paused; a tick less than min_segment_s after the last segment
    began does nothing.
    """

    def __init__(self, cal: Calibration) -> None:
        self.cal = cal
        self.wall = 0.0
        self.seconds = 0.0  # calibrated
        self._kernel = cal.kernel()
        self._begun = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._begun >= self.cal.min_segment_s:
            self._close(now)

    def stop(self) -> None:
        self._close(time.perf_counter())

    def _close(self, now: float) -> None:
        segment = now - self._begun
        k = self.cal.kernel()
        self.wall += segment
        self.seconds += self.cal.scaled(segment, self._kernel, k)
        self._kernel = k
        self._begun = time.perf_counter()
