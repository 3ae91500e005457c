"""How fast the machine runs at the moment a call is timed.

On a shared host the CPU speed a process gets changes by up to 1.5x within
seconds, as neighbours come and go; a bare interpreter loop shows it as
plainly as seqcontest does, and no clock the process can read (wall, CPU or
steal time) tells it apart. So every end-to-end timing is paired with
readings of a fixed piece of work that uses no seqcontest code, taken right
before and after it, and reported at reference speed: the raw time times
the work's reference time over the mean reading. On a host where the work
takes its reference time the two agree. A change to the package cannot move
the gauge, so it moves the scaled time exactly as much as the raw one. A
reading taken less than ``REUSE_S`` before a call, with no timed call since,
serves as that call's reading before, so back-to-back calls share readings.

Two gauges, because the host's slowdowns do not hit all work alike:

* ``in_process()`` times a kernel that mixes the kinds of work the package
  does in process: interpreter loops, object churn, exact big-integer
  polynomial arithmetic and small numpy calls. It scales the in-process
  calls of ``power_study`` and ``design_sweep``.
* ``fresh_process()`` times a fresh interpreter that imports numpy: process
  start and module loading, which is what a CLI call or a bare
  ``import seqcontest`` mostly is. It scales CLI and setup processes.

On 2-vCPU Xeon VMs this cut the spread of median solve-process times over
12-call windows from 19% of the median (raw) to 4% (one fresh-process
reading before each call), against 6% with the in-process kernel.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Times (seconds) at reference speed: the fast end of a 2-vCPU Intel Xeon
# VM.
KERNEL_REFERENCE_S = 0.0015
PROCESS_REFERENCE_S = 0.165
REUSE_S = 1.0

_XS = np.linspace(0.0, 1.0, 257)
_COEFFS = np.arange(1.0, 9.0)


def _kernel() -> None:
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    table: dict[int, float] = {}
    for i in range(1600):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
    sorted(table.items(), key=lambda kv: kv[1])
    poly = [1]
    for _ in range(30):
        poly = [3 * a - b for a, b in zip(poly + [0], [0] + poly)]
    for _ in range(60):
        vals = np.polynomial.polynomial.polyval(_XS, _COEFFS)
        np.nonzero(vals[:-1] * vals[1:] < 0)


def _import_numpy() -> None:
    # Captured output makes run() wait on the pipes; a bare wait with a
    # timeout polls for the exit in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=60)


class Gauge:
    """Readings of one fixed piece of work, and times scaled by them."""

    def __init__(self, work, reference_s: float, repeats: int):
        self.work = work
        self.reference_s = reference_s
        self.repeats = repeats
        self.readings: list[float] = []
        self._fresh: tuple[float, float] | None = None  # (taken at, reading)

    def read(self) -> float:
        """Time the work now: the fastest of ``repeats`` runs, so one
        interrupt does not count."""
        best = float("inf")
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        self.readings.append(best)
        self._fresh = (time.perf_counter(), best)
        return best

    def scale(self, before: float, after: float) -> float:
        """Reference seconds per raw second, given the readings on either
        side of a call."""
        return self.reference_s * 2.0 / (before + after)

    def time(self, fn):
        """Call ``fn()`` between two readings; return its result, its raw
        seconds and its seconds at reference speed."""
        fresh = self._fresh
        if fresh is not None and time.perf_counter() - fresh[0] < REUSE_S:
            before = fresh[1]
        else:
            before = self.read()
        self._fresh = None
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw * self.scale(before, self.read())


def in_process() -> Gauge:
    return Gauge(_kernel, KERNEL_REFERENCE_S, repeats=4)


def fresh_process() -> Gauge:
    return Gauge(_import_numpy, PROCESS_REFERENCE_S, repeats=1)
