"""Host-speed calibration: a short fixed loop of the kind of work the package does.

On the shared machines this benchmark was built on, the speed of pure-Python
code swings by up to 1.7x within seconds, and a whole run can fall in a
slow stretch, so raw wall times of identical code differ by 30% from run to
run.  ``Sampler`` runs the calibration loop a few times before and after a
timed block and, through SIGALRM, every ``INTERVAL_S`` inside it.  The
block's time less the time spent sampling, times ``REFERENCE_S / median
sample``, is the time the block would take on a host where the loop takes
``REFERENCE_S``.  The loop uses no aztecbridge code, so a change to the
package cannot move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

#: Calibration-loop seconds of the reference host; it fixes the unit of every
#: reported time (about the loop's median on a 2-vCPU x86-64 VM, Python 3.11).
REFERENCE_S = 0.0007

#: Seconds between samples inside a timed block.
INTERVAL_S = 0.05

#: Samples taken just before and just after a timed block.
BRACKET = 3


def calibrate() -> float:
    """Seconds for a fixed mix of tuple-keyed dict, set, sort and Fraction work.

    The garbage collector is off during the loop: a collection it triggered
    would scan the timed program's heap, and the sample would then depend on
    how much memory the program holds rather than on the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        seen = set()
        counts: dict = {}
        for i in range(650):
            key = (i % 97, i % 89)
            seen.add(key)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        total = Fraction(0)
        for i in range(1, 26):
            total += Fraction(i % 7, i)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibration samples around and inside a timed block (main thread only)."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0  # seconds the in-block samples took

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.inside_s += perf_counter() - t0

    def start(self) -> None:
        self.samples += [calibrate() for _ in range(BRACKET)]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [calibrate() for _ in range(BRACKET)]

    def scale(self, seconds: float) -> float:
        """Seconds rescaled to the reference host speed."""
        return seconds * REFERENCE_S / statistics.median(self.samples)


def after_import_scale(seconds: float) -> float:
    """Rescale seconds measured just before, without sampling inside the block."""
    samples = [calibrate() for _ in range(2 * BRACKET)]
    return seconds * REFERENCE_S / statistics.median(samples)
