"""Calibration loops that rescale timings to a reference machine speed.

The speed of a shared machine drifts by tens of percent over seconds.
``loop`` does a fixed amount of interpreter work of the three kinds
pellucas spends its time on (small-int arithmetic, short-lived objects and
dict traffic, big-int modular powers) and never calls pellucas.  Every
timed chunk is bracketed by two calibrations, and a scaled figure reads as
the time the chunk would take on a machine where the calibration takes
exactly the reference time; it keeps its unit.

Work done inside the measuring process is calibrated with ``loop`` and
each chunk is scaled by the mean of the two calibrations around it
(``Timer.scaled``): in-process drift is fast, and the loop tracks it.
Work done by a child process (a CLI call, a fresh set-up) also pays for
process start, which ``loop`` does not exercise.  It is calibrated with
``process_loop``, a fresh interpreter started without the site module that
runs ``loop`` once, and every chunk of the run is scaled by the median
calibration of the run (``Timer.factor``): a single process varies by 20%
from one start to the next, so a per-chunk ratio would mostly pass on the
noise of its own calibration.
"""

import sys
import time
from math import gcd

#: Median time of one ``loop()`` and of one ``process_loop()`` on the
#: 2-core machine the reference figures in README.md come from.
REFERENCE_S = 0.010
REFERENCE_PROCESS_S = 0.030


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def loop():
    """Run the fixed calibration work once; returns its wall time in s."""
    start = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    table = {}
    for i in range(3000):
        pair = _Pair(i, 3 * i)
        table[i & 255] = (pair.a, gcd(pair.b, 1001))
    modulus = (1 << 61) - 1
    for i in range(3, 603, 2):
        acc ^= pow(i, modulus - 1, modulus)
    return time.perf_counter() - start


def process_loop():
    """Start a fresh interpreter that runs ``loop`` once; its wall time in s."""
    import subprocess  # here, so that the timed interpreter does not import it

    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", __file__], check=True, timeout=60)
    return time.perf_counter() - start


class Timer:
    """Times chunks of work, each followed by a run of a calibration.

    ``raw`` holds the chunk times and ``calibrations`` the calibration
    times, the first taken before the first chunk, so that every chunk is
    bracketed by two.
    """

    def __init__(self, calibration=loop, reference=REFERENCE_S):
        self.raw = []
        self._calibration = calibration
        self._reference = reference
        self.calibrations = [calibration()]

    def time(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(time.perf_counter() - start)
        return result

    def add(self, raw):
        """Record a chunk the caller timed itself, then calibrate."""
        self.raw.append(raw)
        self.calibrations.append(self._calibration())

    def scaled(self):
        return bracketed(self.raw, self.calibrations, self._reference)

    def factor(self):
        return factor(self.calibrations, self._reference)


def bracketed(raw, calibrations, reference=REFERENCE_S):
    """Each raw time scaled by the mean of the two calibrations around it."""
    return [t * reference * 2 / (calibrations[i] + calibrations[i + 1]) for i, t in enumerate(raw)]


def factor(calibrations, reference=REFERENCE_S):
    """Scale from raw to reference seconds, given the calibration times."""
    # no statistics import: process_loop's interpreter runs this file
    ordered = sorted(calibrations)
    mid = len(ordered) // 2
    median = ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
    return reference / median


def processes():
    """A ``Timer`` for work done by child processes."""
    return Timer(process_loop, REFERENCE_PROCESS_S)


if __name__ == "__main__":
    loop()
