"""Machine-speed calibration for the reported times.

On a shared machine the same op can take 30% longer for a minute at a time
while neighbours are busy, which would swamp any change worth measuring.
Each run therefore also times a fixed reference task of the same kind as its
ops, with code outside the program under test, just before and just after
every op, and scales the op's wall time by ``REFERENCE_S`` over the mean of
those two samples: times are reported in seconds of a machine running the
reference task at its nominal speed.  Raw wall times and the reference
samples go to the run's record as well.

* In-process ops are calibrated against a fixed loop of small-array numpy
  work, the instruction mix of the stepping and post-processing code.
* Spawned processes (cold ops, set-up and import probes) are calibrated
  against spawning a bare interpreter.

The reference values are medians measured on a 2-core Intel Xeon with
Python 3.11 and numpy 2.4.
"""

from time import perf_counter

import numpy as np

REFERENCE_S = {"numpy": 0.012, "spawn": 0.055}

_rng = np.random.default_rng(20150517)
_DIM, _TERMS = 17, 200
_ROWS = _rng.integers(0, _DIM, _TERMS)
_COLS = _rng.integers(0, _DIM, _TERMS)
_AMPS = _rng.normal(size=_TERMS) + 1j * _rng.normal(size=_TERMS)
_NUS = _rng.normal(size=_TERMS)
_STATE = np.ones(_DIM, dtype=complex)


def numpy_task() -> float:
    """Seconds for a fixed block of sparse complex sums, best of three."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        for k in range(600):
            acc = np.zeros(_DIM, dtype=complex)
            np.add.at(acc, _ROWS, _AMPS * np.exp(1j * _NUS * k) * _STATE[_COLS])
        best = min(best, perf_counter() - start)
    return best


class Calibration:
    """Samples of one reference task, taken between the measured tasks."""

    def __init__(self, kind, task):
        self.kind = kind
        self.task = task
        self.samples = []

    def around(self, run):
        """``run()`` between two reference samples.

        Returns its result and the factor that turns a time measured inside
        it into reference seconds: ``REFERENCE_S`` over the mean of the
        samples taken just before and just after.
        """
        if not self.samples:
            self.samples.append(self.task())
        before = self.samples[-1]
        result = run()
        self.samples.append(self.task())
        return result, REFERENCE_S[self.kind] / (0.5 * (before + self.samples[-1]))
