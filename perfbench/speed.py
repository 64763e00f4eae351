"""How fast the host runs right now, from a fixed piece of exact arithmetic.

The benchmark shares a host whose speed swings by up to about 2x, in
stretches from seconds to minutes, without the guest seeing it as lost CPU
time. Every op time is therefore reported at a reference speed:

    reported = measured * REFERENCE_S / (kernel time measured next to it)

The kernel is Gaussian-rational matrix work in plain ``fractions``
(``exact.py``), the same kind of work qgap does, and none of qgap's code, so
a change to qgap cannot change the kernel. ``REFERENCE_S`` is a constant: the
kernel's time on an idle 2-vCPU Intel Xeon VM (2.0 GHz, Python 3.11), so on
such a host the reported times read as wall-clock times.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

import exact

REFERENCE_S = 0.0028
SAMPLE_EVERY_S = 0.1


def _matrix(rng):
    return [
        [(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
         for _ in range(4)]
        for _ in range(4)
    ]


_RNG = random.Random("perfbench-speed-kernel")
_A, _B = _matrix(_RNG), _matrix(_RNG)


def kernel_s() -> float:
    """Seconds for one pass of the kernel."""
    t0 = perf_counter()
    product = exact.matmul(_A, _B)
    exact.rank(product + _A)
    return perf_counter() - t0


class Clock:
    """Kernel samples taken at least ``SAMPLE_EVERY_S`` apart during a run.

    ``mark()`` returns the index of the newest sample; an op timed after it
    is scaled by the mean of that sample and the next one.
    """

    def __init__(self):
        self.samples = [kernel_s()]
        self.last = perf_counter()

    def mark(self) -> int:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.samples.append(kernel_s())
            self.last = perf_counter()
        return len(self.samples) - 1

    def close(self) -> None:
        self.samples.append(kernel_s())

    def scale(self, index: int) -> float:
        """The factor that brings a time taken after sample ``index`` to reference speed."""
        return 2 * REFERENCE_S / (self.samples[index] + self.samples[index + 1])
