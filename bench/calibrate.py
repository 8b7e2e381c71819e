"""A fixed reference computation that measures how fast the host runs right now.

The kernel is exact rational Gaussian elimination on a fixed integer matrix,
written in plain Python with ``fractions.Fraction``: the same mix of big
integer arithmetic, allocation and interpreter dispatch that the library's
own kernels run, and no code of the library itself, so no change to the
library can change its cost.

The hosts this benchmark runs on change speed by up to about 1.7x, for
seconds to minutes at a time, with no change in the work done: process CPU
time changes with wall time, so the cause is the shared core and not the
scheduler.  A run takes one sample of the kernel after every operation, and
``scale`` turns the mean of those samples into the factor that converts the
run's wall times to times on a reference host, on which one sample takes
``REFERENCE_S``.  The mean and not the median: the host switches between two
speeds, and the mean of samples spread over the run follows the share of
time spent in each, as the run's own wall time does.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# a fixed, well-conditioned 7x7 integer matrix
_A = [[(3 * i * i + 5 * j + 7 * i * j) % 11 - 5 + (9 if i == j else 0) for j in range(7)] for i in range(7)]


def kernel() -> Fraction:
    """Determinant of ``_A`` by fraction-exact elimination."""
    rows = [[Fraction(v) for v in row] for row in _A]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det *= pivot
        for r in range(c + 1, n):
            f = rows[r][c] / pivot
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


DET = kernel()
REFERENCE_S = 1e-3


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def samples_for(seconds: float) -> list[float]:
    """Samples taken back to back for ``seconds``."""
    samples = []
    end = perf_counter() + seconds
    while perf_counter() < end:
        samples.append(sample())
    return samples


def scale(samples: list[float]) -> float:
    """Factor from this run's wall times to times on the reference host."""
    return REFERENCE_S * len(samples) / sum(samples)
