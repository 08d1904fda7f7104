"""Reference-speed timing on a shared machine.

On a shared host the same Python code runs up to 1.8 times slower for
seconds at a time, in CPU time as much as in wall time, while neighbours
load the core.  The benchmark therefore runs a fixed calibration kernel
between timed ops, every ``INTERVAL_S`` seconds, and scales each op's time
by ``REFERENCE_S`` over the kernel's recent time.  A scaled time reads as the time the op would take
when the kernel takes ``REFERENCE_S``, which it does on an idle core of the
Xeon the bounds were tuned on.  The kernel is the benchmark's own code, in
the style of the solver's inner loop (bitmask graph search, a dict memo,
tuple and frozenset building), so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

REFERENCE_S = 0.00123
WINDOW = 5
INTERVAL_S = 0.1

_NEIGHBORS = tuple(
    (1 << (v + 1) % 8) | (1 << (v + 3) % 8) | (1 << (v + 5) % 8) for v in range(8)
)


def _components(blocked: int) -> tuple[int, ...]:
    seen = blocked
    out = []
    for v in range(8):
        if seen >> v & 1:
            continue
        comp = 1 << v
        seen |= comp
        stack = [v]
        while stack:
            nb = _NEIGHBORS[stack.pop()] & ~seen
            while nb:
                low = nb & -nb
                seen |= low
                comp |= low
                stack.append(low.bit_length() - 1)
                nb ^= low
        out.append(comp)
    return tuple(out)


def calibration_kernel() -> int:
    acc = 0
    for rep in range(3):
        memo: dict[tuple[int, int], tuple[int, ...]] = {}
        for x in range(256):
            key = (x, rep)
            comps = memo.get(key)
            if comps is None:
                comps = memo[key] = _components(x)
            acc += len(comps) + len(frozenset(comps))
    return acc


class Speedometer:
    """Scale factors from the median of the last ``WINDOW`` kernel times,
    with a kernel run at most every ``INTERVAL_S`` seconds."""

    def __init__(self):
        self.samples: deque[float] = deque(maxlen=WINDOW)
        self.factors: list[float] = []
        self._last = 0.0
        for _ in range(WINDOW):
            self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)

    def scale(self) -> float:
        """The factor for the next timed region."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self._sample()
        factor = REFERENCE_S / statistics.median(self.samples)
        self.factors.append(factor)
        return factor
