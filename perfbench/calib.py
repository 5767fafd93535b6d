"""Host-speed calibration.

The benchmark shares its host with other tenants, and the speed of a
pure-Python process drifts by up to 2x over minutes (no steal time is
reported; the CPU itself runs slower).  A fixed pure-Python kernel,
timed next to each measured interval, slows down with it.  Timings are
reported scaled to a reference host on which the kernel takes
:data:`REF_CALIB_S`:

    scaled = wall * REF_CALIB_S / (kernel time next to the interval)

The kernel uses none of the program's code, so no change to the
program can move it.
"""

from __future__ import annotations

import time

#: kernel seconds on the reference host (a quiet 2-core CI machine
#: with Python 3.11 runs it in about 17 ms)
REF_CALIB_S = 0.017


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value, nxt):
        self.value = value
        self.next = nxt

    def step(self, x):
        return (self.value * 31 + x) & 0xFFFF


def calibration_kernel() -> int:
    """Fixed interpreter work in the simulator's mix: integer masking,
    list and dict indexing, attribute loads and method calls."""
    regs = [0] * 32
    table = {}
    cell = _Cell(7, None)
    acc = 0
    for i in range(60_000):
        r = i & 31
        regs[r] = (regs[r - 1] + i * 3) & 0xFFFF_FFFF
        acc = cell.step(acc ^ regs[r])
        table[acc & 255] = i
    return acc + len(table) + sum(regs)


def sample() -> float:
    """Seconds for one kernel run."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def factor(before: float, after: float) -> float:
    """Scale for an interval bracketed by two kernel samples."""
    return 2 * REF_CALIB_S / (before + after)


#: largest ratio between the two samples around an interval for which
#: the host counts as steady through it
STEADY_RATIO = 1.08


def steady(before: float, after: float) -> bool:
    """Whether the host kept one speed through an interval.

    The host switches between speeds (the kernel's time jumps between
    about 17 and 30 ms, and stays for seconds).  An interval that spans
    a switch ran partly at each speed, so no single factor scales it:
    such intervals made the whole tail of the service's session times.
    The test looks only at the kernel, never at the interval's length,
    so it cannot favour a faster or slower program."""
    return max(before, after) <= STEADY_RATIO * min(before, after)

