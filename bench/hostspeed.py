"""Rescale measured times to a reference host speed.

On the shared 2-vCPU host this benchmark was built on, the same pass
can take twice as long from one few-second stretch to the next, with
CPU time tracking wall time and no steal time recorded: the host's
speed changes, not the program's work.  Eight raw 30 s runs of the
free-wave ladder spread 0.25 of their median (IQR), as wide as the
widest bound allowed.

So a fixed calibration kernel, which lives here and never in cetlab,
is timed all through each measured pass: a SIGALRM tick every
``INTERVAL`` seconds runs the kernel once, between two bytecodes of the
pass.  The kernel's mean time over the pass against its reference time
is the host's slowdown during that pass; the pass's own time (its wall
time minus the kernel time spent inside it) divided by that slowdown is
the pass time at the reference speed.  A change to cetlab moves the
pass time and leaves the kernel alone, so the rescaled time moves by the
same factor as the raw time would on a steady host.

Each workload is rescaled with the kernel that has the shape of its hot
loop and tracks its speed best.  Over eight 30 s runs per workload the
IQR/median of the raw and the rescaled pass times were (2-vCPU Xeon VM):
operator_checks 0.142 raw, 0.049 with ``modes``; free_wave_ladder
0.25 raw, 0.051 with ``grid``; desk_scatter 0.048 raw, 0.044 with
``modes`` (0.077 with ``grid``).  Set-up time is bracketed by
``interp``, because importing is interpreter work.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05

_MODE_OMEGA2 = np.linspace(0.1, 3.0, 32)
_GRID = np.linspace(0.0, 1.0, 4097)


def modes_kernel(steps: int = 40) -> float:
    """Two-stage update of 32 mode amplitudes, the loop shape of the
    resolvent's mode solver and of the desk run's memory modes."""
    v = np.zeros(32)
    vd = np.zeros(32)
    h = 0.005
    for _ in range(steps):
        a1 = 1.0 - _MODE_OMEGA2 * v
        b = vd + h * a1
        a2 = 1.0 - _MODE_OMEGA2 * (v + h * vd)
        v = v + h * (vd + b)
        vd = vd + h * (a1 + a2)
    return float(v[0])


def grid_kernel(sweeps: int = 40) -> float:
    """Three-point stencil sweeps over a 4097-point grid, the shape of a
    free-wave radial step."""
    y = _GRID
    for _ in range(sweeps):
        y = 0.5 * (y[1:-1] - _GRID[:-2]) + _GRID[2:]
        y = np.concatenate((_GRID[:1], y, _GRID[-1:]))
    return float(y[1])


def interp_kernel(n: int = 3000) -> float:
    """A pure-Python float loop: interpreter speed."""
    s = 0.0
    for i in range(n):
        s += i * 0.5
    return s


KERNELS = {"modes": modes_kernel, "grid": grid_kernel,
           "interp": interp_kernel}

# Median time of one kernel call in seconds, measured over 60 s on a
# 2-vCPU Xeon VM.  They only set the scale of the rescaled times; both
# sides of any comparison use the same values.
REFERENCE_S = {"modes": 4.8e-4, "grid": 5.8e-4, "interp": 2.2e-4}


class Sampler:
    """Times one calibration kernel on a SIGALRM tick while running."""

    def __init__(self, kernel: str):
        self.kernel = kernel
        self._fn = KERNELS[kernel]
        self.spent = 0.0
        self.ticks = 0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._fn()
        self.spent += time.perf_counter() - t0
        self.ticks += 1

    @contextlib.contextmanager
    def running(self):
        self._fn()  # warm up outside the timed ticks
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn) -> dict:
        """Run ``fn`` once; its wall, own and rescaled seconds."""
        spent, ticks = self.spent, self.ticks
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
        spent, ticks = self.spent - spent, self.ticks - ticks
        if ticks == 0:
            raise RuntimeError(f"no calibration tick in a {wall:.3f} s pass")
        slowdown = spent / ticks / REFERENCE_S[self.kernel]
        own = wall - spent
        return {"wall": wall, "own": own, "slowdown": slowdown,
                "ref": own / slowdown}


def bracket_slowdown(kernel: str, calls: int = 100) -> float:
    """Host slowdown from ``calls`` back-to-back kernel calls (median)."""
    fn = KERNELS[kernel]
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S[kernel]
