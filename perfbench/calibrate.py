"""Host-speed calibration for the benchmark's timings.

On a shared host the CPU's speed drifts by a factor of up to two, and it
changes within a second, so raw seconds measured ten runs apart do not
compare. The benchmark therefore measures the host's speed with a fixed
calibration kernel while it times the program, and rescales each stretch
of the program's seconds by

    seconds * REF_KERNEL_S / (kernel seconds measured right around it)

which is its time at the speed the kernel runs at REF_KERNEL_S. The kernel
does what the program's hot loops do, in pure Python: it enumerates the
4-subsets of a fixed digraph and keeps the least encoding of each over all
relabellings. It uses nothing of the program, so a change to the program
cannot change it, and a program that gets faster reads faster by the same
share.
"""

from __future__ import annotations

import gc
import itertools
import random
import signal
from time import perf_counter, process_time

# seconds one kernel() takes on a quiet 2-core x86-64 VM under Python 3.11
REF_KERNEL_S = 0.0042
# wall seconds the program runs between two kernels inside a Clock
INTERVAL_S = 0.05
# kernels per sample(): long enough that one sample is not a scheduler tick
SAMPLE_KERNELS = 8

_N = 8
_rng = random.Random(12345)
_ARCS = frozenset((a, b) for a in range(_N) for b in range(_N) if a != b and _rng.random() < 0.4)
_PERMS = tuple(itertools.permutations(range(4)))
_PAIRS = tuple((i, j) for i in range(4) for j in range(4) if i != j)


def kernel() -> int:
    """The number of isomorphism types among the 4-subsets of the digraph."""
    seen = set()
    for sub in itertools.combinations(range(_N), 4):
        best = None
        for p in _PERMS:
            code = tuple((sub[p[i]], sub[p[j]]) in _ARCS for i, j in _PAIRS)
            if best is None or code < best:
                best = code
        seen.add(best)
    return len(seen)


def _timed_kernels(count: int) -> tuple[float, float]:
    """Wall and CPU seconds per kernel over count kernels, with the
    collector off so that the program's heap does not slow them down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = perf_counter(), process_time()
        for _ in range(count):
            kernel()
        return (perf_counter() - w0) / count, (process_time() - c0) / count
    finally:
        if enabled:
            gc.enable()


def sample() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel, averaged over SAMPLE_KERNELS."""
    return _timed_kernels(SAMPLE_KERNELS)


def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """seconds at the reference speed, given the kernel's seconds on either side."""
    return seconds * 2 * REF_KERNEL_S / (kernel_before + kernel_after)


class Clock:
    """Times the program run inside `with Clock(cpu) as clock:`.

    A real-time timer stops the program every INTERVAL_S wall seconds to
    run one kernel. Each stretch of the program between two kernels is
    rescaled by those two; the kernels' own time is left out. Afterwards
    wall_s and cpu_s hold the program's rescaled seconds, raw_wall_s and
    raw_cpu_s its seconds as measured. cpu() gives the CPU seconds to
    count, which may include child processes.
    """

    def __init__(self, cpu) -> None:
        self._cpu = cpu
        self._armed = self._in_stretch = False
        self.wall_s = self.cpu_s = self.raw_wall_s = self.raw_cpu_s = 0.0

    def __enter__(self) -> "Clock":
        self._kernel = _timed_kernels(1)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = True
        self._w, self._c = perf_counter(), self._cpu()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._stretch()
        # last, so that a signal still pending reaches _tick, which no
        # longer re-arms the timer
        signal.signal(signal.SIGALRM, self._previous)

    def split(self) -> float:
        """wall_s up to now: the current stretch is closed first."""
        self._stretch()
        return self.wall_s

    def _tick(self, signum, frame) -> None:
        # the handler runs between two bytecodes of the main code, which
        # may be closing a stretch itself through split()
        if not self._in_stretch:
            self._stretch()
        if self._armed:
            # one-shot, so the program gets INTERVAL_S even when a kernel is slow
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def _stretch(self) -> None:
        self._in_stretch = True
        try:
            wall, cpu = perf_counter() - self._w, self._cpu() - self._c
            kernel = _timed_kernels(1)
            self.raw_wall_s += wall
            self.raw_cpu_s += cpu
            self.wall_s += rescale(wall, self._kernel[0], kernel[0])
            self.cpu_s += rescale(cpu, self._kernel[1], kernel[1])
            self._kernel = kernel
            self._w, self._c = perf_counter(), self._cpu()
        finally:
            self._in_stretch = False
