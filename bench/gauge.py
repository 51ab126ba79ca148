"""Times scaled to a reference machine speed.

On a small shared machine the speed of one core drifts by a quarter and more
over a few seconds, as neighbours come and go, and that drift would swamp
the differences the benchmark exists to show.  So while a run measures, a
sampler thread times a fixed pure-Python kernel every ``PERIOD_S`` seconds.
A timed section is multiplied by the mean of ``REFERENCE_S`` / (kernel
time) over the samples taken during it, that is by the machine's mean speed
relative to the reference: the result is the time the section would have
taken at the reference speed.  The kernel uses nothing from the program, so
no change to the program can move it.  The sampler holds the interpreter
lock for about a millisecond per period, which slows every section by about
4%.
"""

from __future__ import annotations

import threading
from time import perf_counter

# Roughly the kernel's median time on the machine the first baseline was
# taken on (an Intel Xeon vCPU, Python 3.11.7), so that scaled times there
# read close to wall times.  Changing it rescales every timed metric.
REFERENCE_S = 0.0008
PERIOD_S = 0.025
MIN_SAMPLES = 5


def _kernel() -> int:
    """Interpreter-bound work of the kinds the program does: building and
    sorting tuples and filling a dict.  Its working set is large enough that
    a neighbour crowding the caches slows it as it slows the program."""
    items = [(i * 7919 % 10007, -i, i & 15) for i in range(1200)]
    table = {}
    for key, value, tag in items:
        table[key] = (value, tag)
    items.sort()
    return len(table) + items[0][0]


class Gauge:
    """Times sections of work and scales them to the reference speed.

    Use it as a context manager: entering starts the sampler thread and
    leaving stops it and waits for it.
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="gauge", daemon=True)

    def __enter__(self) -> Gauge:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = perf_counter()
            _kernel()
            self._samples.append((t0, perf_counter() - t0))

    def _speed(self, t0: float, t1: float) -> float:
        """Mean speed relative to the reference during [t0, t1], or, for a
        section too short to hold ``MIN_SAMPLES`` samples, over the samples
        nearest to it."""
        while len(self._samples) < MIN_SAMPLES:
            self._stop.wait(PERIOD_S)
        samples = list(self._samples)
        inside = [d for t, d in samples if t0 <= t <= t1]
        if len(inside) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [d for _, d in nearest]
        return sum(REFERENCE_S / d for d in inside) / len(inside)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, scaled seconds, raw seconds)."""
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        raw = t1 - t0
        return result, raw * self._speed(t0, t1), raw
