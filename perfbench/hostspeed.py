"""Scale measured times to a fixed reference host speed.

The benchmark runs on shared machines whose speed for pure-Python code
swings by up to 2x within seconds.  On a shared 2-vCPU Intel Xeon host
the median E6 classify call ranged over 92-176 ms across consecutive 5 s
windows (CV 0.16), while its ratio to the kernel below had CV 0.06; for
a single E8 analyze the CV fell from 0.19 to 0.03.  So between ops the harness times a
small calibration kernel, which does the kind of work the engine does
(building tuples, summing them, set lookups) and does not use the program;
each op's time is multiplied by ``REFERENCE_S / c``, where c is the mean
kernel time of the calibration points just before and just after the op.
A change that makes the program slower slows its ops, not the kernel, so
it still shows in full; a slow phase of the host slows both and cancels.

``REFERENCE_S`` is part of the benchmark's definition: changing it
rescales every time metric.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.0035  # kernel time that defines "reference host speed"
EVERY_S = 0.1  # at most this much wall time between calibration points
REPEAT = 3  # kernel runs per calibration point; the point is their median


def _kernel() -> int:
    n, height = 6, 5
    base = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    known = set(base)
    layer = list(base)
    while layer:
        grown = []
        for a in layer:
            for b in base:
                s = tuple(x + y for x, y in zip(a, b))
                if sum(s) <= height and s not in known:
                    known.add(s)
                    grown.append(s)
        layer = grown
    return len(known)


def calibration_point() -> float:
    """Median kernel time, with the collector off so the program's heap
    size cannot change the kernel's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEAT):
            t0 = perf_counter()
            _kernel()
            times.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Scaler:
    """Rescales op samples (objects with a ``seconds`` attribute) to the
    reference host speed.

    Calibration points are taken between ops, at most EVERY_S apart and
    right after any op of EVERY_S / 4 or longer, so that such an op is
    scaled by points on both of its sides rather than one op away.  With
    ``in_op`` an interval timer also takes one every EVERY_S during an op
    (between ``arm`` and ``disarm``), so that a long op is scaled by the
    host speed while it ran; ``disarm`` returns the seconds those points
    took, which the caller leaves out of the op's time.
    """

    def __init__(self, in_op: bool = False) -> None:
        self.in_op = in_op
        self.points: list[float] = [calibration_point()]
        self._at = perf_counter()
        self._pending: list[tuple[object, list[float]]] = []
        self._op_points: list[float] = []
        self._stolen = 0.0
        self._due = False

    def before_op(self) -> None:
        if self._due or perf_counter() - self._at >= EVERY_S:
            self.point()

    def _tick(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self._op_points.append(calibration_point())
        self._stolen += perf_counter() - t0

    def arm(self) -> None:
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def disarm(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a late tick must not kill us
        return self._stolen

    def add(self, sample) -> None:
        self._pending.append((sample, self._op_points))
        self._op_points = []
        self._due = sample.seconds >= EVERY_S / 4

    def point(self) -> None:
        c = calibration_point()
        before = self.points[-1]
        for sample, during in self._pending:
            pts = [before, *during, c]
            sample.raw_seconds = sample.seconds
            sample.seconds *= REFERENCE_S * len(pts) / sum(pts)
            self.points.extend(during)
        self._pending = []
        self.points.append(c)
        self._at = perf_counter()

    def speed(self) -> float:
        """Median host speed of the run relative to the reference (>1 is faster)."""
        return REFERENCE_S / statistics.median(self.points)
