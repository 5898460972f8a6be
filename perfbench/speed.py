"""Machine-speed probe: converts wall time into reference seconds.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes, which swamps any change to dynbin. While a repetition runs, a
SIGALRM handler times a fixed pure-Python loop (no dynbin code) every
PERIOD_S. Each stretch of work is rescaled by REFERENCE_S / (duration of
the next probe), and the probes' own time is left out, so a slow stretch
counts for less. The loop is sized to take about REFERENCE_S on an
unloaded core of the 2-core x86 box the baseline was taken on, where one
reference second is about one wall second.
"""

from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time

PERIOD_S = 0.05
REFERENCE_S = 1e-3
PROBE_ITEMS = 550
WINDOW_S = 0.5  # a latency's speed is averaged over this much on each side


def probe_loop(n: int = PROBE_ITEMS) -> int:
    """Fixed first-fit with departures: list, dict, heap and integer work
    of the same kind as the simulator's."""
    rng = random.Random(12345)
    loads: list[int] = []
    where: dict[int, tuple[int, int]] = {}
    heap: list[tuple[float, int]] = []
    t = 0.0
    for i in range(n):
        t += rng.random()
        while heap and heap[0][0] <= t:
            _, j = heapq.heappop(heap)
            b, s = where.pop(j)
            loads[b] -= s
        s = rng.randint(1, 16)
        for b, load in enumerate(loads):
            if load + s <= 16:
                break
        else:
            b = len(loads)
            loads.append(0)
        loads[b] += s
        where[i] = (b, s)
        heapq.heappush(heap, (t + 1 + rng.random() * 40, i))
    return len(loads)


def probe_once() -> float:
    start = time.perf_counter()
    probe_loop()
    return time.perf_counter() - start


def speed_factor() -> float:
    """REFERENCE_S over the median of five probe times, measured now."""
    return REFERENCE_S / statistics.median(probe_once() for _ in range(5))


class SpeedProbe:
    """Probe timeline of one timed section; `scaled(a, b)` gives the
    reference seconds of work done between perf_counter stamps a and b."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end)
        self.start = self.end = 0.0
        self._bounds: list[float] = []
        self._cumulative: list[float] = []  # reference seconds at each bound
        self._rates: list[float] = []
        self._work: list[float] = []  # wall seconds outside probes at each bound

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        self.probes.append((start, time.perf_counter()))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._build()

    def _build(self) -> None:
        """Piecewise-linear cumulative reference time: each work stretch
        runs at the rate of the probe that ends it (the last probe's for
        the final stretch); probes themselves add nothing."""
        probes = [p for p in self.probes if p[1] <= self.end]
        if not probes:
            probes = [(self.end, self.end + probe_once())]
        cursor, total, work = self.start, 0.0, 0.0
        for start, end in probes:
            rate = REFERENCE_S / (end - start)
            self._add(cursor, total, rate, work)
            total += (start - cursor) * rate
            work += start - cursor
            self._add(start, total, 0.0, work)
            cursor = end
        self._add(cursor, total, rate, work)

    def _add(self, at: float, cumulative: float, rate: float, work: float) -> None:
        self._bounds.append(at)
        self._cumulative.append(cumulative)
        self._rates.append(rate)
        self._work.append(work)

    def _at(self, t: float) -> tuple[float, float]:
        """(reference seconds, work seconds) from the start to t."""
        i = max(0, bisect.bisect_right(self._bounds, t) - 1)
        dt = t - self._bounds[i]
        return (
            self._cumulative[i] + dt * self._rates[i],
            self._work[i] + (dt if self._rates[i] else 0.0),
        )

    def scaled(self, a: float, b: float) -> float:
        return self._at(b)[0] - self._at(a)[0]

    def latency(self, a: float, b: float) -> float:
        """Reference seconds of [a, b], at the mean speed of the window
        [a - WINDOW_S, b + WINDOW_S]: one probe is too noisy to scale a
        millisecond trial by."""
        lo, hi = max(self.start, a - WINDOW_S), min(self.end, b + WINDOW_S)
        (ref_lo, work_lo), (ref_hi, work_hi) = self._at(lo), self._at(hi)
        work = self._at(b)[1] - self._at(a)[1]
        return work * (ref_hi - ref_lo) / (work_hi - work_lo)

    @property
    def probe_s(self) -> float:
        return sum(end - start for start, end in self.probes)
