"""Offline optimum computations: exact per-snapshot bin packing via
branch-and-bound, the time-integrated optimum, and closed-form expected
upper bounds for the randomized lower-bound instances."""

from __future__ import annotations

import time as _time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .core import Instance, UnresolvedDurationError, span, vol

DEFAULT_MAX_ITEMS = 24
DEFAULT_TIME_BUDGET = 2.0


class SnapshotTooLarge(ValueError):
    pass


class TimeBudgetExceeded(RuntimeError):
    pass


def _ffd_counts(counts: dict[int, int], scale: int) -> int:
    """First-Fit-Decreasing bin count of a snapshot given as counts of
    each size numerator. Each copy of one size goes to the first bin that
    fits it, and the bins before that one stay too full for the next
    copy, so bin after bin takes as many copies as fit: O(sizes * bins)
    for any number of items, and the same count as item-by-item FFD."""
    free: list[int] = []  # residual capacity of each bin, in opening order
    for s in sorted(counts, reverse=True):
        c = counts[s]
        if free and max(free) >= s:
            for i, r in enumerate(free):
                if r >= s:
                    fit = r // s
                    if fit >= c:
                        free[i] = r - c * s
                        c = 0
                        break
                    free[i] = r - fit * s
                    c -= fit
        if c:
            per_bin = scale // s
            full, rest = divmod(c, per_bin)
            free += [scale - per_bin * s] * full
            if rest:
                free.append(scale - rest * s)
    return len(free)


def ffd_snapshot(sizes, scale: int) -> int:
    """First-Fit-Decreasing bin count; an upper bound on the optimum."""
    counts = Counter(sizes)
    if counts and not (min(counts) > 0 and max(counts) <= scale):
        raise ValueError("snapshot sizes must lie in (0, scale]")
    return _ffd_counts(counts, scale)


_opt_cache: dict[tuple[tuple[int, ...], int], int] = {}


def opt_snapshot(
    sizes,
    scale: int,
    max_items: int = DEFAULT_MAX_ITEMS,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> int:
    """Exact minimum number of unit-capacity bins for a static multiset.

    FFD seeds the upper bound; when it meets the ceil(total/scale) lower
    bound the answer is immediate regardless of snapshot size. Otherwise
    a branch-and-bound over descending sizes (duplicate-load and
    symmetric-bin pruning) runs within the item and time limits.
    """
    sizes = tuple(sorted(sizes, reverse=True))
    if not sizes:
        return 0
    return _solve(sizes, scale, max_items, time_budget)


def _solve(
    sizes: tuple[int, ...],
    scale: int,
    max_items: int,
    time_budget: float,
    upper: int | None = None,
) -> int:
    """How every exact snapshot solve ends: the cache, then the FFD == L1
    fast path, then SnapshotTooLarge, then branch and bound, which may
    raise TimeBudgetExceeded. sizes is non-empty and descending; upper is
    its FFD count when the caller has it, else FFD runs here through the
    module's ffd_snapshot, which also rejects sizes outside (0, scale]."""
    key = (sizes, scale)
    cached = _opt_cache.get(key)
    if cached is not None:
        return cached
    if upper is None:
        upper = ffd_snapshot(sizes, scale)
    if upper == -(-sum(sizes) // scale):
        _opt_cache[key] = upper
        return upper
    if len(sizes) > max_items:
        raise SnapshotTooLarge(
            f"snapshot too large for exact oracle ({len(sizes)} > {max_items})"
        )

    deadline = _time.perf_counter() + time_budget
    suffix = [0] * (len(sizes) + 1)
    for i in range(len(sizes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]

    best = _descend(0, sizes, suffix, scale, [], upper, deadline)
    _opt_cache[key] = best
    return best


def _descend(
    i: int,
    sizes: tuple[int, ...],
    suffix: list[int],
    scale: int,
    bins: list[int],
    best: int,
    deadline: float,
) -> int:
    """One branch-and-bound node of _solve: bins holds the loads of the
    bins that pack sizes[:i], suffix[i] the sum of sizes[i:], and best
    the fewest bins found so far, which it returns improved. A function
    of its arguments, not a closure over _solve, so a solve leaves no
    reference cycle behind."""
    if i == len(sizes):
        return min(best, len(bins))
    if _time.perf_counter() > deadline:
        raise TimeBudgetExceeded("snapshot solve exceeded its time budget")
    free = len(bins) * scale - (suffix[0] - suffix[i])
    bound = len(bins) + max(0, -(-(suffix[i] - free) // scale))
    if bound >= best:
        return best
    s = sizes[i]
    seen: set[int] = set()
    for j, load in enumerate(bins):
        if load + s <= scale and load not in seen:
            seen.add(load)
            bins[j] = load + s
            best = _descend(i + 1, sizes, suffix, scale, bins, best, deadline)
            bins[j] = load
    if len(bins) + 1 < best:
        bins.append(s)
        best = _descend(i + 1, sizes, suffix, scale, bins, best, deadline)
        bins.pop()
    return best


@dataclass
class OptInterval:
    start: float
    end: float
    exact: bool
    opt: int  # exact value, or the L1 lower bound when inexact
    lower: int
    upper: int  # FFD bin count


@dataclass
class OptReport:
    opt_total: float
    all_exact: bool
    lower_bound: float  # max(vol, span)
    upper_bound: float  # integral of the FFD step function
    intervals: list[OptInterval] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "opt_total": self.opt_total,
            "all_exact": self.all_exact,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "intervals": [
                [iv.start, iv.end, iv.exact, iv.opt, iv.lower, iv.upper]
                for iv in self.intervals
            ],
        }


def live_sizes_at(instance: Instance, t: float) -> list[int]:
    """Size numerators of items whose half-open lifetime contains t; the
    O(n) naive reference for the snapshots the sweep keeps."""
    return [
        it.size_num
        for it in instance.items
        if it.arrival <= t < it.arrival + it.duration
    ]


class Snapshot(NamedTuple):
    """The live items on [start, end), between two consecutive event
    boundaries: counts maps each live size numerator to its number of
    items."""

    start: float
    end: float
    counts: dict[int, int]
    lower: int  # L1: ceil(live volume / scale)
    upper: int  # FFD bin count


def snapshots(instance: Instance) -> Iterator[Snapshot]:
    """Sweep the sorted arrival and departure boundaries once, keeping the
    counts of live size numerators and their volume, and yield one
    Snapshot per interval: O(n log n) for the events plus FFD on the
    counts per interval. Raises ValueError on a size outside (0, scale],
    a negative duration, which would drive a count below zero, or an
    unresolved one."""
    if instance.has_deferred():
        raise UnresolvedDurationError("unresolved durations")
    scale = instance.scale
    deltas: dict[float, list[int]] = {}  # boundary -> +size arriving, -size departing
    for it in instance.items:
        if not 0 < it.size_num <= scale:
            raise ValueError(f"item {it.id}: size must lie in (0, scale]")
        if it.duration < 0:
            raise ValueError(f"item {it.id}: negative duration")
        deltas.setdefault(it.arrival, []).append(it.size_num)
        deltas.setdefault(it.arrival + it.duration, []).append(-it.size_num)
    boundaries = sorted(
        {it.arrival for it in instance.items}
        | {it.arrival + it.duration for it in instance.items}
    )
    counts: dict[int, int] = {}
    volume = 0
    for start, end in zip(boundaries, boundaries[1:]):
        for d in deltas[start]:
            s = abs(d)
            c = counts.get(s, 0) + (1 if d > 0 else -1)
            if c:
                counts[s] = c
            else:
                del counts[s]
            volume += d
        yield Snapshot(
            start, end, dict(counts), -(-volume // scale), _ffd_counts(counts, scale)
        )


def snapshot_opt(
    snap: Snapshot, scale: int, max_items: int, time_budget: float
) -> int:
    """Exact OPT_t of a swept snapshot, ending as opt_snapshot would on
    its sizes. FFD == L1 needs no cache lookup: a cached value is exact,
    so it equals that bound too. Otherwise the descending sizes go to
    _solve with the FFD count already known."""
    if snap.lower == snap.upper:
        return snap.upper
    sizes: list[int] = []
    for s in sorted(snap.counts, reverse=True):
        sizes += [s] * snap.counts[s]
    return _solve(tuple(sizes), scale, max_items, time_budget, snap.upper)


def opt_total(
    instance: Instance,
    max_items: int = DEFAULT_MAX_ITEMS,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> OptReport:
    """Integrate the per-time packing optimum over event intervals.

    The optimum may repack arbitrarily at any moment, so it is piecewise
    constant between arrival/departure events. Intervals whose snapshot
    is too large fall back to bounds and are flagged inexact.
    """
    intervals: list[OptInterval] = []
    total = 0.0
    upper_total = 0.0
    all_exact = True
    for snap in snapshots(instance):
        try:
            opt = snapshot_opt(snap, instance.scale, max_items, time_budget)
            exact = True
        except (SnapshotTooLarge, TimeBudgetExceeded):
            opt = snap.lower
            exact = False
            all_exact = False
        intervals.append(OptInterval(snap.start, snap.end, exact, opt, snap.lower, snap.upper))
        total += opt * (snap.end - snap.start)
        upper_total += snap.upper * (snap.end - snap.start)
    return OptReport(
        opt_total=total,
        all_exact=all_exact,
        lower_bound=max(vol(instance), span(instance)) if instance.items else 0.0,
        upper_bound=upper_total,
        intervals=intervals,
    )

