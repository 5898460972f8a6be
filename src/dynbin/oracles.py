"""Offline optimum computations: exact per-snapshot bin packing via
branch-and-bound, the time-integrated optimum, and closed-form expected
upper bounds for the randomized lower-bound instances."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .core import Instance, UnresolvedDurationError, vol

# the most live items, and the most search nodes, one branch and bound may take
MAX_ITEMS = 24
NODE_BUDGET = 1_000_000

_ARRIVAL = itemgetter(1)  # of an Item: (id, arrival, size_num, duration)


class SnapshotTooLarge(ValueError):
    pass


class TimeBudgetExceeded(RuntimeError):
    pass


def _ffd_counts(
    room: list[int],
    width: list[int],
    bins: int,
    counts: dict[int, int],
    small: list[int],
    scale: int,
) -> int:
    """First-Fit-Decreasing bin count of a snapshot, given the bins FFD
    opens for its sizes above half a bin and, apart, its sizes up to half
    a bin: O(small * runs), and O(small * log runs) for the runs no small
    size has touched.

    The bins that still have room are kept as runs, in opening order: a run
    is a stretch of neighbouring bins with the same residual room. A size
    above half a bin fits in no open bin, since one at least as large
    opened each, so its copies open one run of new bins, room scale - s and
    width its count, and bins counts them (copies of scale open no run).
    Those sizes are distinct and taken in descending order, so room and
    width come in with room ascending; the kernel packs into them in place
    (its caller hands it copies) the sizes of small, ascending, whose
    copies counts holds.

    First fit treats a run as one, which keeps the count exact: the copies
    of a size that reach it fill its first bin before the next, k = room //
    size to a bin. If there are enough, every bin of the run takes k;
    otherwise the c left fill its first q = c // k bins and put c % k in the
    next one. That run is split in place: its first piece takes its slot
    and at most two more are inserted after it, and bins filled to the brim
    leave the run, or shrink its width, with no new list. A full bin leaves
    the runs.

    The runs before the first one a small size has touched still ascend in
    room, so each small size finds its first fit among them with
    bisect_left, and scans run by run only from there or, if none of them
    fits, from the first touched run on. The run it touches first ends that
    sorted prefix: filling lowers its room, and splits and new bins land
    after it."""
    runs = len(room)
    sorted_runs = runs  # room[:sorted_runs] ascends, untouched by any small size
    for s in reversed(small):
        c = counts[s]
        i = bisect_left(room, s, 0, sorted_runs)
        if i < sorted_runs:
            sorted_runs = i
        while i < runs:
            r = room[i]
            if r < s:
                i += 1
                continue
            k = r // s
            m = width[i]
            km = k * m
            if km <= c:  # every bin of the run takes k copies
                c -= km
                r -= k * s
                if r:
                    room[i] = r
                    i += 1
                else:
                    del room[i], width[i]
                    runs -= 1
                if not c:
                    break
                continue
            # q < m bins take k copies, the next one rem, and the rest none
            q, rem = divmod(c, k)
            c = 0
            if q and r > k * s:
                room[i] = r - k * s
                width[i] = q
                if rem:
                    i += 1
                    room.insert(i, r - rem * s)
                    width.insert(i, 1)
                    runs += 1
                    q += 1
                if m > q:
                    room.insert(i + 1, r)
                    width.insert(i + 1, m - q)
                    runs += 1
            elif rem:  # the q bins filled to the brim leave
                room[i] = r - rem * s
                width[i] = 1
                if m > q + 1:
                    room.insert(i + 1, r)
                    width.insert(i + 1, m - q - 1)
                    runs += 1
            else:  # the q bins filled to the brim leave, the rest stay
                width[i] = m - q
            break
        if c:
            per_bin = scale // s
            full, rest = divmod(c, per_bin)
            bins += full
            if full and per_bin * s < scale:
                room.append(scale - per_bin * s)
                width.append(full)
                runs += 1
            if rest:
                bins += 1
                room.append(scale - rest * s)
                width.append(1)
                runs += 1
    return bins


def ffd_snapshot(sizes, scale: int) -> int:
    """First-Fit-Decreasing bin count; an upper bound on the optimum. The
    sizes above half a bin open their runs of bins in descending order,
    and _ffd_counts packs the rest into them."""
    counts = Counter(sizes)
    if counts and not (min(counts) > 0 and max(counts) <= scale):
        raise ValueError("snapshot sizes must lie in (0, scale]")
    order = sorted(counts)
    half = bisect_right(order, scale // 2)  # order[:half] fit two to a bin
    room: list[int] = []
    width: list[int] = []
    bins = 0
    for s in reversed(order[half:]):
        c = counts[s]
        bins += c
        if s < scale:
            room.append(scale - s)
            width.append(c)
    return _ffd_counts(room, width, bins, counts, order[:half], scale)


_opt_cache: dict[tuple[tuple[int, ...], int], int] = {}


def opt_snapshot(sizes, scale: int) -> int:
    """Exact minimum number of unit-capacity bins for a static multiset.

    FFD seeds the upper bound; when it meets the ceil(total/scale) lower
    bound the answer is immediate regardless of snapshot size. Otherwise
    a snapshot of more than MAX_ITEMS items raises SnapshotTooLarge, and
    one of at most MAX_ITEMS goes to branch and bound (_solve); a size
    outside (0, scale] raises ValueError.
    """
    sizes = tuple(sorted(sizes, reverse=True))
    if not sizes:
        return 0
    upper = ffd_snapshot(sizes, scale)
    if upper == -(-sum(sizes) // scale):
        return upper
    if len(sizes) > MAX_ITEMS:
        raise SnapshotTooLarge(
            f"snapshot too large for exact oracle ({len(sizes)} > {MAX_ITEMS})"
        )
    return _solve(sizes, scale, upper)


def _solve(sizes: tuple[int, ...], scale: int, upper: int) -> int:
    """The optimum of a snapshot that FFD leaves above L1: the cache of
    branch-and-bound answers, else branch and bound (duplicate-load and
    symmetric-bin pruning), which raises TimeBudgetExceeded past
    NODE_BUDGET nodes. So a cache hit returns what the search would.
    sizes is non-empty and descending, and upper is its FFD count."""
    key = (sizes, scale)
    cached = _opt_cache.get(key)
    if cached is not None:
        return cached

    suffix = [0] * (len(sizes) + 1)
    for i in range(len(sizes) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + sizes[i]

    best = _descend(0, sizes, suffix, scale, [], upper, [NODE_BUDGET])
    _opt_cache[key] = best
    return best


def _descend(
    i: int,
    sizes: tuple[int, ...],
    suffix: list[int],
    scale: int,
    bins: list[int],
    best: int,
    nodes_left: list[int],
) -> int:
    """One branch-and-bound node of _solve: bins holds the loads of the
    bins that pack sizes[:i], suffix[i] the sum of sizes[i:], best the
    fewest bins found so far, which it returns improved, and nodes_left[0]
    the nodes the search may still visit. A function of its arguments, not
    a closure over _solve, so a solve leaves no reference cycle behind."""
    if i == len(sizes):
        return min(best, len(bins))
    nodes_left[0] -= 1
    if nodes_left[0] < 0:
        raise TimeBudgetExceeded(f"snapshot solve ran past {NODE_BUDGET} nodes")
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
            best = _descend(i + 1, sizes, suffix, scale, bins, best, nodes_left)
            bins[j] = load
    if len(bins) + 1 < best:
        bins.append(s)
        best = _descend(i + 1, sizes, suffix, scale, bins, best, nodes_left)
        bins.pop()
    return best


@dataclass(slots=True)
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
    O(n) naive reference for the live sizes opt_total's sweep keeps."""
    return [
        it.size_num
        for it in instance.items
        if it.arrival <= t < it.arrival + it.duration
    ]


def _departure(item) -> float:
    """An Item's end, arrival + duration: the float the sweep departs it at."""
    return item[1] + item[3]


def opt_total(instance: Instance) -> OptReport:
    """Integrate the per-time packing optimum over event intervals.

    The optimum may repack arbitrarily at any moment, so it is piecewise
    constant between arrival/departure events. One sweep merges the items
    sorted by arrival with the items sorted by end, arrival + duration,
    boundary by boundary. At each boundary it applies the arrivals
    (+size), then the departures (-size), so a zero-length lifetime never
    drives a count below zero, to the item count, the volume and what FFD
    starts from: for the live sizes above half a bin, the runs of bins
    they open (room ascending, one run per size below scale, its width
    that size's count) and the bins they fill, those of size scale
    included; for the others, the count of each size and those sizes in
    ascending order. O(n log n + intervals * small * runs), the two sorts
    plus, per interval, FFD on copies of those runs (_ffd_counts), which
    sorts nothing, packs only the sizes up to half a bin, bisects each one
    to its first fit among the runs still sorted, and walks runs of bins
    with equal room rather than bins. Beyond the report it holds the two
    sorted lists and the live sizes, nothing per boundary.

    The sweep also measures the span of the lower bound max(vol, span),
    the measure of the union of the lifetimes: a stretch starts at the
    boundary where the live count rises from zero and ends where it
    returns to zero, and end - start is summed per stretch in time order,
    with no sort of the lifetimes. vol stays core.vol: its sum() of
    floats is compensated from Python 3.12 on, which no loop here would
    match bit for bit.

    FFD is skipped where it provably equals L1: with at most two live
    items (one bin if they fit together, else two, and L1 is the same),
    or a live volume of at most 1.5 bins (2 * volume <= 3 * scale). For
    the latter, any two bins of a first-fit packing hold more than one
    bin together, since the first item of the later bin did not fit in
    the earlier one. So two bins need more than one bin of volume, and
    three need more than 1.5: summing the three pairs counts each load
    twice, 2 * volume > 3 * scale. A volume of at most scale thus packs
    in one bin (none when empty) and one of at most 1.5 bins in two,
    which is L1 in both cases.

    Only where L1 < FFD are the descending sizes rebuilt from the runs and
    the counts and solved exactly, and only for an interval of at most
    MAX_ITEMS items; any other interval, like one whose search runs past
    NODE_BUDGET nodes, falls back to L1 and is flagged inexact. The report
    is a function of the instance alone: what earlier calls cached changes
    no interval.
    Raises ValueError on a size outside (0, scale], a negative duration,
    or a NaN or infinite arrival or end, on none of which the merge could
    advance or its integral be finite, and UnresolvedDurationError on an
    unresolved duration.
    """
    if instance.has_deferred():
        raise UnresolvedDurationError("unresolved durations")
    scale, inf = instance.scale, math.inf
    for it in instance.items:
        if not 0 < it.size_num <= scale:
            raise ValueError(f"item {it.id}: size must lie in (0, scale]")
        if it.duration < 0:
            raise ValueError(f"item {it.id}: negative duration")
        # NaN fails it too, as does an end past the largest float
        if not (-inf < it.arrival and it.arrival + it.duration < inf):
            raise ValueError(f"item {it.id}: arrival and end must be finite")
    if not instance.items:
        return OptReport(opt_total=0.0, all_exact=True, lower_bound=0.0, upper_bound=0.0)
    by_end = sorted(instance.items, key=_departure)
    by_arrival = sorted(instance.items, key=_ARRIVAL)
    n = len(by_end)
    arrived = departed = 0  # the items of each list applied so far
    arrival, end_time = by_arrival[0][1], _departure(by_end[0])  # the next of each
    # FFD's runs of bins for the live sizes above half a bin, room ascending
    # (_ffd_counts), and the bins those sizes fill, one per item, size scale
    # included
    big_room: list[int] = []
    big_width: list[int] = []
    big_bins = 0
    counts: dict[int, int] = {}  # of each live size up to half a bin
    small: list[int] = []  # the keys of counts, ascending
    volume = items = 0
    intervals: list[OptInterval] = []
    total = 0.0
    upper_total = 0.0
    spanned = 0.0  # the measure of the stretches ended so far
    stretch_start = 0.0  # where the current stretch of live items began
    all_exact = True
    start = arrival  # the first boundary: no item ends before the first arrives
    while True:
        if not items:
            stretch_start = start
        while arrival <= start:
            s = by_arrival[arrived][2]
            if 2 * s > scale:
                big_bins += 1
                if s < scale:
                    r = scale - s
                    i = bisect_left(big_room, r)
                    if i < len(big_room) and big_room[i] == r:
                        big_width[i] += 1
                    else:
                        big_room.insert(i, r)
                        big_width.insert(i, 1)
            else:
                c = counts.get(s, 0)
                counts[s] = c + 1
                if not c:
                    insort(small, s)
            items += 1
            volume += s
            arrived += 1
            arrival = by_arrival[arrived][1] if arrived < n else inf
        while end_time <= start:
            s = by_end[departed][2]
            if 2 * s > scale:
                big_bins -= 1
                if s < scale:
                    i = bisect_left(big_room, scale - s)
                    w = big_width[i] - 1
                    if w:
                        big_width[i] = w
                    else:
                        del big_room[i], big_width[i]
            else:
                c = counts[s] - 1
                if c:
                    counts[s] = c
                else:
                    del counts[s]
                    small.remove(s)
            items -= 1
            volume -= s
            departed += 1
            end_time = _departure(by_end[departed]) if departed < n else inf
        if not items:  # the stretch ends here: 0.0 if only empty lifetimes lie here
            spanned += start - stretch_start
        if departed == n:  # the last boundary: every item has left
            break
        end = arrival if arrival <= end_time else end_time
        lower = -(-volume // scale)
        exact = True
        if items <= 2 or 2 * volume <= 3 * scale:
            opt = upper = lower
        else:
            opt = upper = _ffd_counts(big_room[:], big_width[:], big_bins, counts, small, scale)
            if lower < upper:
                opt = None
                if items <= MAX_ITEMS:
                    sizes = [scale] * (big_bins - sum(big_width))
                    for r, w in zip(big_room, big_width):
                        sizes += [scale - r] * w
                    for s in reversed(small):
                        sizes += [s] * counts[s]
                    try:
                        opt = _solve(tuple(sizes), scale, upper)
                    except TimeBudgetExceeded:
                        pass
                if opt is None:
                    exact, opt, all_exact = False, lower, False
        intervals.append(OptInterval(start, end, exact, opt, lower, upper))
        total += opt * (end - start)
        upper_total += upper * (end - start)
        start = end
    return OptReport(
        opt_total=total,
        all_exact=all_exact,
        lower_bound=max(vol(instance), spanned),
        upper_bound=upper_total,
        intervals=intervals,
    )
