"""Naive references for measures of an instance that the package does
not export: the tests hold the oracle's own measures to them."""

from dynbin.core import Instance


def span(instance: Instance) -> float:
    """Lebesgue measure of the union of item lifetimes; a deferred
    duration raises UnresolvedDurationError.

    Computed by a sweep over intervals sorted by start; half-open
    abutment merges measure (e.g. [0,1) and [1,2) span 2). The terms are
    summed in the order oracles.opt_total sums them, so both give the
    same float.
    """
    intervals = sorted((it.arrival, it.departure) for it in instance.items)
    total = 0.0
    cur_start = cur_end = None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def mu(instance: Instance) -> float:
    """Ratio of the largest to smallest item duration."""
    durations = [it.duration for it in instance.items]
    return max(durations) / min(durations)
