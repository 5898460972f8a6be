"""Experiment harness: reproducible trial runs, per-run invariant checks,
and CSV/Markdown reporting. Every run is simulated and checked by
checked_run, which run_trial, cmd_verify and `dynbin run` share; the CLI
in cli.py only parses options and prints. The packing, bad_bins and
junk_load checks read the engine's records through engine.Replay, their
one reader: checked_run takes all three from one replay of the stored run,
and bad_bin_observer steps the same reader once per event. The
decomposition check reads the run's items, ledger and departures
directly: it builds each part's FirstFit events with no sub-instance in
between and sweeps them without the engine."""

from __future__ import annotations

import json
import math
import statistics
from collections import Counter
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from fractions import Fraction
from heapq import heappop, heappush
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from . import algorithms, generators, oracles
from .core import Instance, time_problems, validate, with_durations
from .engine import InvalidInstance, Policy, Replay, SimulationError, SimulationResult
from .engine import check_records, simulate
# unused here, but the benchmark's tracer patches this name in this module
from .engine import verify_packing  # noqa: F401

CSV_COLUMNS = [
    "family",
    "params",
    "seed",
    "alg",
    "alpha",
    "f",
    "delay_c",
    "alg_cost",
    "opt_lb",
    "opt_exact",
    "opt_ub",
    "opt_total",
    "ratio",
    "mig_unit",
    "mig_size",
    "max_pertime_ratio",
    "phases",
]


class InvariantViolation(Exception):
    def __init__(self, check: str, detail: str, time: float | None = None):
        super().__init__(f"{check}: {detail}" + (f" (t={time})" if time is not None else ""))
        self.check = check
        self.detail = detail
        self.time = time


@dataclass
class ExperimentConfig:
    algorithm: str
    generator: dict
    alpha: str | None = None
    f: str | None = None
    delay_cost: float | None = None
    trials: int = 1
    base_seed: int = 0
    checks: list[str] = field(default_factory=list)
    compute_opt: bool = True
    jobs: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config a JSON object describes, else a ValueError naming
        what is wrong with it: a key, a value check_config rejects, a
        generator key of the wrong type or out of range (check_generator),
        or a generator whose builder rejects it, found by drawing the
        first trial's instance. So a batch fails before its first trial,
        and its trials build their instances without checking the keys
        again."""
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown key {', '.join(unknown)}")
        missing = [
            name for name, f in known.items()
            if f.default is MISSING and f.default_factory is MISSING and name not in data
        ]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        config = cls(**data)
        check_config(config)
        check_generator(config.generator)
        build_instance(config.generator, config.base_seed)
        return config

    def alpha_fraction(self) -> Fraction | None:
        return Fraction(self.alpha) if self.alpha is not None else None

    def f_fraction(self) -> Fraction | None:
        return Fraction(self.f) if self.f is not None else None


# each generator family: the keys it reads, and a builder taking the seed
# and those values in order; the builders look up the generators module's
# functions at call time, which the benchmark's tracer patches
GENERATORS = {
    "fig2": (("k", "mu"), lambda seed, k, mu: generators.gen_fig2(k, mu)),
    "tradeoff": (
        ("inv_s", "k", "mu"),
        lambda seed, inv_s, k, mu: generators.gen_tradeoff_lb(inv_s, k, mu, seed),
    ),
    "basiclb": (
        ("k", "mu"),
        lambda seed, k, mu: generators.gen_basic_lb(k, mu, seed),
    ),
    "delaylb": (("c",), lambda seed, c: generators.gen_delay_lb(c, seed)),
    "uniform": (
        ("n", "size_grid", "duration_range", "arrival_window"),
        lambda seed, n, size_grid, duration_range, arrival_window: generators.gen_uniform(
            n, size_grid, tuple(duration_range), arrival_window, seed
        ),
    ),
}


def _integer(v) -> bool:
    return type(v) is int


def _number(v) -> bool:
    """A JSON number: not true or false, and not the NaN or Infinity that
    Python's json module reads beyond the standard."""
    return type(v) is int or (type(v) is float and math.isfinite(v))


def _at_least(least):
    return f">= {least}", lambda v: v >= least


_POSITIVE = ("> 0", lambda v: v > 0)

# each config field: what its value must be, and the range a non-null one must lie in
CONFIG_FIELDS = {
    "algorithm": ("a string", lambda v: type(v) is str, None),
    "trials": ("an integer", _integer, _at_least(0)),
    "base_seed": ("an integer", _integer, None),
    "jobs": ("an integer", _integer, _at_least(1)),
    "delay_cost": ("a number or null", lambda v: v is None or _number(v), _at_least(0)),
    "compute_opt": ("true or false", lambda v: type(v) is bool, None),
    "checks": ("a list of strings",
               lambda v: type(v) is list and all(type(c) is str for c in v), None),
}

# each generator key: what its value must be, and the range it must lie in;
# the builders check what is left (k >= 2, a power-of-two size_grid, ...)
GENERATOR_KEYS = {
    **{key: ("an integer", _integer, _at_least(1))
       for key in ("n", "size_grid", "k", "inv_s", "c")},
    "mu": ("a number", _number, _POSITIVE),
    "duration_range": (
        "two numbers",
        lambda v: type(v) in (list, tuple) and len(v) == 2 and all(map(_number, v)),
        ("two positive numbers, lo <= hi", lambda v: 0 < v[0] <= v[1]),
    ),
    "arrival_window": ("a number", _number, _at_least(0)),
}


def _value_problem(name: str, value, expected: str, typed, bound) -> str | None:
    """What is wrong with a value that is not of its type or, when not
    null, not within its bound; None if nothing is."""
    if not typed(value):
        return f"{name}: expected {expected}, got {value!r}"
    if bound is not None and value is not None and not bound[1](value):
        return f"{name} must be {bound[0]}"
    return None


def _check_budget_alpha(name: str, alpha: Fraction) -> None:
    """Raise a ValueError unless alpha lies in (0, 1/2): outside it the
    budget of the migration_budget or size_budget check, which scales
    with 1 / (1 - 2 alpha), bounds nothing. Tested in integers, as
    0 < 2 * numerator < denominator."""
    if not 0 < 2 * alpha.numerator < alpha.denominator:
        raise ValueError(f"check {name} needs alpha in (0, 1/2), got {alpha}")


def check_config(config: ExperimentConfig) -> None:
    """Raise a ValueError naming a field of the wrong type or out of range
    (CONFIG_FIELDS), a check not in CHECKS (UnknownCheck), a bad alpha or f, a
    policy they cannot build (the policy built to find out is dropped), a
    per_time check without an alpha, a migration_budget or size_budget check
    with an alpha outside (0, 1/2) (_check_budget_alpha) or for a policy whose
    checks do not list it, or a delay_schedule or decomposition check without
    a delay cost or for a policy whose checks do not list it. A config file
    and the run/verify options meet it."""
    for name, rule in CONFIG_FIELDS.items():
        problem = _value_problem(name, getattr(config, name), *rule)
        if problem:
            raise ValueError(problem)
    _check_names(config.checks)
    parsed = []
    for name, parse in (("alpha", config.alpha_fraction), ("f", config.f_fraction)):
        try:
            parsed.append(parse())
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    alpha, f = parsed
    try:
        algorithms.make_policy(config.algorithm, alpha, f, config.delay_cost)
    except ValueError as exc:
        raise ValueError(f"algorithm {config.algorithm}: {exc}") from None
    except TypeError as exc:  # a parameter it needs is missing or not a number
        raise ValueError(
            f"algorithm {config.algorithm}: bad or missing alpha, f or delay_cost ({exc})"
        ) from None
    if "per_time" in config.checks and alpha is None:
        raise ValueError("check per_time needs an alpha")
    for name in ("migration_budget", "size_budget"):
        if name not in config.checks:
            continue
        if alpha is not None:
            _check_budget_alpha(name, alpha)
        if name not in algorithms.ALGORITHMS[config.algorithm].checks:
            raise ValueError(f"check {name} does not apply to algorithm {config.algorithm}")
    for name in ("delay_schedule", "decomposition"):
        if name not in config.checks:
            continue
        if not config.delay_cost:
            raise ValueError(f"check {name} needs a delay_cost")
        if name not in algorithms.ALGORITHMS[config.algorithm].checks:
            raise ValueError(f"check {name} does not apply to algorithm {config.algorithm}")


def check_generator(generator) -> None:
    """Raise a ValueError unless the generator names a known family and
    has every key that family reads, each of its type and range
    (GENERATOR_KEYS)."""
    if not isinstance(generator, dict):
        raise ValueError("generator: expected a JSON object")
    family = generator.get("family")
    if type(family) is not str or family not in GENERATORS:
        raise ValueError(f"unknown generator family {family!r}")
    keys = GENERATORS[family][0]
    missing = [key for key in keys if key not in generator]
    if missing:
        raise ValueError(f"generator {family} needs {', '.join(missing)}")
    for key in keys:
        problem = _value_problem(key, generator[key], *GENERATOR_KEYS[key])
        if problem:
            raise ValueError(f"generator {family}: {problem}")


def build_instance(generator: dict, seed: int) -> Instance:
    """Instantiate a generator family. Its keys must have passed
    check_generator, which ExperimentConfig.from_dict and `dynbin gen`
    call once, not once per trial."""
    keys, build = GENERATORS[generator["family"]]
    return build(seed, *(generator[key] for key in keys))


# ----------------------------------------------------------------------
# invariant checks

def bad_bin_observer(scale: int):
    """Live check: within every single-class bin group at most one Bad
    bin, and none for class 0; junk bins never exceed capacity. After each
    event the observer steps an engine.Replay that follows the calling
    engine's records, a new one for each engine, and raises the first
    violation, which the benchmark's stream workload relies on. Each step
    after the first finds the one event just recorded (the first may also
    find the bind-time records) and reads it with no islice or slice.
    checked_run finds the same violation after the run."""
    replay = step = events = None  # set on the first call from each engine

    def observe(engine, time):
        nonlocal replay, step, events
        if engine.events is not events:
            replay, events = Replay(scale), engine.events
            step = replay.follow(engine.actions, events).__next__
        step()
        if replay.broken:
            raise InvariantViolation(*replay.broken)

    return observe


def check_per_time(
    report: oracles.OptReport,
    result: SimulationResult,
    alpha: Fraction,
    additive_at,
) -> float:
    """Assert open bins <= OPT_t / alpha + additive at every segment of
    the run, reading OPT_t from the instance's OptReport; returns the max
    observed ALG_t/OPT_t ratio. The segments walk the report's intervals
    in step: each segment start reads the interval containing it, and
    nothing is live before the first boundary or after the last.

    With alpha = num/den the bound is tested in integers, open * num >
    opt * den + additive * num. The additive term is nonnegative, so a
    segment with open * num <= opt * den meets the bound without it, and
    additive_at is called only where open * num > opt * den. An interval
    the oracle could not solve exactly carries its L1 bound, and since
    OPT_t >= L1 a segment that meets the bound with L1 is certified, with
    open/L1 as an upper bound on its ratio. One that does not raises
    SnapshotTooLarge."""
    num, den = alpha.numerator, alpha.denominator
    intervals = report.intervals
    i, n = 0, len(intervals)
    max_ratio = 0.0
    # segment starts strictly increase; the last time only ends a segment
    for start, open_bins in zip(result.times, result.open_counts):
        while i < n and intervals[i].end <= start:
            i += 1
        if i == n or start < intervals[i].start:
            opt_t, exact = 0, True
        else:
            opt_t, exact = intervals[i].opt, intervals[i].exact
        if open_bins * num > opt_t * den:
            additive = additive_at(start)
            if open_bins * num > opt_t * den + additive * num:
                allowed = Fraction(opt_t) / alpha + additive
                if not exact:
                    raise oracles.SnapshotTooLarge(
                        f"OPT_t at t={start} is not exact and {open_bins} open bins "
                        f"> {float(allowed)} allowed by its lower bound {opt_t}"
                    )
                raise InvariantViolation(
                    "per_time",
                    f"{open_bins} open bins > {float(allowed)} allowed (OPT_t={opt_t})",
                    start,
                )
        if opt_t > 0:
            ratio = open_bins / opt_t
            if ratio > max_ratio:
                max_ratio = ratio
    return max_ratio


def check_migration_budget(
    instance: Instance, result: SimulationResult, alpha: Fraction
) -> None:
    """Unit-cost budget: total and per-class migrations bounded by
    4*alpha/(1-2*alpha) times the (class) item count, tested in integers
    as count * den > num * items with factor = num/den. The classes are
    counted only when some class migrated, once per distinct size. A
    message's budget is num * items / den, an int division that rounds
    correctly, as float(factor * items) does."""
    _check_budget_alpha("migration_budget", alpha)
    # 4 alpha / (1 - 2 alpha) = 4p / (q - 2p) with alpha = p/q, and q - 2p > 0
    num, den = 4 * alpha.numerator, alpha.denominator - 2 * alpha.numerator
    n = len(instance.items)
    if result.ledger.unit_count * den > num * n:
        raise InvariantViolation(
            "migration_budget",
            f"{result.ledger.unit_count} migrations > {num * n / den}",
        )
    per_class = result.ledger.per_class()
    if not per_class:
        return
    # a migration's class is the group of the bin it left; alg1's one
    # group, "class", holds every item
    class_sizes: dict[str, int] = {"class": n}
    for size, count in Counter(it.size_num for it in instance.items).items():
        key = f"class:{algorithms.size_class(size, instance.scale)}"
        class_sizes[key] = class_sizes.get(key, 0) + count
    for class_key, count in per_class.items():
        n_c = class_sizes.get(class_key, 0)
        if count * den > num * n_c:
            raise InvariantViolation(
                "migration_budget",
                f"{count} migrations in {class_key} > {num * n_c / den}",
            )


def check_size_budget(
    instance: Instance, result: SimulationResult, alpha: Fraction
) -> None:
    """Migrated size at most alpha/(1-2*alpha) = p/(q-2p) times the total
    size, alpha = p/q, tested in integers on the size numerators."""
    _check_budget_alpha("size_budget", alpha)
    p, q = alpha.numerator, alpha.denominator
    total = sum(it.size_num for it in instance.items)
    migrated = sum(e.size_num for e in result.ledger.entries)
    if migrated * (q - 2 * p) > p * total:
        budget = float(alpha / (1 - 2 * alpha)) * (total / instance.scale)
        raise InvariantViolation(
            "size_budget", f"migrated size {result.ledger.size_sum} > {budget}"
        )


def check_delay_schedule(
    instance: Instance, result: SimulationResult, delay_cost: float
) -> None:
    """Per item: migration count at most floor(d/sqrt(C)) and departure
    exactly arrival + duration + C * migrations. An integer count exceeds
    floor(x) exactly when it exceeds x, which holds for x = inf too."""
    sqrt_c = math.sqrt(delay_cost)
    migrations, departures = result.migrations_per_item, result.departures
    for item_id, arrival, _, duration in instance.items:
        migs = migrations.get(item_id, 0)
        if migs > duration / sqrt_c + 1e-12:
            raise InvariantViolation(
                "delay_schedule",
                f"item {item_id}: {migs} migrations > floor({duration}/{sqrt_c})",
            )
        expected = arrival + duration + delay_cost * migs
        if departures[item_id] != expected:
            raise InvariantViolation(
                "delay_schedule",
                f"item {item_id}: departed {departures[item_id]}, expected {expected}",
            )


# the most migrations a delay run may make, all items together, counted
# before it starts: far above the 12,257 of the benchmark's dense
# instance, the most any test, CI line or benchmark run may make, and far
# below the 5e15 of one item of duration 1e16 at C = 4, which would not
# end in practice
MAX_DELAY_MIGRATIONS = 10**8


def check_delay_migrations(instance: Instance, delay_cost: float) -> None:
    """Refuse a delay run that may make more than MAX_DELAY_MIGRATIONS
    migrations, by the bound check_delay_schedule certifies: floor(d /
    sqrt(C)) for an item of duration d. A deferred item counts with the
    longest duration the adversary's header assigns, max(mu, 1). The
    SimulationError names the item that may make the most. A duration
    the engine refuses counts for none, and an instance that fails
    validation is left to the engine to report."""
    sqrt_c = math.sqrt(delay_cost)
    header = instance.adversary
    mu = header.get("mu") if type(header) is dict else None
    longest = max(mu, 1.0) if type(mu) in (int, float) else 0.0
    total, most, worst = 0.0, 0.0, None
    for item_id, _, _, duration in instance.items:
        if duration is None:
            duration = longest
        if 0 < duration < math.inf:
            count = duration // sqrt_c
            total += count
            if count > most:
                most, worst = count, item_id
    if total > MAX_DELAY_MIGRATIONS and not validate(instance):
        raise SimulationError(
            f"a delay run at C = {delay_cost} may make {total:.4g} migrations, more than"
            f" {MAX_DELAY_MIGRATIONS:.0e}; item {worst} alone may make {most:.4g}"
        )


def _first_fit_cost(parts: Iterable[tuple[float, int, int, float]], scale: int) -> float:
    """FirstFit's total active time on a resolved instance given as its
    (start, id, size, end) parts in (start, id) order, each starting at a
    finite time >= 0 and ending after it starts. It is computed without
    the engine, so it checks the engine's first fit and is no copy of it.

    One pass over the parts, which holds only the live ones: each live
    part's (end, id, size, cell) sits in a heap, and it departs, in
    (end, id) order, before any part that starts at or after its end
    arrives. So departures come before arrivals at equal times and ties
    break by id, as the engine orders them. The bins are the leaves of
    one max-residual segment tree in opening order: an open bin's leaf
    holds its room, scale - load, and every other leaf -1, so the
    leftmost leaf with room >= size is the bin FirstFit picks. Each part
    keeps a one-element list naming its bin's leaf, shared by the bin's
    parts, so when the leaves run out the open bins move to the front of
    a tree at least twice their number by rewriting one list each. The
    cost adds open bins * elapsed time at each new event time, as the
    engine does, so the two sums are the same float."""
    slots = 8
    tree = [-1] * (2 * slots)
    cells: list[list[int] | None] = [None] * slots  # leaf -> its bin's cell
    next_leaf = 0
    live: list[tuple[float, int, int, list[int]]] = []  # heap of the live parts
    open_bins = 0
    total = prev = 0.0  # no part starts before 0, and nothing is open until one does
    parts = iter(parts)
    part = next(parts, None)
    while part or live:
        if live and (part is None or live[0][0] <= part[0]):
            time, _, size, cell = heappop(live)
            if time > prev:
                total += open_bins * (time - prev)
                prev = time
            i = cell[0] + slots
            value = tree[i] + size
            if value == scale:  # the bin is empty: it closes
                value = -1
                cells[cell[0]] = None
                open_bins -= 1
        else:
            time, item_id, size, end = part
            part = next(parts, None)
            if time > prev:
                total += open_bins * (time - prev)
                prev = time
            if tree[1] >= size:
                i = 1
                while i < slots:
                    i <<= 1
                    if tree[i] < size:
                        i += 1
                value = tree[i] - size
                cell = cells[i - slots]
            else:
                if next_leaf == slots:  # move the open bins to a new tree
                    kept = [c for c in cells if c is not None]
                    rooms = [tree[slots + c[0]] for c in kept]
                    slots = 8
                    while slots < 2 * len(kept):
                        slots *= 2
                    tree = [-1] * slots + rooms + [-1] * (slots - len(kept))
                    for j in range(slots - 1, 0, -1):
                        left, right = tree[2 * j], tree[2 * j + 1]
                        tree[j] = left if left > right else right
                    for leaf, c in enumerate(kept):
                        c[0] = leaf
                    cells = kept + [None] * (slots - len(kept))
                    next_leaf = len(kept)
                cell = cells[next_leaf] = [next_leaf]
                next_leaf += 1
                open_bins += 1
                value = scale - size
                i = cell[0] + slots
            heappush(live, (end, item_id, size, cell))
        # set the leaf and climb while the parent's max changes
        tree[i] = value
        while i > 1:
            sibling = tree[i ^ 1]
            if sibling > value:
                value = sibling
            i >>= 1
            if tree[i] == value:
                break
            tree[i] = value
    return total


# the first two fields: an Item's (id, arrival), a LedgerEntry's (time, item)
_FIRST, _SECOND = itemgetter(0), itemgetter(1)


def _small_parts(items, times_of, departures) -> Iterator[tuple[float, int, int, float]]:
    """check_decomposition's small parts in (arrival, id) order; times_of
    holds each migrated item's times, the first migration last."""
    for item_id, start, size, _ in sorted(sorted(items, key=_FIRST), key=_SECOND):
        times = times_of.get(item_id)
        yield start, item_id, size, start + ((times[-1] if times else departures[item_id]) - start)


def _big_parts(entries, times_of) -> Iterator[tuple[float, int, int, float]]:
    """check_decomposition's big parts in (migration time, id) order, one
    per ledger entry; times_of holds each migrated item's migration times
    and departure, the earliest last, and loses each part's start here."""
    for e in sorted(sorted(entries, key=_SECOND), key=_FIRST):
        later = times_of[e.item]
        start = later.pop()
        yield start, e.item, e.size_num, start + (later[-1] - start)


def check_decomposition(
    instance: Instance, result: SimulationResult, delay_cost: float
) -> None:
    """The delay run's cost must equal FirstFit on the small-parts plus
    FirstFit on the big-parts sub-instances; their duration ratios must
    satisfy the sub-instance preconditions. An item's small part covers
    [arrival, first migration), its whole delayed lifetime if it never
    migrated; each big part covers one stretch between consecutive
    migrations, the last ending at the departure. The parts are numbered
    in item order, as algorithms.decompose_delay_run numbers them, and a
    message names a part by its number.

    No sub-instance is built. A first pass per sub-instance reads the
    items, the ledger's migration times and the departures in item order:
    it applies validate's time rules to each part (the sizes and scale
    are the run's, which it validated), raising before any sweep, and
    keeps the shortest and longest duration for the mu tests. Then
    _first_fit_cost takes each sub-instance as a stream of (start, id,
    size, end) parts in (start, id) order, each ending at start + (end -
    start) as an Item of that duration would: the small parts from the
    items in (arrival, id) order, the big parts from the ledger in (time,
    item) order, each sized as its entry records the item. Each order is
    two stable sorts, as Engine.run orders arrivals, whatever order the
    run wrote them in. A part carries its item's id, not its part's
    number, so equal-time ties break by id, as the engine breaks them
    whatever order the items are listed in. _first_fit_cost is a sweep
    that shares no code with the engine, so the identity is checked
    against code the run did not use."""
    scale, departures, inf = instance.scale, result.departures, math.inf
    # migrated item -> its migration times; after the big parts' pass its
    # later times, the departure first, so the last is the next to start
    times_of: dict[int, list[float]] = {}
    for e in result.ledger.entries:  # ledger order: each item's ascending
        times_of.setdefault(e.item, []).append(e.time)

    # the small parts, one per item (both loops are written out: one shared
    # generator of (start, end, size) made the check about 7% slower)
    problems: list[str] = []
    shortest, longest = inf, 0.0
    for part, (item_id, start, _, _) in enumerate(instance.items):
        times = times_of.get(item_id)
        duration = (times[0] if times else departures[item_id]) - start
        if not (0 <= start < inf and 0 < duration < inf):  # NaN fails it too
            problems += time_problems(part, start, duration)
        if duration < shortest:
            shortest = duration
        if duration > longest:
            longest = duration
    if problems:  # a part of no length: a migration when it began
        raise InvariantViolation("decomposition", f"invalid sub-instance: {'; '.join(problems)}")
    mu_small = longest / shortest if instance.items else None

    # the big parts, from each migration to the next or to the departure
    shortest, longest = inf, 0.0
    part = 0
    for item_id, _, _, _ in instance.items:
        times = times_of.get(item_id)
        if times is None:
            continue
        times.append(departures[item_id])
        start = times[0]
        for end in islice(times, 1, None):
            duration = end - start
            if not (0 <= start < inf and 0 < duration < inf):
                problems += time_problems(part, start, duration)
            if duration < shortest:
                shortest = duration
            if duration > longest:
                longest = duration
            part += 1
            start = end
        times.reverse()
    if problems:
        raise InvariantViolation("decomposition", f"invalid sub-instance: {'; '.join(problems)}")
    mu_big = longest / shortest if part else None

    ff_small = _first_fit_cost(_small_parts(instance.items, times_of, departures), scale)
    ff_big = _first_fit_cost(_big_parts(result.ledger.entries, times_of), scale)
    total = result.total_active_time
    if abs(total - (ff_small + ff_big)) > 1e-9 * max(1.0, abs(total)):
        raise InvariantViolation(
            "decomposition",
            f"ALG {total} != FF(small) {ff_small} + FF(big) {ff_big}",
        )
    sqrt_c = math.sqrt(delay_cost)
    if mu_small is not None and mu_small > sqrt_c + 1e-9:
        raise InvariantViolation("decomposition", "mu of small parts exceeds sqrt(C)")
    if mu_big is not None and mu_big > 2 + 1e-9:
        raise InvariantViolation("decomposition", "mu of big parts exceeds 2")


# ----------------------------------------------------------------------
# trial execution

# report order; bad_bins, junk_load and packing come from one replay of
# the records
CHECKS = (
    "bad_bins",
    "junk_load",
    "packing",
    "per_time",
    "migration_budget",
    "size_budget",
    "delay_schedule",
    "decomposition",
)


class UnknownCheck(ValueError):
    """A requested check name that is not in CHECKS."""


def _check_names(checks: list[str]) -> None:
    """Raise UnknownCheck naming every check that is not in CHECKS."""
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise UnknownCheck(
            f"unknown check {', '.join(unknown)}; choose from {', '.join(CHECKS)}"
        )


@dataclass
class CheckedRun:
    """One simulation and the outcome of each requested check on it:
    None if it passed, else its InvariantViolation, in CHECKS order."""

    result: SimulationResult
    instance: Instance  # deferred durations resolved by the run
    policy: Policy
    outcomes: dict[str, InvariantViolation | None]
    max_pertime_ratio: float | None = None  # None unless per_time ran and passed
    opt: oracles.OptReport | None = None  # the instance's optimum, when per_time ran

    @property
    def violation(self) -> InvariantViolation | None:
        return next((v for v in self.outcomes.values() if v is not None), None)


def checked_run(config: ExperimentConfig, instance: Instance) -> CheckedRun:
    """Simulate config's policy on the instance once and run every check
    in config.checks on that run. The alpha-bounded checks pass vacuously
    without an alpha, which only a caller that skips check_config can ask
    for. An instance that fails validation raises
    InvariantViolation("validate", ...), from the one validation the
    engine makes."""
    _check_names(config.checks)
    alpha = config.alpha_fraction()
    policy = algorithms.make_policy(
        config.algorithm, alpha, config.f_fraction(), config.delay_cost
    )
    try:
        if isinstance(policy, algorithms.DelayPolicy):
            check_delay_migrations(instance, policy.delay_cost)
        # through the module global, which the benchmark patches to digest each run
        result = simulate(instance, policy, delay_cost=config.delay_cost or 0.0)
    except InvalidInstance as exc:
        raise InvariantViolation("validate", "; ".join(exc.problems)) from None
    resolved = (
        with_durations(instance, result.resolved_durations)
        if instance.has_deferred()
        else instance
    )
    run = CheckedRun(
        result, resolved, policy, dict.fromkeys(c for c in CHECKS if c in config.checks)
    )

    def check(name, fn, *args):
        if name in run.outcomes:
            try:
                return fn(*args)
            except InvariantViolation as exc:
                run.outcomes[name] = exc

    if run.outcomes.keys() & {"packing", "bad_bins", "junk_load"}:
        problem, broken = check_records(result)
        if problem and "packing" in run.outcomes:
            run.outcomes["packing"] = InvariantViolation("packing", problem)
        if broken:
            violation = InvariantViolation(*broken)
            for name in ("bad_bins", "junk_load"):
                if name in run.outcomes:
                    run.outcomes[name] = violation
    if alpha is not None:
        if "per_time" in run.outcomes:
            # through the module attribute, which the benchmark captures to count intervals
            run.opt = oracles.opt_total(resolved)
            run.max_pertime_ratio = check(
                "per_time", check_per_time, run.opt, result, alpha, policy.additive_at
            )
        check("migration_budget", check_migration_budget, resolved, result, alpha)
        check("size_budget", check_size_budget, resolved, result, alpha)
    check("delay_schedule", check_delay_schedule, resolved, result, config.delay_cost)
    check("decomposition", check_decomposition, resolved, result, config.delay_cost)
    return run


def row_params(generator: dict) -> str:
    """A row's `params`: the generator's keys but `family`, as JSON."""
    return json.dumps({k: v for k, v in generator.items() if k != "family"}, sort_keys=True)


def run_trial(config: ExperimentConfig, seed: int, params: str | None = None) -> dict:
    """One checked trial's row. params is row_params(config.generator),
    which cmd_run builds once per batch; it is built here if not given."""
    if params is None:
        params = row_params(config.generator)
    instance = build_instance(config.generator, seed)
    run = checked_run(config, instance)
    if run.violation is not None:
        raise run.violation
    result = run.result
    row = {
        "family": config.generator["family"],
        "params": params,
        "seed": seed,
        "alg": config.algorithm,
        "alpha": config.alpha or "",
        "f": config.f or "",
        "delay_c": config.delay_cost if config.delay_cost is not None else "",
        "alg_cost": result.total_active_time,
        "mig_unit": result.ledger.unit_count,
        "mig_size": result.ledger.size_sum,
        "max_pertime_ratio": (
            "" if run.max_pertime_ratio is None else run.max_pertime_ratio
        ),
        "phases": len(run.policy.phase_history) or "",
        "opt_lb": "",
        "opt_exact": "",
        "opt_ub": "",
        "opt_total": "",
        "ratio": "",
    }
    if config.compute_opt:
        report = run.opt
        if report is None:
            report = oracles.opt_total(run.instance)
        row["opt_lb"] = report.lower_bound
        row["opt_exact"] = report.all_exact
        row["opt_ub"] = report.upper_bound
        row["opt_total"] = report.opt_total
        denom = report.opt_total if report.all_exact else report.lower_bound
        if denom:
            row["ratio"] = result.total_active_time / denom
    return row


def cmd_run(config: ExperimentConfig) -> dict:
    """Execute all trials and assemble the report."""
    seeds = [config.base_seed + i for i in range(config.trials)]
    params = row_params(config.generator)
    if config.jobs > 1:
        # imported here: the pool's modules cost every other run setup time
        from concurrent.futures import ProcessPoolExecutor

        # about four chunks of trials per worker: one trial per task spends
        # more on pickling and queueing than a small trial takes to run
        chunksize = max(1, -(-len(seeds) // (4 * config.jobs)))
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(
                pool.map(run_trial, repeat(config), seeds, repeat(params), chunksize=chunksize)
            )
    else:
        # looked up per trial: the benchmark times trials by patching run_trial
        rows = [run_trial(config, seed, params) for seed in seeds]
    return {
        "config": config.to_dict(),
        "trials": rows,
        "aggregates": aggregate(rows),
    }


def aggregate(rows: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for col in ("alg_cost", "ratio", "mig_unit", "mig_size", "max_pertime_ratio"):
        values = [r[col] for r in rows if isinstance(r.get(col), (int, float))]
        if not values:
            continue
        total = sum(values)
        if math.isfinite(total):
            mean = statistics.fmean(values)
            std = sample_stdev(values) if len(values) > 1 else 0.0
        else:  # an infinite value, or a sum past the largest float
            mean, std = total / len(values), math.nan
        half = 3 * std / math.sqrt(len(values)) if values else 0.0
        out[col] = {
            "mean": mean,
            "std": std,
            "mean_3sigma": [mean - half, mean + half],
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    return out


def sample_stdev(values: list[float]) -> float:
    """The sample standard deviation of two or more finite numbers, the
    same float on every Python: the exact variance, computed in integers
    from each value's integer ratio, then its square root rounded once, as
    statistics.stdev does since 3.11 (3.10 rounds the variance first)."""
    ratios = [v.as_integer_ratio() for v in values]
    # every denominator is a power of two: bring each value over the largest
    bits = max(den for _, den in ratios).bit_length()
    xs = [num << (bits - den.bit_length()) for num, den in ratios]
    n, total = len(xs), sum(xs)
    # the variance is (n * sum x^2 - total^2) / (n (n - 1) 2^(2 (bits - 1)))
    ss = n * sum(x * x for x in xs) - total * total
    return _float_sqrt(ss, (n * (n - 1)) << (2 * (bits - 1)))


def _float_sqrt(num: int, den: int) -> float:
    """The square root of num / den (num >= 0, den > 0) rounded once to a
    float. The integer root is taken to 55 bits or more and rounded to
    odd (its last bit set if the root is inexact), which the one rounding
    to a 53-bit float does not spoil."""
    shift = (num.bit_length() - den.bit_length() - 109) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def rows_to_csv(rows: list[dict]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    return buf.getvalue()


def rows_to_markdown(rows: list[dict]) -> str:
    header = "| " + " | ".join(CSV_COLUMNS) + " |"
    rule = "|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|"
    lines = [header, rule]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(row.get(k, "")) for k in CSV_COLUMNS) + " |"
        )
    return "\n".join(lines) + "\n"


def applicable_checks(algorithm: str) -> list[str]:
    return list(algorithms.ALGORITHMS[algorithm].checks)


def cmd_verify(
    config: ExperimentConfig, instance: Instance
) -> list[tuple[str, bool, str]]:
    """Run one instance once with every applicable check; report per-check results."""
    checks = applicable_checks(config.algorithm)
    run = checked_run(replace(config, checks=checks), instance)
    return [(c, run.outcomes[c] is None, str(run.outcomes[c] or "")) for c in checks]
