"""The packing policies: FirstFit, the bounded-migration single-class and
multi-class algorithms, the size-cost variant with dedicated bins, and the
migration-delay algorithm, plus the sub-instance decomposition of a delay
run. All threshold comparisons are exact: an integer load is compared
with a Fraction threshold by cross-multiplying.

Each policy class states its name, the parameters its constructor takes,
the harness checks that apply to it and its per-time bound. ALGORITHMS is
the one registry of names, which make_policy, the harness and the CLI read."""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .core import Instance, Item
from .engine import (
    BAD,
    DEDICATED,
    GOOD,
    JUNK,
    Bin,
    Engine,
    Policy,
    SimulationError,
    SimulationResult,
)


def size_class(num: int, scale: int) -> int:
    """The unique c with num/scale in (1/2^(c+1), 1/2^c], computed
    exactly: num * 2^c <= scale < num * 2^(c+1) holds for c =
    floor(log2(scale // num)), the bit length of scale // num less one."""
    if not 0 < num <= scale:
        raise ValueError("size must lie in (0, scale]")
    return (scale // num).bit_length() - 1


def check_params(alpha: Fraction, f: Fraction = Fraction(1)) -> None:
    """Raise a ValueError unless 0 < alpha < 1/2 and alpha < f <= 1.
    alpha and f are Fractions, each parsed once by its caller; the ranges
    are tested on their integer numerators and (positive) denominators, so
    no Fraction is built."""
    p, q = alpha.numerator, alpha.denominator
    if not 0 < 2 * p < q:
        raise ValueError("alpha must lie in (0, 1/2)")
    if not (p * f.denominator < f.numerator * q and f.numerator <= f.denominator):
        raise ValueError("f must lie in (alpha, 1]")


class FirstFitPolicy(Policy):
    """Each item goes to the earliest-opened bin it fits in, else a new bin."""

    name = "firstfit"

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        self.engine.place_first_fit(item_id, "ff", (GOOD,), GOOD)


class SingleClassMigrator:
    """Arrival/departure rules of the bounded-migration single-class
    algorithm, bound to one bin group, the ledger's class of its migrations.
    Reused per size class by the complete algorithm and (with f = 1 -
    alpha) by the size-cost one, which pass checked parameters; f comes
    as the integers (numerator, denominator) of the promotion threshold.

    Both thresholds are turned into integers once: a Bad bin turns Good
    when load * f_den >= f_num * scale, and a Good bin is drained when
    load * alpha.denominator < alpha.numerator * scale. A bin opens under
    the label its first item earns, Good if that item alone reaches f,
    else Bad, so no record shows a Bad bin at f. Where every item either
    fits any Bad bin or reaches f alone, as in one size class, a group
    then holds at most one Bad bin after every record, not only at the
    end of each event. A drained item is below alpha < f, so a bin the
    drain opens is Bad."""

    def __init__(
        self, engine: Engine, group: str, alpha: Fraction, f: tuple[int, int]
    ):
        self.engine = engine
        self.group = group
        f_num, f_den = f
        self._good_at = (f_num * engine.scale, f_den)
        self._drain_below = (alpha.numerator * engine.scale, alpha.denominator)

    def _new_label(self, size: int) -> str:
        threshold, den = self._good_at
        return GOOD if size * den >= threshold else BAD

    def _relabel(self, b) -> None:
        threshold, den = self._good_at
        if b.label == BAD and b.load * den >= threshold:
            self.engine.set_label(b.id, GOOD)

    def place(self, item_id: int, size: int) -> None:
        # first fit over Bad bins, then Good bins, then a new bin: Good if
        # the item alone reaches f, else Bad
        b = self.engine.place_first_fit(item_id, self.group, (BAD, GOOD), self._new_label(size))
        self._relabel(b)

    def handle_departure(self, b: Bin, time: float) -> None:
        engine = self.engine
        if b.label != GOOD or b.load == 0:
            return
        threshold, den = self._drain_below
        if b.load * den >= threshold:
            return
        # drain: residents move in id order, by first fit over the targets listed
        # here: Bad, then Good, then bins it opens; one turning Good keeps its place
        residents = sorted(b.items)
        others = [t for t in engine.bins_in(self.group) if t is not b]
        targets = [t for t in others if t.label == BAD] + [
            t for t in others if t.label == GOOD
        ]
        for item_id in residents:
            size = engine.size_of(item_id)
            dest = None
            for t in targets:
                if t.load + size <= engine.scale:
                    dest = t
                    break
            if dest is None:
                dest = engine.open_bin(self._new_label(size), self.group)
                targets.append(dest)
            engine.migrate(item_id, dest.id, "drain", time)
            self._relabel(dest)


class SingleClassPolicy(Policy):
    """Bounded-migration algorithm for a single size class."""

    name = "alg1"
    params = ("alpha", "f")
    checks = ("packing", "bad_bins", "junk_load", "per_time", "migration_budget")

    def __init__(self, alpha: Fraction, f: Fraction):
        self.alpha = Fraction(alpha)
        self.f = Fraction(f)
        check_params(self.alpha, self.f)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.migrator = SingleClassMigrator(
            engine, "class", self.alpha, (self.f.numerator, self.f.denominator)
        )

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        self.migrator.place(item_id, size_num)

    def on_departure(self, item_id: int, b: Bin, time: float) -> None:
        self.migrator.handle_departure(b, time)


class MultiClassPolicy(Policy):
    """Complete bounded-migration algorithm: guess-and-double the maximum
    number of simultaneous items, one single-class sub-instance per size
    class, one junk bin per phase for the classes beyond the guess. Its
    per-time bound adds two bins per phase begun."""

    name = "alg2"
    params = ("alpha",)
    checks = SingleClassPolicy.checks

    def __init__(self, alpha: Fraction):
        self.alpha = Fraction(alpha)
        check_params(self.alpha)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.rho = 1
        self.classes: dict[int, SingleClassMigrator] = {}
        self.by_group: dict[str, SingleClassMigrator] = {}  # the classes by group name
        self._start_class(0)
        self.phase = 1
        self.phase_history: list[tuple[float, int]] = [(0.0, 1)]
        self.junk = engine.open_bin(JUNK, "junk:1", persistent=True)
        self.junk_bins: list[int] = [self.junk.id]

    def _start_class(self, c: int) -> None:
        f_c = (2**c - 1, 2**c) if c else (1, 2)  # 1 - 2^-c, and 1/2 for class 0
        migrator = SingleClassMigrator(
            self.engine, f"class:{c}", self.alpha, f_c
        )
        self.classes[c] = self.by_group[migrator.group] = migrator

    def _double(self, time: float) -> None:
        self.rho *= 2
        self._start_class(self.rho.bit_length() - 1)
        self.phase += 1
        self.phase_history.append((time, self.phase))
        self.engine.close_bin(self.junk.id)  # drops persistence; stays until empty
        self.junk = self.engine.open_bin(JUNK, f"junk:{self.phase}", persistent=True)
        self.junk_bins.append(self.junk.id)

    def phases_at(self, time: float) -> int:
        """The phases begun by time: the last phase_history entry that
        starts at or before it, found by bisection. Starts never decrease,
        and a burst that doubles more than once begins several phases at
        one time, all of which (time, inf) sorts after."""
        begun = bisect_right(self.phase_history, (time, math.inf))
        return self.phase_history[begun - 1][1] if begun else 1

    def additive_at(self, time: float) -> int:
        return 2 * self.phases_at(time)

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        # live count includes the arriving item; a burst can cross several
        # powers of two, so the doubling repeats
        engine = self.engine
        while len(engine.live) > self.rho:
            self._double(time)
        c = (engine.scale // size_num).bit_length() - 1  # size_class, inlined
        if c < self.rho.bit_length() - 1:
            self.classes[c].place(item_id, size_num)
        else:
            # overflow here would be a real bug: the per-phase small items
            # always fit in one junk bin
            engine.place(item_id, self.junk.id)

    def on_departure(self, item_id: int, b: Bin, time: float) -> None:
        migrator = self.by_group.get(b.group)
        if migrator is not None:  # not a junk bin
            migrator.handle_departure(b, time)


class SizeCostPolicy(Policy):
    """Size-cost variant: items of size >= alpha get a dedicated bin; the
    rest run the single-class rules with promotion threshold 1 - alpha."""

    name = "sizecost"
    params = ("alpha",)
    checks = ("packing", "bad_bins", "per_time", "size_budget")

    def __init__(self, alpha: Fraction):
        self.alpha = Fraction(alpha)
        check_params(self.alpha)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        p, q = self.alpha.numerator, self.alpha.denominator
        self.migrator = SingleClassMigrator(
            engine, "shared", self.alpha, (q - p, q)
        )
        # size >= alpha, in integers: size_num * q >= p * scale
        self._dedicated_at = (p * engine.scale, q)

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        threshold, den = self._dedicated_at
        if size_num * den >= threshold:
            b = self.engine.open_bin(DEDICATED, "dedicated")
            self.engine.place(item_id, b.id)
        else:
            self.migrator.place(item_id, size_num)

    def on_departure(self, item_id: int, b: Bin, time: float) -> None:
        if b.group == "shared":
            self.migrator.handle_departure(b, time)


class DelayPolicy(Policy):
    """Migration-delay algorithm: first-fit into the small-item pool on
    arrival; migrate to the big-item pool after exactly sqrt(C) in-system
    time, then again every C + sqrt(C) after the most recent migration.

    Same-time checkpoint migrations are batched: all movers leave their
    bins first, then re-enter first-fit in item-id order, matching the
    event order of the decomposed sub-instances; the batch is one
    migrate_first_fit call. The engine's migration count gives each move's
    rule: small-to-big at first, reshuffle after.
    """

    name = "delay"
    params = ("delay_cost",)
    checks = ("packing", "delay_schedule", "decomposition")

    def __init__(self, delay_cost: float):
        if delay_cost < 1:
            raise ValueError("delay cost must be >= 1")
        self.delay_cost = float(delay_cost)
        self.sqrt_c = math.sqrt(self.delay_cost)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        if engine.delay_cost != self.delay_cost:
            raise SimulationError("engine delay cost does not match the policy")

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        self.engine.place_first_fit(item_id, "Is", (GOOD,), GOOD)
        checkpoint = time + self.sqrt_c
        if checkpoint == time:  # it would migrate the item at its arrival
            raise SimulationError(f"t={time}: the first checkpoint, t + sqrt(C), rounds to t")
        self.engine.schedule_checkpoint(item_id, checkpoint)

    def on_checkpoints(self, item_ids: list[int], time: float) -> None:
        engine = self.engine
        next_checkpoint = time + self.delay_cost + self.sqrt_c
        if next_checkpoint - time <= self.delay_cost:  # the departure keeps pace, forever
            raise SimulationError(
                f"t={time}: the next checkpoint, t + C + sqrt(C), rounds to at most"
                " t + C, so the item would never depart"
            )
        migrated = engine.migrations_per_item
        moves = []  # a loop, not a comprehension: most batches hold one item
        for item_id in item_ids:
            moves.append((item_id, "reshuffle" if item_id in migrated else "small-to-big"))
        engine.migrate_first_fit(moves, "Ib", (GOOD,), GOOD, time)
        for item_id in item_ids:
            engine.schedule_checkpoint(item_id, next_checkpoint)


ALGORITHMS = {
    cls.name: cls
    for cls in (FirstFitPolicy, SingleClassPolicy, MultiClassPolicy, SizeCostPolicy, DelayPolicy)
}


def make_policy(
    name: str,
    alpha: Fraction | None = None,
    f: Fraction | None = None,
    delay_cost: float | None = None,
) -> Policy:
    """The policy ALGORITHMS names, built from the parameters its class takes."""
    cls = ALGORITHMS.get(name)
    if cls is None:
        raise ValueError(f"unknown algorithm {name!r}")
    values = {"alpha": alpha, "f": f, "delay_cost": delay_cost}
    return cls(*(values[p] for p in cls.params))


def decompose_delay_run(
    instance: Instance, result: SimulationResult
) -> tuple[Instance, Instance]:
    """Split each item at its migration times into the small-parts and
    big-parts sub-instances of a delay-model run.

    The small part covers [arrival, first migration) (the whole lifetime
    if never migrated); each big part covers one stretch between
    consecutive migrations, the last ending at the delayed departure.
    harness.check_decomposition builds the same parts' events without
    these sub-instances; the tests hold the two to each other.
    """
    small_items: list[Item] = []
    big_items: list[Item] = []
    times_by_item: dict[int, list[float]] = {}
    for e in result.ledger.entries:
        times_by_item.setdefault(e.item, []).append(e.time)
    for it in instance.items:
        times = times_by_item.get(it.id, [])  # ledger order: ascending
        departure = result.departures[it.id]
        if not times:
            small_items.append(
                Item(len(small_items), it.arrival, it.size_num, departure - it.arrival)
            )
            continue
        small_items.append(
            Item(len(small_items), it.arrival, it.size_num, times[0] - it.arrival)
        )
        bounds = times + [departure]
        for start, end in zip(bounds, bounds[1:]):
            big_items.append(Item(len(big_items), start, it.size_num, end - start))
    small = Instance(items=tuple(small_items), scale=instance.scale)
    big = Instance(items=tuple(big_items), scale=instance.scale)
    return small, big
