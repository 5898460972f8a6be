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
from fractions import Fraction

from .core import Instance, Item, ScaledSize
from .engine import (
    BAD,
    DEDICATED,
    GOOD,
    JUNK,
    Engine,
    Policy,
    SimulationError,
    SimulationResult,
)


def size_class(size: ScaledSize) -> int:
    """The unique c with size in (1/2^(c+1), 1/2^c], computed exactly."""
    num, scale = size
    if num <= 0:
        raise ValueError("size must be positive")
    c = 0
    while num * (2 ** (c + 1)) <= scale:
        c += 1
    return c


MIG_ORDERS = ("id", "size-desc")


def check_params(alpha: Fraction, mig_order: str, f: Fraction = Fraction(1)) -> None:
    """Raise a ValueError unless alpha, f and mig_order are in range."""
    if not 0 < alpha < Fraction(1, 2):
        raise ValueError("alpha must lie in (0, 1/2)")
    if not alpha < f <= 1:
        raise ValueError("f must lie in (alpha, 1]")
    if mig_order not in MIG_ORDERS:
        raise ValueError(f"unknown migration order {mig_order!r}")


class FirstFitPolicy(Policy):
    """Each item goes to the earliest-opened bin it fits in, else a new bin."""

    name = "firstfit"

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        engine = self.engine
        b = engine.first_fit("ff", GOOD, size_num) or engine.open_bin(GOOD, "ff")
        engine.place(item_id, b.id)


class SingleClassMigrator:
    """Arrival/departure rules of the bounded-migration single-class
    algorithm, bound to one bin group, which also keys its migrations.
    Reused per size class by the complete algorithm and (with f = 1 -
    alpha) by the size-cost one, which pass checked parameters."""

    def __init__(
        self, engine: Engine, group: str, alpha: Fraction, f: Fraction, mig_order: str
    ):
        self.engine = engine
        self.group = group
        self.alpha = alpha
        self.f = f
        self.mig_order = mig_order

    def _relabel(self, b) -> None:
        f = self.f
        if b.label == BAD and b.load * f.denominator >= f.numerator * self.engine.scale:
            self.engine.set_label(b.id, GOOD)

    def place(self, item_id: int, size_num: int) -> None:
        # first fit over Bad bins, then Good bins, then a new Bad bin
        target = self.engine.first_fit(self.group, BAD, size_num)
        if target is None:
            target = self.engine.first_fit(self.group, GOOD, size_num)
        if target is None:
            target = self.engine.open_bin(BAD, self.group)
        self.engine.place(item_id, target.id)
        self._relabel(target)

    def handle_departure(self, bin_id: int, time: float) -> None:
        engine = self.engine
        b = engine.bin(bin_id)
        if b.label != GOOD or b.load == 0:
            return
        alpha = self.alpha
        if b.load * alpha.denominator >= alpha.numerator * engine.scale:
            return
        # drain: migrate every resident first-fit over Bad, Good, then new bins
        residents = sorted(b.items)
        if self.mig_order == "size-desc":
            residents.sort(key=lambda i: (-engine.size_of(i), i))
        others = [t for t in engine.bins_in(self.group) if t.id != bin_id]
        targets = [t for t in others if t.label == BAD] + [
            t for t in others if t.label == GOOD
        ]
        for item_id in residents:
            size = engine.size_of(item_id)
            dest = None
            for t in targets:
                if not t.closed and t.load + size <= engine.scale:
                    dest = t
                    break
            if dest is None:
                dest = engine.open_bin(BAD, self.group)
                targets.append(dest)
            engine.migrate(item_id, dest.id, "drain", self.group, time)
            self._relabel(dest)


class SingleClassPolicy(Policy):
    """Bounded-migration algorithm for a single size class."""

    name = "alg1"
    params = ("alpha", "f", "mig_order")
    checks = ("packing", "bad_bins", "junk_load", "per_time", "migration_budget")

    def __init__(self, alpha: Fraction, f: Fraction, mig_order: str = "id"):
        self.alpha = Fraction(alpha)
        self.f = Fraction(f)
        self.mig_order = mig_order
        check_params(self.alpha, mig_order, self.f)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.migrator = SingleClassMigrator(
            engine, "class", self.alpha, self.f, self.mig_order
        )

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        self.migrator.place(item_id, size_num)

    def on_departure(self, item_id: int, bin_id: int, time: float) -> None:
        self.migrator.handle_departure(bin_id, time)


class MultiClassPolicy(Policy):
    """Complete bounded-migration algorithm: guess-and-double the maximum
    number of simultaneous items, one single-class sub-instance per size
    class, one junk bin per phase for the classes beyond the guess. Its
    per-time bound adds two bins per phase begun."""

    name = "alg2"
    params = ("alpha", "mig_order")
    checks = SingleClassPolicy.checks

    def __init__(self, alpha: Fraction, mig_order: str = "id"):
        self.alpha = Fraction(alpha)
        self.mig_order = mig_order
        check_params(self.alpha, mig_order)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.rho = 1
        self.classes: dict[int, SingleClassMigrator] = {}
        self._start_class(0)
        self.phase = 1
        self.phase_history: list[tuple[float, int]] = [(0.0, 1)]
        self.junk = engine.open_bin(JUNK, "junk:1", persistent=True)
        self.junk_bins: list[int] = [self.junk.id]

    def _start_class(self, c: int) -> None:
        f_c = Fraction(1, 2) if c == 0 else Fraction(1) - Fraction(1, 2**c)
        self.classes[c] = SingleClassMigrator(
            self.engine, f"class:{c}", self.alpha, f_c, self.mig_order
        )

    def _double(self, time: float) -> None:
        self.rho *= 2
        self._start_class(self.rho.bit_length() - 1)
        self.phase += 1
        self.phase_history.append((time, self.phase))
        self.engine.close_bin(self.junk.id)  # drops persistence; stays until empty
        self.junk = self.engine.open_bin(JUNK, f"junk:{self.phase}", persistent=True)
        self.junk_bins.append(self.junk.id)

    def phases_at(self, time: float) -> int:
        count = 1
        for start, phase in self.phase_history:
            if start <= time:
                count = phase
        return count

    def additive_at(self, time: float) -> int:
        return 2 * self.phases_at(time)

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        # live count includes the arriving item; a burst can cross several
        # powers of two, so the doubling repeats
        while self.engine.live_count() > self.rho:
            self._double(time)
        c = size_class(ScaledSize(size_num, self.engine.scale))
        log_rho = self.rho.bit_length() - 1
        if c < log_rho:
            self.classes[c].place(item_id, size_num)
        else:
            # overflow here would be a real bug: the per-phase small items
            # always fit in one junk bin
            self.engine.place(item_id, self.junk.id)

    def on_departure(self, item_id: int, bin_id: int, time: float) -> None:
        group = self.engine.bin(bin_id).group
        if group.startswith("class:"):
            self.classes[int(group.split(":")[1])].handle_departure(bin_id, time)


class SizeCostPolicy(Policy):
    """Size-cost variant: items of size >= alpha get a dedicated bin; the
    rest run the single-class rules with promotion threshold 1 - alpha."""

    name = "sizecost"
    params = ("alpha", "mig_order")
    checks = ("packing", "bad_bins", "per_time", "size_budget")

    def __init__(self, alpha: Fraction, mig_order: str = "id"):
        self.alpha = Fraction(alpha)
        self.mig_order = mig_order
        check_params(self.alpha, mig_order)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.migrator = SingleClassMigrator(
            engine, "shared", self.alpha, 1 - self.alpha, self.mig_order
        )

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        alpha = self.alpha
        if size_num * alpha.denominator >= alpha.numerator * self.engine.scale:
            b = self.engine.open_bin(DEDICATED, "dedicated")
            self.engine.place(item_id, b.id)
        else:
            self.migrator.place(item_id, size_num)

    def on_departure(self, item_id: int, bin_id: int, time: float) -> None:
        if self.engine.bin(bin_id).group == "shared":
            self.migrator.handle_departure(bin_id, time)


class DelayPolicy(Policy):
    """Migration-delay algorithm: first-fit into the small-item pool on
    arrival; migrate to the big-item pool after exactly sqrt(C) in-system
    time, then again every C + sqrt(C) after the most recent migration.

    Same-time checkpoint migrations are batched: all movers leave their
    bins first, then re-enter first-fit in item-id order, matching the
    event order of the decomposed sub-instances.
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
        self.location: dict[int, str] = {}

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        engine = self.engine
        b = engine.first_fit("Is", GOOD, size_num) or engine.open_bin(GOOD, "Is")
        engine.place(item_id, b.id)
        self.location[item_id] = "Is"
        engine.schedule_checkpoint(item_id, time + self.sqrt_c)

    def on_checkpoints(self, item_ids: list[int], time: float) -> None:
        engine = self.engine
        staged = [(i, engine.begin_migration(i)) for i in sorted(item_ids)]
        for item_id, size_num in staged:
            src_pool = self.location[item_id]
            dest = engine.first_fit("Ib", GOOD, size_num) or engine.open_bin(GOOD, "Ib")
            rule = "small-to-big" if src_pool == "Is" else "reshuffle"
            engine.complete_migration(item_id, dest.id, rule, src_pool, time)
            self.location[item_id] = "Ib"
            engine.schedule_checkpoint(
                item_id, time + self.delay_cost + self.sqrt_c
            )


ALGORITHMS = {
    cls.name: cls
    for cls in (FirstFitPolicy, SingleClassPolicy, MultiClassPolicy, SizeCostPolicy, DelayPolicy)
}


def make_policy(
    name: str,
    alpha: Fraction | None = None,
    f: Fraction | None = None,
    delay_cost: float | None = None,
    mig_order: str = "id",
) -> Policy:
    """The policy ALGORITHMS names, built from the parameters its class takes."""
    cls = ALGORITHMS.get(name)
    if cls is None:
        raise ValueError(f"unknown algorithm {name!r}")
    values = {"alpha": alpha, "f": f, "delay_cost": delay_cost, "mig_order": mig_order}
    return cls(*(values[p] for p in cls.params))


def decompose_delay_run(
    instance: Instance, result: SimulationResult
) -> tuple[Instance, Instance]:
    """Split each item at its migration times into the small-parts and
    big-parts sub-instances of a delay-model run.

    The small part covers [arrival, first migration) (the whole lifetime
    if never migrated); each big part covers one stretch between
    consecutive migrations, the last ending at the delayed departure.
    """
    small_items: list[Item] = []
    big_items: list[Item] = []
    times_by_item: dict[int, list[float]] = {}
    for e in result.ledger.entries:
        times_by_item.setdefault(e.item, []).append(e.time)
    for it in instance.items:
        times = sorted(times_by_item.get(it.id, []))
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
