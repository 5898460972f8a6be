"""The packing policies: FirstFit, the bounded-migration single-class and
multi-class algorithms, the size-cost variant with dedicated bins, and the
migration-delay algorithm, plus the sub-instance decomposition of a delay
run. All threshold comparisons are exact (integer loads vs Fraction
thresholds)."""

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


class FirstFitPool:
    """Ordered pool of bins filled first-fit: each item goes to the
    earliest-opened open bin where it fits, else a fresh bin. The pool
    owns its group, so every bin in it carries the pool's label."""

    def __init__(self, engine: Engine, group: str, label: str = GOOD):
        self.engine = engine
        self.group = group
        self.label = label

    def select(self, size_num: int):
        b = self.engine.first_fit(self.group, self.label, size_num)
        return b if b is not None else self.engine.open_bin(self.label, self.group)


class FirstFitPolicy(Policy):
    name = "firstfit"

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.pool = FirstFitPool(engine, "ff")

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        self.engine.place(item_id, self.pool.select(size_num).id)


class SingleClassMigrator:
    """Arrival/departure rules of the bounded-migration single-class
    algorithm, bound to one bin group. Reused per size class by the
    complete algorithm and (with f = 1 - alpha) by the size-cost one."""

    def __init__(
        self,
        engine: Engine,
        group: str,
        alpha: Fraction,
        f: Fraction,
        class_key: str,
        mig_order: str = "id",
    ):
        if not Fraction(0) < alpha < Fraction(1, 2):
            raise ValueError("alpha must lie in (0, 1/2)")
        if not alpha < f <= 1:
            raise ValueError("f must lie in (alpha, 1]")
        if mig_order not in ("id", "size-desc"):
            raise ValueError(f"unknown migration order {mig_order!r}")
        self.engine = engine
        self.group = group
        self.alpha = alpha
        self.f = f
        self.class_key = class_key
        self.mig_order = mig_order

    def _relabel(self, b) -> None:
        if b.label == BAD and Fraction(b.load, self.engine.scale) >= self.f:
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
        if Fraction(b.load, engine.scale) >= self.alpha:
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
            engine.migrate(item_id, dest.id, "drain", self.class_key, time)
            self._relabel(dest)


class SingleClassPolicy(Policy):
    """Bounded-migration algorithm for a single size class."""

    name = "alg1"

    def __init__(
        self,
        alpha: Fraction,
        f: Fraction,
        item_class: int | None = None,
        mig_order: str = "id",
    ):
        self.alpha = Fraction(alpha)
        self.f = Fraction(f)
        self.item_class = item_class
        self.mig_order = mig_order

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.migrator = SingleClassMigrator(
            engine, "class", self.alpha, self.f, "class", self.mig_order
        )

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        if self.item_class is not None:
            c = size_class(ScaledSize(size_num, self.engine.scale))
            if c != self.item_class:
                raise SimulationError(
                    f"item {item_id} has class {c}, expected {self.item_class}"
                )
        self.migrator.place(item_id, size_num)

    def on_departure(self, item_id: int, bin_id: int, time: float) -> None:
        self.migrator.handle_departure(bin_id, time)


class MultiClassPolicy(Policy):
    """Complete bounded-migration algorithm: guess-and-double the maximum
    number of simultaneous items, one single-class sub-instance per size
    class, one junk bin per phase for the classes beyond the guess."""

    name = "alg2"

    def __init__(self, alpha: Fraction, mig_order: str = "id"):
        self.alpha = Fraction(alpha)
        if not Fraction(0) < self.alpha < Fraction(1, 2):
            raise ValueError("alpha must lie in (0, 1/2)")
        self.mig_order = mig_order

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
            self.engine, f"class:{c}", self.alpha, f_c, f"class:{c}", self.mig_order
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

    def __init__(self, alpha: Fraction, mig_order: str = "id"):
        self.alpha = Fraction(alpha)
        if not Fraction(0) < self.alpha < Fraction(1, 2):
            raise ValueError("alpha must lie in (0, 1/2)")
        self.mig_order = mig_order

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        self.migrator = SingleClassMigrator(
            engine,
            "shared",
            self.alpha,
            Fraction(1) - self.alpha,
            "shared",
            self.mig_order,
        )

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        if Fraction(size_num, self.engine.scale) >= self.alpha:
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

    def __init__(self, delay_cost: float):
        if delay_cost < 1:
            raise ValueError("delay cost must be >= 1")
        self.delay_cost = float(delay_cost)
        self.sqrt_c = math.sqrt(self.delay_cost)

    def bind(self, engine: Engine) -> None:
        super().bind(engine)
        if engine.delay_cost != self.delay_cost:
            raise SimulationError("engine delay cost does not match the policy")
        self.small = FirstFitPool(engine, "Is")
        self.big = FirstFitPool(engine, "Ib")
        self.location: dict[int, str] = {}

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        self.engine.place(item_id, self.small.select(size_num).id)
        self.location[item_id] = "Is"
        self.engine.schedule_checkpoint(item_id, time + self.sqrt_c)

    def on_checkpoints(self, item_ids: list[int], time: float) -> None:
        engine = self.engine
        staged = [(i, engine.begin_migration(i)) for i in sorted(item_ids)]
        for item_id, size_num in staged:
            src_pool = self.location[item_id]
            dest = self.big.select(size_num)
            rule = "small-to-big" if src_pool == "Is" else "reshuffle"
            engine.complete_migration(item_id, dest.id, rule, src_pool, time)
            self.location[item_id] = "Ib"
            engine.schedule_checkpoint(
                item_id, time + self.delay_cost + self.sqrt_c
            )


def make_policy(
    name: str,
    alpha: Fraction | None = None,
    f: Fraction | None = None,
    delay_cost: float | None = None,
    mig_order: str = "id",
    item_class: int | None = None,
) -> Policy:
    if name == "firstfit":
        return FirstFitPolicy()
    if name == "alg1":
        return SingleClassPolicy(alpha, f, item_class=item_class, mig_order=mig_order)
    if name == "alg2":
        return MultiClassPolicy(alpha, mig_order=mig_order)
    if name == "sizecost":
        return SizeCostPolicy(alpha, mig_order=mig_order)
    if name == "delay":
        return DelayPolicy(delay_cost)
    raise ValueError(f"unknown algorithm {name!r}")


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
