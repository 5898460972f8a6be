"""Deterministic event-driven simulator for dynamic bin packing policies.

The engine owns all packing state. Policies observe bins and item sizes
and decide placements/migrations through the engine API; they never see
durations (non-clairvoyance) -- the only duration information a policy
receives is the departure event itself.

Event order at equal time: departures, then migration checkpoints, then
arrivals, then adversary resolution; ties broken by item id.

The event queue holds only live items. Arrivals are read in order from
the instance's items, sorted once by (arrival, id); a heap holds the
departure of each live item (pushed when it arrives, or when the
adversary resolves its duration), pending checkpoints and the resolve
event, and the two merge by (time, kind). So the heap stays as small as
the live set, not 2n entries, and the queue's cost per event does not
grow with n. When a run ends the engine drops its policy, which refers back
to it: no reference cycle outlives the run, and everything it built is
freed by reference counting as soon as the caller lets go of the result,
policy and engine, without a pass of the cyclic garbage collector.

The engine records what it did as tuples in two flat lists. `actions`
holds one `(action, *fields)` record per state change, with the fields
named in `ACTION_FIELDS`. `events` holds one `(time, kind, item, end)`
record per processed event, where `end` is the index in `actions` just
past the event's last action, so an event's actions start at the
previous record's `end` (0 for the first). Actions a policy takes while
binding form a first `(None, "SETUP", None, end)` record, present only
when there are any. `Replay` is the one reader of the records' fields
(`SimulationResult.trace` aside), behind every packing and Bad-bin check.
Tuples of plain values stay small and drop out of the cyclic garbage
collector's walks, so a run keeps its records at little cost;
`SimulationResult.trace` builds the old list of dicts from them on
demand. The segments of constant open-bin count are kept the same way,
as two flat columns: `times`, the boundaries, and `open_counts`, one per
segment; `SimulationResult.segments` builds a `Segment` list from them on
demand. So the collector walks a few lists of a result, not an object
per segment or per record. What it still walks is the `Bin`s of a running
engine (slotted, each with its `set` of items), every `Item` and
`LedgerEntry` (tuples, but the collector never untracks a tuple
subclass) and the engine's dicts and lists.

`Engine.bins` holds every bin ever opened, closed ones included, so a
policy can still look up a bin that closed in the event it handles.
`Engine.bins_in` yields only the open bins of a group, from a per-group
index that a bin leaves when it closes. First fit runs on a max-residual
segment tree per (group, label) over opening order, so a placement costs
O(log B) in the number B of open bins of the group, not a scan of every
bin ever opened; a group with only a few open bins is scanned instead.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Instance, UnresolvedDurationError, validate

BAD = "Bad"
GOOD = "Good"
JUNK = "Junk"
DEDICATED = "Dedicated"


class SimulationError(Exception):
    pass


class CapacityViolation(SimulationError):
    pass


class EventKind(IntEnum):
    DEPARTURE = 0
    CHECKPOINT = 1
    ARRIVAL = 2
    ADVERSARY_RESOLVE = 3


EVENT_NAMES = tuple(kind.name for kind in EventKind)
# the kinds as the queue holds them: plain ints compare faster than members
_DEPARTURE, _CHECKPOINT, _ARRIVAL, _RESOLVE = map(int, EventKind)

# the fields after the action name in each record of Engine.actions
ACTION_FIELDS = {
    "open": ("bin", "label", "group"),
    "place": ("item", "bin", "size"),
    "migrate": ("item", "src", "dst", "size"),
    "depart": ("item", "bin", "size"),
    "close": ("bin",),
    "label": ("bin", "old", "new"),
}


@dataclass(slots=True)
class Bin:
    id: int
    label: str
    group: str
    load: int = 0
    items: set[int] = field(default_factory=set)
    persistent: bool = False  # survives emptying (junk bin within its phase)
    closed: bool = False

    @property
    def open(self) -> bool:
        return self.load > 0


class LedgerEntry(NamedTuple):
    time: float
    item: int
    size_num: int
    source: int
    destination: int
    class_key: str
    rule: str


class MigrationLedger:
    def __init__(self, scale: int):
        self.scale = scale
        self.entries: list[LedgerEntry] = []

    def record(self, entry: LedgerEntry) -> None:
        self.entries.append(entry)

    @property
    def unit_count(self) -> int:
        return len(self.entries)

    @property
    def size_sum(self) -> float:
        return sum(e.size_num for e in self.entries) / self.scale

    def per_class(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.class_key] = counts.get(e.class_key, 0) + 1
        return counts


@dataclass
class Segment:
    start: float
    end: float
    open_bins: int


@dataclass
class SimulationResult:
    total_active_time: float
    # segment i is [times[i], times[i + 1]) with open_counts[i] open bins;
    # times has one entry more than open_counts, or both are empty
    times: list[float]
    open_counts: list[int]
    ledger: MigrationLedger
    departures: dict[int, float]
    resolved_durations: dict[int, float]
    migrations_per_item: dict[int, int]
    events: list[tuple]
    actions: list[tuple]
    scale: int

    @property
    def trace(self) -> list[dict]:
        """The records as one dict per event, each holding a dict per
        action; built anew on every access."""
        trace = []
        start = 0
        for time, kind, item, end in self.events:
            actions = [
                dict(zip(("action", *ACTION_FIELDS[act[0]]), act))
                for act in self.actions[start:end]
            ]
            trace.append({"time": time, "kind": kind, "item": item, "actions": actions})
            start = end
        return trace

    @property
    def segments(self) -> list[Segment]:
        """The segments as one Segment each; built anew on every access."""
        times = self.times
        return list(map(Segment, times, times[1:], self.open_counts))

    def to_dict(self) -> dict:
        times = self.times
        return {
            "total_active_time": self.total_active_time,
            "segments": list(map(list, zip(times, times[1:], self.open_counts))),
            "ledger": list(map(list, self.ledger.entries)),
            "departures": {str(k): v for k, v in sorted(self.departures.items())},
            "migration_counts": {
                "unit": self.ledger.unit_count,
                "size_sum": self.ledger.size_sum,
                "per_class": self.ledger.per_class(),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class FirstFitIndex:
    """Max-residual segment trees over the open bins of one group, one
    tree per label, all indexed by opening order (Johnson, "Fast
    algorithms for bin packing", JCSS 1974).

    A leaf holds scale - load for an open bin of the tree's label and -1
    for every other slot, so the leftmost leaf >= s is the earliest-opened
    bin of that label where an item of size s fits. Slots are never
    reused; when they run out, the open bins are renumbered in order into
    twice as many slots, so the trees stay O(open bins) in size.
    """

    MIN_SLOTS = 8

    def __init__(self, scale: int, open_bins: dict[int, Bin]):
        self.scale = scale
        self.trees: dict[str, list[int]] = {}
        self._renumber(open_bins)

    def add(self, b: Bin, open_bins: dict[int, Bin]) -> None:
        """Append a just-opened bin; open_bins is the group's open index,
        b included, in opening order."""
        if self.next_slot == self.size:
            self._renumber(open_bins)
            return
        leaf = self.next_slot
        self.next_slot += 1
        self.slot[b.id] = leaf
        self.at[leaf] = b
        self._write(self._tree(b.label), leaf, self.scale - b.load)

    def update(self, b: Bin) -> None:
        """Refresh b's leaf after its load changed."""
        self._write(self.trees[b.label], self.slot[b.id], self.scale - b.load)

    def relabel(self, b: Bin, old_label: str) -> None:
        leaf = self.slot[b.id]
        self._write(self.trees[old_label], leaf, -1)
        self._write(self._tree(b.label), leaf, self.scale - b.load)

    def remove(self, b: Bin) -> None:
        leaf = self.slot.pop(b.id)
        self.at[leaf] = None
        self._write(self.trees[b.label], leaf, -1)

    def first(self, label: str, size_num: int) -> Bin | None:
        tree = self.trees.get(label)
        if tree is None or tree[1] < size_num:
            return None
        i, size = 1, self.size
        while i < size:
            i <<= 1
            if tree[i] < size_num:
                i += 1
        return self.at[i - size]

    def _tree(self, label: str) -> list[int]:
        tree = self.trees.get(label)
        if tree is None:
            tree = self.trees[label] = [-1] * (2 * self.size)
        return tree

    def _write(self, tree: list[int], leaf: int, value: int) -> None:
        i = leaf + self.size
        tree[i] = value
        i >>= 1
        while i:
            left, right = tree[2 * i], tree[2 * i + 1]
            best = left if left > right else right
            if tree[i] == best:
                break
            tree[i] = best
            i >>= 1

    def _renumber(self, open_bins: dict[int, Bin]) -> None:
        """Give the open bins leaves 0, 1, ... in opening order and
        rebuild every tree bottom-up."""
        size = self.MIN_SLOTS
        while size < 2 * len(open_bins):
            size *= 2
        self.size = size
        self.next_slot = len(open_bins)
        self.slot = {bin_id: leaf for leaf, bin_id in enumerate(open_bins)}
        self.at = list(open_bins.values()) + [None] * (size - len(open_bins))
        labels = set(self.trees) | {b.label for b in open_bins.values()}
        self.trees = {label: [-1] * (2 * size) for label in labels}
        for leaf, b in enumerate(open_bins.values()):
            self.trees[b.label][size + leaf] = self.scale - b.load
        for tree in self.trees.values():
            for i in range(size - 1, 0, -1):
                left, right = tree[2 * i], tree[2 * i + 1]
                tree[i] = left if left > right else right


class Policy:
    """Behavioral contract implemented by each packing algorithm, which
    also states its name, params, checks and per-time bound."""

    name = "policy"
    params: tuple[str, ...] = ()
    checks: tuple[str, ...] = ("packing",)
    phase_history = ()  # (start time, phase) of each phase a phased policy begins

    def bind(self, engine: "Engine") -> None:
        self.engine = engine

    def on_arrival(self, item_id: int, size_num: int, time: float) -> None:
        raise NotImplementedError

    def on_departure(self, item_id: int, bin_id: int, time: float) -> None:
        pass

    def on_checkpoints(self, item_ids: list[int], time: float) -> None:
        pass

    def additive_at(self, time: float) -> int:
        """The additive term of open bins <= OPT_t / alpha + additive at time."""
        return 1


class Engine:
    """Drives one policy through one instance. Single-threaded."""

    SCAN_LIMIT = 8  # open bins of a group searched without trees

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        delay_cost: float = 0.0,
        adversary=None,
        observers: Iterable[Callable[["Engine", float], None]] = (),
    ):
        problems = validate(instance)
        if problems:
            raise SimulationError("invalid instance: " + "; ".join(problems))
        if delay_cost < 0:
            raise SimulationError("delay cost must be nonnegative")
        if instance.has_deferred() and adversary is None:
            raise SimulationError("instance has deferred durations but no adversary")
        self.instance = instance
        self.scale = instance.scale
        self.policy = policy
        self.delay_cost = delay_cost
        self.adversary = adversary
        self.observers = list(observers)

        self.items = {it.id: it for it in instance.items}
        self.durations: dict[int, float | None] = {
            it.id: it.duration for it in instance.items
        }
        self.bins: dict[int, Bin] = {}  # every bin ever opened
        self._open_by_group: dict[str, dict[int, Bin]] = {}
        self._fit: dict[str, FirstFitIndex] = {}  # groups past SCAN_LIMIT
        self._next_bin_id = 0
        self.placement: dict[int, int] = {}
        self.live: dict[int, int] = {}  # item id -> size numerator
        self.departure_time: dict[int, float] = {}
        self.migrations_per_item: dict[int, int] = {}
        self.ledger = MigrationLedger(self.scale)
        self.resolved: dict[int, float] = {}
        self.events: list[tuple] = []  # (time, kind name, item, end)
        self.actions: list[tuple] = []  # (action, *ACTION_FIELDS[action])
        self._open_count = 0
        self._pending_checkpoints: dict[int, set[float]] = {}
        self._staged: dict[int, int] = {}  # item id -> source bin of a migration
        self._heap: list[tuple[float, int, int]] = []
        self._arrival_placed = False

    # ------------------------------------------------------------------
    # policy-facing API

    def size_of(self, item_id: int) -> int:
        return self.items[item_id].size_num

    def live_count(self) -> int:
        return len(self.live)

    def bin(self, bin_id: int) -> Bin:
        return self.bins[bin_id]

    def bins_in(self, group: str) -> Iterator[Bin]:
        """Non-closed bins of a group in opening order."""
        return iter(self._open_by_group.get(group, {}).values())

    def open_bins(self) -> Iterator[Bin]:
        """Every non-closed bin, group by group, each in opening order."""
        return chain.from_iterable(map(dict.values, self._open_by_group.values()))

    def first_fit(self, group: str, label: str, size_num: int) -> Bin | None:
        """The earliest-opened open bin of the group carrying the label
        where an item of size_num fits, or None.

        A group is scanned while it has at most SCAN_LIMIT open bins,
        where keeping trees costs more than the scan. Its trees are built
        the first time a search finds more, and kept from then on; groups
        nobody searches (junk, dedicated) never get any."""
        index = self._fit.get(group)
        if index is None:
            open_bins = self._open_by_group.get(group, {})
            if len(open_bins) <= self.SCAN_LIMIT:
                for b in open_bins.values():
                    if b.label == label and b.load + size_num <= self.scale:
                        return b
                return None
            index = self._fit[group] = FirstFitIndex(self.scale, open_bins)
        return index.first(label, size_num)

    def open_bin(self, label: str, group: str, persistent: bool = False) -> Bin:
        b = Bin(id=self._next_bin_id, label=label, group=group, persistent=persistent)
        self._next_bin_id += 1
        self.bins[b.id] = b
        open_bins = self._open_by_group.setdefault(group, {})
        open_bins[b.id] = b
        index = self._fit.get(group)
        if index is not None:
            index.add(b, open_bins)
        self.actions.append(("open", b.id, label, group))
        return b

    def close_bin(self, bin_id: int) -> None:
        b = self.bins[bin_id]
        b.persistent = False
        if b.load == 0 and not b.closed:
            self._close(b)

    def set_label(self, bin_id: int, label: str) -> None:
        b = self.bins[bin_id]
        if b.label == label:
            return
        if b.label == GOOD and label == BAD:
            raise SimulationError(f"bin {bin_id}: Good bins never become Bad")
        self.actions.append(("label", bin_id, b.label, label))
        old, b.label = b.label, label
        index = self._fit.get(b.group)
        if index is not None and not b.closed:
            index.relabel(b, old)

    def place(self, item_id: int, bin_id: int) -> None:
        """Place a newly arrived item."""
        if item_id in self.placement:
            raise SimulationError(f"item {item_id} already placed")
        self._attach(item_id, bin_id)
        self.actions.append(("place", item_id, bin_id, self.size_of(item_id)))
        self._arrival_placed = True

    def begin_migration(self, item_id: int) -> int:
        """Detach an item from its bin; must be completed in the same event."""
        if item_id not in self.live:
            raise SimulationError(f"cannot migrate departed item {item_id}")
        src = self.placement.pop(item_id)
        self._detach(item_id, src)
        self._staged[item_id] = src
        return self.size_of(item_id)

    def complete_migration(
        self, item_id: int, bin_id: int, rule: str, class_key: str, time: float
    ) -> None:
        src = self._staged.pop(item_id)
        self._attach(item_id, bin_id)
        size = self.size_of(item_id)
        self.ledger.record(
            LedgerEntry(time, item_id, size, src, bin_id, class_key, rule)
        )
        self.migrations_per_item[item_id] = self.migrations_per_item.get(item_id, 0) + 1
        self.actions.append(("migrate", item_id, src, bin_id, size))
        if self.delay_cost > 0:
            # closed form, not accumulation: keeps the delayed departure
            # bit-identical to arrival + duration + C * migrations
            it = self.items[item_id]
            new_dep = (
                it.arrival
                + self.durations[item_id]
                + self.delay_cost * self.migrations_per_item[item_id]
            )
            self.departure_time[item_id] = new_dep
            heapq.heappush(self._heap, (new_dep, _DEPARTURE, item_id))

    def migrate(
        self, item_id: int, bin_id: int, rule: str, class_key: str, time: float
    ) -> None:
        self.begin_migration(item_id)
        self.complete_migration(item_id, bin_id, rule, class_key, time)

    def schedule_checkpoint(self, item_id: int, time: float) -> None:
        self._pending_checkpoints.setdefault(item_id, set()).add(time)
        heapq.heappush(self._heap, (time, _CHECKPOINT, item_id))

    # ------------------------------------------------------------------
    # internals

    def _attach(self, item_id: int, bin_id: int) -> None:
        b = self.bins[bin_id]
        if b.closed:
            raise SimulationError(f"bin {bin_id} is closed")
        size = self.size_of(item_id)
        if b.load + size > self.scale:
            raise CapacityViolation(
                f"capacity violation: item {item_id} (size {size}/{self.scale}) "
                f"does not fit in bin {bin_id} at load {b.load}/{self.scale}"
            )
        was_open = b.open
        b.load += size
        b.items.add(item_id)
        self.placement[item_id] = bin_id
        if not was_open:
            self._open_count += 1
        index = self._fit.get(b.group)
        if index is not None:
            index.update(b)

    def _detach(self, item_id: int, bin_id: int) -> None:
        b = self.bins[bin_id]
        b.items.discard(item_id)
        b.load -= self.size_of(item_id)
        if b.load == 0:
            self._open_count -= 1
            if not b.persistent:
                self._close(b)
                return
        index = self._fit.get(b.group)
        if index is not None:
            index.update(b)

    def _close(self, b: Bin) -> None:
        """The one place a bin closes: it leaves the open index and the
        first-fit trees."""
        b.closed = True
        open_bins = self._open_by_group[b.group]
        del open_bins[b.id]
        if not open_bins:  # keeps open_bins() from walking empty groups
            del self._open_by_group[b.group]
        index = self._fit.get(b.group)
        if index is not None:
            index.remove(b)
        self.actions.append(("close", b.id))

    def _schedule_departure(self, item_id: int, time: float) -> None:
        self.departure_time[item_id] = time
        heapq.heappush(self._heap, (time, _DEPARTURE, item_id))

    def _resolve(self, time: float) -> None:
        # a bin that holds an item is never closed, so the open bins suffice
        snapshot = []
        for b in sorted(self.open_bins(), key=lambda b: b.id):
            deferred = sorted(
                i for i in b.items if self.durations[i] is None
            )
            if deferred:
                snapshot.append((b.id, deferred))
        assignment = self.adversary.resolve(snapshot)
        for item_id, duration in self.durations.items():
            if duration is None:
                if item_id not in assignment or assignment[item_id] is None:
                    raise SimulationError(
                        f"adversary left item {item_id} unresolved"
                    )
                d = float(assignment[item_id])
                if d <= 0:
                    raise SimulationError("adversary assigned nonpositive duration")
                self.durations[item_id] = d
                self.resolved[item_id] = d
                self._schedule_departure(item_id, self.items[item_id].arrival + d)

    def run(self) -> SimulationResult:
        """Process every event in order and return the run's result. The
        arrivals merge with the live-only heap by (time, kind): the heap's
        top goes first if it comes before the next arrival. The policy
        reference is dropped when the run ends, even if it raises."""
        heap = self._heap
        # latest first: popping from the end releases the list as items arrive
        arrivals = sorted(
            self.instance.items, key=attrgetter("arrival", "id"), reverse=True
        )
        deferred = [it.arrival for it in arrivals if it.duration is None]
        if deferred:
            heapq.heappush(heap, (max(deferred), _RESOLVE, -1))
        try:
            # bind-time actions (e.g. a policy pre-opening a persistent bin)
            policy = self.policy
            policy.bind(self)
            events, actions = self.events, self.actions
            if actions:
                events.append((None, "SETUP", None, len(actions)))

            times: list[float] = []
            open_counts: list[int] = []
            total = 0.0
            prev_time: float | None = None
            departures: dict[int, float] = {}
            next_arrival = (arrivals[-1].arrival, _ARRIVAL) if arrivals else None

            while heap or arrivals:
                if heap and (not arrivals or heap[0] < next_arrival):
                    time, kind, item_id = heapq.heappop(heap)
                    # drop stale rescheduled departures / fired checkpoints
                    if kind == _DEPARTURE:
                        if item_id not in self.live or self.departure_time[item_id] != time:
                            continue
                    elif kind == _CHECKPOINT:
                        pending = self._pending_checkpoints.get(item_id, set())
                        if item_id not in self.live or time not in pending:
                            continue
                        pending.discard(time)
                else:
                    it = arrivals.pop()
                    if arrivals:
                        next_arrival = (arrivals[-1].arrival, _ARRIVAL)
                    time, kind, item_id = it.arrival, _ARRIVAL, it.id

                if prev_time is None:
                    prev_time = time
                    times.append(time)
                elif time > prev_time:
                    total += self._open_count * (time - prev_time)
                    times.append(time)
                    open_counts.append(self._open_count)
                    prev_time = time

                if kind == _ARRIVAL:
                    size = it.size_num
                    self.live[item_id] = size
                    if it.duration is not None:
                        self._schedule_departure(item_id, time + it.duration)
                    self._arrival_placed = False
                    policy.on_arrival(item_id, size, time)
                    if not self._arrival_placed:
                        raise SimulationError(
                            f"policy did not place arriving item {item_id}"
                        )
                elif kind == _DEPARTURE:
                    bin_id = self.placement.pop(item_id)
                    del self.live[item_id]
                    self._pending_checkpoints.pop(item_id, None)
                    departures[item_id] = time
                    actions.append(("depart", item_id, bin_id, self.size_of(item_id)))
                    self._detach(item_id, bin_id)
                    policy.on_departure(item_id, bin_id, time)
                elif kind == _CHECKPOINT:
                    batch = [item_id]
                    while heap and heap[0][0] == time and heap[0][1] == _CHECKPOINT:
                        _, _, other = heapq.heappop(heap)
                        pending = self._pending_checkpoints.get(other, set())
                        if other in self.live and time in pending:
                            pending.discard(time)
                            batch.append(other)
                    policy.on_checkpoints(batch, time)
                else:  # _RESOLVE
                    self._resolve(time)

                events.append((time, EVENT_NAMES[kind], item_id, len(actions)))
                for obs in self.observers:
                    obs(self, time)
        finally:
            self.policy = None

        if self.live:
            raise SimulationError("items left in the system at end of trace")
        if not open_counts:  # every event at one time, a duration lost to rounding
            times.clear()

        return SimulationResult(
            total_active_time=total,
            times=times,
            open_counts=open_counts,
            ledger=self.ledger,
            departures=departures,
            resolved_durations=dict(self.resolved),
            migrations_per_item=dict(self.migrations_per_item),
            events=events,
            actions=actions,
            scale=self.scale,
        )


def simulate(
    instance: Instance,
    policy: Policy,
    delay_cost: float = 0.0,
    adversary=None,
    observers: Iterable[Callable[[Engine, float], None]] = (),
) -> SimulationResult:
    """Run a policy over an instance; deterministic for identical inputs."""
    return Engine(instance, policy, delay_cost, adversary, observers).run()


class Replay:
    """The one reader of the action records, SimulationResult.trace aside.
    It finds the first packing problem, `problem`, and the first junk_load
    or bad_bins violation an event left, `broken`, as (check, detail, time).
    A record with a packing problem is skipped, except that a bin may go
    over scale, so reading goes on after it."""

    def __init__(self, scale: int):
        self.scale = scale
        self.loads: dict[int, int] = {}  # every bin opened -> load
        self.bins: dict[int, tuple[str, str]] = {}  # open bin -> (group, label)
        self.placed: dict[int, tuple[int, int]] = {}  # item -> (bin, size)
        self.bad: dict[str, int] = {}  # group -> open Bad bins
        self.problem: str | None = None
        self.broken: tuple[str, str, float] | None = None
        self._over: list[int] = []  # bins a record took over scale
        self._rose: list[str] = []  # groups that gained a Bad bin, in order

    def _fail(self, problem: str) -> None:
        if self.problem is None:
            self.problem = problem

    def read(self, actions: list[tuple], events: list[tuple], start: int = 0) -> None:
        """Apply the records of each of events, laid out as Engine.events,
        from actions[start] on, and check junk_load and bad_bins after each
        event until `broken` is found; bind-time records (time None) count
        toward the next event."""
        scale, over, rose = self.scale, self._over, self._rose
        loads, bins, placed, bad = self.loads, self.bins, self.placed, self.bad
        for time, _kind, _item, end in events:
            for act in actions[start:end]:
                kind = act[0]
                if kind == "place":
                    _, item, b, size = act
                    if item in placed:
                        self._fail(f"t={time}: item {item} placed twice")
                        continue
                    load = loads[b] = loads[b] + size
                    if load > scale:
                        self._fail(f"t={time}: bin {b} overflows capacity")
                        over.append(b)
                    placed[item] = (b, size)
                elif kind == "depart":
                    _, item, b, _size = act
                    at = placed.pop(item, None)
                    if at is None or at[0] != b:
                        self._fail(f"t={time}: departure of item {item} from wrong bin")
                        continue
                    loads[b] -= at[1]
                elif kind == "open":
                    _, b, label, group = act
                    loads[b] = 0
                    bins[b] = (group, label)
                    if label == BAD:
                        bad[group] = bad.get(group, 0) + 1
                        rose.append(group)
                elif kind == "close":
                    group, label = bins.pop(act[1], ("", ""))
                    if label == BAD:
                        bad[group] -= 1
                elif kind == "migrate":
                    _, item, src, dst, size = act
                    at = placed.get(item)
                    if at is None or at[0] != src:
                        self._fail(f"t={time}: migration of item {item} from wrong bin")
                        continue
                    loads[src] -= size
                    load = loads[dst] = loads[dst] + size
                    if load > scale:
                        self._fail(f"t={time}: bin {dst} overflows capacity")
                        over.append(dst)
                    placed[item] = (dst, size)
                elif kind == "label":
                    _, b, old, new = act
                    if old == GOOD and new == BAD:
                        self._fail(f"t={time}: bin {b} relabeled Good -> Bad")
                    if b not in bins:  # only open bins count
                        continue
                    group, label = bins[b]
                    bins[b] = (group, new)
                    if label == BAD:
                        bad[group] -= 1
                    if new == BAD:
                        bad[group] = bad.get(group, 0) + 1
                        rose.append(group)
            start = end
            if (over or rose) and time is not None:
                if self.broken is None:
                    self.broken = self._violation(time)
                over.clear()
                rose.clear()

    def _violation(self, time: float) -> tuple[str, str, float] | None:
        """The first violation the records read since the last check left:
        the junk bins they took over scale in id order, then the groups
        that gained a Bad bin in the order they did."""
        for b in sorted(self._over):
            group, _ = self.bins.get(b, ("", ""))
            if group.startswith("junk") and self.loads[b] > self.scale:
                return "junk_load", f"junk bin {b} over capacity", time
        for group in self._rose:
            count = self.bad[group]
            if count > 1:
                return "bad_bins", f"{count} Bad bins in group {group}", time
            if group == "class:0" and count > 0:
                return "bad_bins", "Bad bin in class 0", time
        return None


def check_records(result: SimulationResult) -> tuple[str | None, tuple | None]:
    """One replay of a stored run's records: its first packing problem
    (t=None at bind time) and its first junk_load or bad_bins violation,
    as bad_bin_observer raises it."""
    replay = Replay(result.scale)
    replay.read(result.actions, result.events)
    if replay.placed and replay.problem is None:
        replay.problem = "items left placed at end of trace"
    return replay.problem, replay.broken


def verify_packing(result: SimulationResult) -> str | None:
    """The first packing problem of a stored run, or None if clean."""
    return check_records(result)[0]
