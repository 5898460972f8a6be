"""Deterministic event-driven simulator for dynamic bin packing policies.

The engine owns all packing state. Policies observe bins and item sizes
and decide placements/migrations through the engine API; they never see
durations (non-clairvoyance) -- the only duration information a policy
receives is the departure event itself.

Event order at equal time: departures, then migration checkpoints, then
arrivals, then adversary resolution; ties broken by item id. The
adversary is the resolver the instance's header names, built by the
engine. Checkpoints live only in the heap: one fires unless its item has
departed, so never at its departure time, and once per (item, time), as
the heap pops a repeat right after it. A time's checkpoints reach
`on_checkpoints` as one batch, in ascending id; one scheduled for that
time during the call fires anew.

The event queue holds only live items. Arrivals are read in order from
the instance's items, sorted once by (arrival, id); a heap holds the
departure of each live item (pushed when it arrives, or when the
adversary resolves its duration), pending checkpoints and the resolve
event, and the two merge by (time, kind). A migration under a delay cost
pushes nothing: it moves the item's departure time later, and the
item's entry, popped at the old time, goes back in at the new one.
Departures only move later, so events pop in the order they would if
each delay pushed an entry of its own, and the heap holds one departure
per live item. So the heap stays as small as the live set, not 2n
entries, and the queue's cost per event does not grow with n. When a run ends the engine drops its policy, which refers back
to it: no reference cycle outlives the run, and everything it built is
freed by reference counting as soon as the caller lets go of the result,
policy and engine, without a pass of the cyclic garbage collector.

Besides the records and result columns below, a run's state is O(live):
the engine keeps the size (`live`), `Item` and departure time of each
live item, and drops them when it departs, and it keeps only open bins.
A bin leaves `Engine.bins` the moment it closes, and any later call
naming it (`bin`, `set_label`, `close_bin`, a placement), in the same
event or after, raises `SimulationError("bin N is closed")`.
`on_departure` receives the `Bin` its item left, which may have closed,
so no policy looks a bin up by id once it is gone.
`Engine.bins_in` yields only the open bins of a group, from a per-group
index that a bin leaves when it closes. First fit runs on a max-residual
segment tree per (group, label) over opening order, so a placement costs
O(log B) in the number B of open bins of the group, not a scan of every
bin ever opened. A group is scanned instead until a search finds more
than `Engine.SCAN_LIMIT` (64) open bins in it: a tree group pays a climb
on every load change (fill, departure, close, relabel) and a descent per
search, while a scan pays only when it searches. A scan walks the
group's open bins once, whatever the number of labels: it tests each
bin's load before its label, returns the first fit of the first label
as soon as it sees it, and else keeps the earliest fit of the best label
seen so far. Measured on whole runs (when a scan walked a group once per
label), scanning beat the trees up to about 70 open bins of a group for
alg2 (which searches Bad, then Good), 100 for FirstFit and 100-200 for
the delay policy's `Ib` pool; of 32, 48, 64, 96 and 128, 64 is the
largest limit at which the scan won on all three.
A pool of about 1,000 open bins, as the delay policy's `Ib` holds on the
benchmark's `dense` shape, still needs the trees.

A first-fit placement is one engine call. `place_first_fit` takes an
arriving item, a group, an ordered tuple of labels and the label of a
bin to open: it places the item in the earliest-opened bin of the group
where it fits, trying the labels in turn, else in a new bin, and records
`open` (if it opened one) and then `place`, as
`first_fit(group, labels, size)`, `open_bin` and `place` called in turn
would. `migrate_first_fit` does the same for a batch of migrations: every
item of the batch leaves its bin first, then each in turn is placed
first fit and recorded as `migrate`. Both run `first_fit`, the one
first-fit search, which returns the bin or None. A new bin is built
holding the item and only then enters its group's trees, so each changed
leaf is written once. `open_bin`, `place` and `migrate` stay for
placements that are not first fit: junk and dedicated bins, and the
drain, whose targets exclude the draining bin. A migration is one call,
so no engine state outlives the policy call that made it, and its ledger
entry's `class_key` is the group of the bin the item left.

The engine records what it did in two flat lists of plain values, with
no object per record. `actions` holds each state change as its action
name followed by the values of the fields `ACTION_FIELDS` names for it,
so a `place` takes four entries: `"place", item, bin, size`. `events`
holds four entries per processed event, `time, kind, item, count`,
where `count` is the number of `actions` entries the event wrote, so an
event's actions start where the previous event's end (at 0 for the
first). A count is a small int, which CPython shares, where an absolute
index into `actions` would be a new int object per event once past the
first few. Actions a policy takes while binding form a first
`None, "SETUP", None, count` event, present only when there are any.
`Replay.follow` is the one reader of the records' fields
(`SimulationResult.trace` aside), behind every packing and Bad-bin check:
it reads each field by its position, each step the events appended since
the last, and looks for a junk_load or bad_bins violation only after an
event that took a bin over scale, gave a group a second Bad bin or gave
class 0 one, the only events that can break either check. A record that
does so marks its event even if a later record of the event undoes it.
The bundled policies write no such record on a clean run: a single-class
bin opens Good when its first item alone reaches f, not Bad and then
relabeled, so a clean event never searches.
`SimulationResult.trace` builds the old list of dicts on demand.
The segments of constant open-bin count are kept the same way, as two flat
columns: `times`, the boundaries, and `open_counts`, one per segment;
`SimulationResult.segments` builds a list of slotted `Segment`s from them
on demand, with no copy of `times`. So of a run, the cyclic garbage
collector walks a few lists, the `Bin`s (slotted, each with its `set` of
items) of the open bins only, and the ledger's `LedgerEntry`s, named
tuples, which it never untracks; the instance's `Item`s are the caller's.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import Instance, Item, resolver_from_header, validate

BAD = "Bad"
GOOD = "Good"
JUNK = "Junk"
DEDICATED = "Dedicated"


class SimulationError(Exception):
    pass


class CapacityViolation(SimulationError):
    pass


class InvalidInstance(SimulationError):
    """An instance validate rejects; problems lists what it found, so a
    caller can report them without validating again."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid instance: " + "; ".join(problems))
        self.problems = problems


class EventKind(IntEnum):
    DEPARTURE = 0
    CHECKPOINT = 1
    ARRIVAL = 2
    ADVERSARY_RESOLVE = 3


EVENT_NAMES = tuple(kind.name for kind in EventKind)
# the kinds as the queue holds them: plain ints compare faster than members
_DEPARTURE, _CHECKPOINT, _ARRIVAL, _RESOLVE = map(int, EventKind)
# Item's id and arrival fields, the keys of the engine's two arrival sorts
_ID, _ARRIVAL_TIME = itemgetter(0), itemgetter(1)

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


class LedgerEntry(NamedTuple):
    """One migration; class_key is the group of the bin the item left."""

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


@dataclass(slots=True)
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
    events: list  # time, kind, item, count of actions entries: four per event
    actions: list  # each action's name, then its ACTION_FIELDS values
    scale: int

    @property
    def trace(self) -> list[dict]:
        """The records as one dict per event, each holding a dict per
        action; built anew on every access."""
        events, actions = self.events, self.actions
        trace = []
        i = 0
        for k in range(0, len(events), 4):
            time, kind, item, count = events[k : k + 4]
            end = i + count
            acts = []
            while i < end:
                keys = ("action", *ACTION_FIELDS[actions[i]])
                acts.append(dict(zip(keys, actions[i : i + len(keys)])))
                i += len(keys)
            trace.append({"time": time, "kind": kind, "item": item, "actions": acts})
        return trace

    @property
    def segments(self) -> list[Segment]:
        """The segments as one Segment each; built anew on every access."""
        times = self.times
        return list(map(Segment, times, islice(times, 1, None), self.open_counts))

    def to_dict(self) -> dict:
        times = self.times
        return {
            "total_active_time": self.total_active_time,
            "segments": list(map(list, zip(times, islice(times, 1, None), self.open_counts))),
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
        """Set a leaf and climb while the parent's max changes; value is
        the node climbed from, so only its sibling is read."""
        i = leaf + self.size
        tree[i] = value
        while i > 1:
            sibling = tree[i ^ 1]
            if sibling > value:
                value = sibling
            i >>= 1
            if tree[i] == value:
                break
            tree[i] = value

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

    def on_departure(self, item_id: int, b: Bin, time: float) -> None:
        """The item has left bin b. If that emptied b and b was not
        persistent, b has closed: it is no longer in Engine.bins, and
        the engine refuses any call naming it."""

    def on_checkpoints(self, item_ids: list[int], time: float) -> None:
        """The live items with a checkpoint at time, in ascending id, each
        once however often it was scheduled."""

    def additive_at(self, time: float) -> int:
        """The additive term of open bins <= OPT_t / alpha + additive at
        time; nonnegative, which check_per_time relies on to skip the call
        where open bins <= OPT_t / alpha already holds."""
        return 1


class Engine:
    """Drives one policy through one instance. Single-threaded."""

    # open bins of a group searched without trees: scans beat the trees'
    # upkeep up to about 70 open bins for alg2, the lowest crossover measured
    SCAN_LIMIT = 64

    def __init__(
        self,
        instance: Instance,
        policy: Policy,
        delay_cost: float = 0.0,
        observers: Iterable[Callable[["Engine", float], None]] = (),
    ):
        problems = validate(instance)
        if problems:
            raise InvalidInstance(problems)
        if delay_cost < 0:
            raise SimulationError("delay cost must be nonnegative")
        self.adversary = None
        if instance.has_deferred():
            if instance.adversary is None:
                raise SimulationError("instance has deferred durations but no adversary")
            try:
                self.adversary = resolver_from_header(instance.adversary)
            except ValueError as exc:
                raise SimulationError(str(exc)) from None
        self.instance = instance
        self.scale = instance.scale
        self.policy = policy
        self.delay_cost = delay_cost
        self.observers = list(observers)

        self.bins: dict[int, Bin] = {}  # the open bins, in opening order
        self._open_by_group: dict[str, dict[int, Bin]] = {}
        self._fit: dict[str, FirstFitIndex] = {}  # groups past SCAN_LIMIT
        self._next_bin_id = 0
        self.placement: dict[int, int] = {}
        self.live: dict[int, int] = {}  # item id -> size numerator
        # live item -> its Item, with the adversary's duration once resolved
        self._live_items: dict[int, Item] = {}
        self.departure_time: dict[int, float] = {}  # live item -> departure
        self.migrations_per_item: dict[int, int] = {}
        self.ledger = MigrationLedger(self.scale)
        self.resolved: dict[int, float] = {}
        self.events: list = []  # time, kind name, item, action count per event
        self.actions: list = []  # action name, then its ACTION_FIELDS values
        self._open_count = 0
        self._heap: list[tuple[float, int, int]] = []

    # ------------------------------------------------------------------
    # policy-facing API

    def size_of(self, item_id: int) -> int:
        """The size numerator of a live item."""
        return self.live[item_id]

    def bin(self, bin_id: int) -> Bin:
        """The open bin with this id; every call naming a bin goes
        through here, so one that is closed or was never opened fails."""
        try:
            return self.bins[bin_id]
        except KeyError:
            closed = bin_id in range(self._next_bin_id)
            problem = f"bin {bin_id} is closed" if closed else f"no bin {bin_id}"
            raise SimulationError(problem) from None

    def bins_in(self, group: str) -> Iterator[Bin]:
        """The open bins of a group in opening order."""
        return iter(self._open_by_group.get(group, {}).values())

    def first_fit(
        self, group: str, labels: tuple[str, ...], size_num: int
    ) -> Bin | None:
        """The one first-fit search: the earliest-opened open bin of the
        group carrying labels[0] where an item of size_num fits, else the
        same for labels[1], and so on; None if there is none.

        A group is scanned while it has at most SCAN_LIMIT (64) open
        bins, where keeping trees, a climb on every load change, costs more
        than the scan, which pays only here. The scan is one pass in
        opening order for all the labels: it returns a fit of labels[0]
        when it meets one, and at the end the earliest fit of the best
        label it met. A group's trees are built the first time a search
        finds more, and kept from then on; groups nobody searches (junk,
        dedicated) never get any."""
        index = self._fit.get(group)
        if index is None:
            open_bins = self._open_by_group.get(group)
            if not open_bins:
                return None
            if len(open_bins) <= self.SCAN_LIMIT:
                room = self.scale - size_num
                first = labels[0] if labels else None
                best, rank = None, len(labels)  # the earliest fit of the best label seen
                for b in open_bins.values():
                    if b.load <= room:
                        label = b.label
                        if label == first:
                            return b
                        if rank > 1 and label in labels:
                            r = labels.index(label)
                            if r < rank:
                                best, rank = b, r
                return best
            index = self._fit[group] = FirstFitIndex(self.scale, open_bins)
        for label in labels:
            b = index.first(label, size_num)
            if b is not None:
                return b
        return None

    def open_bin(self, label: str, group: str, persistent: bool = False) -> Bin:
        return self._register(
            Bin(id=self._next_bin_id, label=label, group=group, persistent=persistent)
        )

    def place_first_fit(
        self, item_id: int, group: str, labels: tuple[str, ...], new_label: str
    ) -> Bin:
        """Place a newly arrived item first fit: in the earliest-opened
        bin of the group where it fits, trying the labels in order, else in
        a new bin of the group labeled new_label; return the bin. One call
        for first_fit, open_bin and place, recording the same actions."""
        if item_id in self.placement:
            raise SimulationError(f"item {item_id} already placed")
        size = self.live[item_id]
        b = self._fit_or_open(item_id, size, group, labels, new_label)
        self.actions.extend(("place", item_id, b.id, size))
        return b

    def migrate_first_fit(
        self,
        moves: list[tuple[int, str]],
        group: str,
        labels: tuple[str, ...],
        new_label: str,
        time: float,
    ) -> None:
        """Migrate a batch of (item, rule) pairs: every item leaves its bin
        first, then each in turn is placed first fit, as place_first_fit
        places an arrival, and recorded as a migration under its rule."""
        sources = []  # a loop, not a comprehension: most batches hold one item
        for item_id, _ in moves:
            sources.append(self._unplace(item_id))
        for (item_id, rule), src in zip(moves, sources):
            size = self.live[item_id]
            b = self._fit_or_open(item_id, size, group, labels, new_label)
            self._migrated(item_id, size, src, b.id, rule, time)

    def close_bin(self, bin_id: int) -> None:
        b = self.bin(bin_id)
        b.persistent = False
        if b.load == 0:
            self._close(b)

    def set_label(self, bin_id: int, label: str) -> None:
        b = self.bin(bin_id)
        if b.label == label:
            return
        if b.label == GOOD and label == BAD:
            raise SimulationError(f"bin {bin_id}: Good bins never become Bad")
        self.actions.extend(("label", bin_id, b.label, label))
        old, b.label = b.label, label
        index = self._fit.get(b.group)
        if index is not None:
            index.relabel(b, old)

    def place(self, item_id: int, bin_id: int) -> None:
        """Place a newly arrived item."""
        if item_id in self.placement:
            raise SimulationError(f"item {item_id} already placed")
        self._attach(item_id, bin_id)
        self.actions.extend(("place", item_id, bin_id, self.live[item_id]))

    def migrate(self, item_id: int, bin_id: int, rule: str, time: float) -> None:
        """Move a placed item to an open bin, recorded under rule."""
        src = self._unplace(item_id)
        self._attach(item_id, bin_id)
        self._migrated(item_id, self.live[item_id], src, bin_id, rule, time)

    def schedule_checkpoint(self, item_id: int, time: float) -> None:
        heapq.heappush(self._heap, (time, _CHECKPOINT, item_id))

    # ------------------------------------------------------------------
    # internals

    def _fit_or_open(
        self, item_id: int, size: int, group: str, labels: tuple[str, ...], new_label: str
    ) -> Bin:
        """Attach an item of the given size to the bin first_fit finds,
        else to a new bin of the group labeled new_label, and return the
        bin. A new bin is built holding the item and enters the first-fit
        trees with its load set, so its leaf is written once."""
        b = self.first_fit(group, labels, size)
        if b is not None:
            self._fill(b, item_id, size)
            return b
        b = self._register(Bin(self._next_bin_id, new_label, group, size, {item_id}))
        self._open_count += 1
        self.placement[item_id] = b.id
        return b

    def _register(self, b: Bin) -> Bin:
        """Enter a just-built bin, its load set, into the open index and
        its group's first-fit trees, and record that it opened."""
        self._next_bin_id += 1
        self.bins[b.id] = b
        open_bins = self._open_by_group.get(b.group)
        if open_bins is None:
            open_bins = self._open_by_group[b.group] = {}
        open_bins[b.id] = b
        index = self._fit.get(b.group)
        if index is not None:
            index.add(b, open_bins)
        self.actions.extend(("open", b.id, b.label, b.group))
        return b

    def _attach(self, item_id: int, bin_id: int) -> None:
        b = self.bin(bin_id)
        size = self.live[item_id]
        if b.load + size > self.scale:
            raise CapacityViolation(
                f"capacity violation: item {item_id} (size {size}/{self.scale}) "
                f"does not fit in bin {bin_id} at load {b.load}/{self.scale}"
            )
        self._fill(b, item_id, size)

    def _fill(self, b: Bin, item_id: int, size: int) -> None:
        """Add an item to an open bin it fits in."""
        if not b.load:
            self._open_count += 1
        b.load += size
        b.items.add(item_id)
        self.placement[item_id] = b.id
        index = self._fit.get(b.group)
        if index is not None:
            index.update(b)

    def _unplace(self, item_id: int) -> Bin:
        """Take a migrating item out of its bin and return that bin, which
        may have closed."""
        if item_id not in self.live:
            raise SimulationError(f"cannot migrate departed item {item_id}")
        b = self.bins[self.placement.pop(item_id)]
        self._detach(item_id, b)
        return b

    def _migrated(
        self, item_id: int, size: int, src: Bin, dst: int, rule: str, time: float
    ) -> None:
        """Record a completed migration, in the ledger under the group of
        the bin the item left, and, under a delay cost, move the item's
        departure time later; its heap entry follows when popped."""
        self.ledger.entries.append(
            LedgerEntry(time, item_id, size, src.id, dst, src.group, rule)
        )
        self.migrations_per_item[item_id] = self.migrations_per_item.get(item_id, 0) + 1
        self.actions.extend(("migrate", item_id, src.id, dst, size))
        if self.delay_cost > 0:
            # closed form, not accumulation: keeps the delayed departure
            # bit-identical to arrival + duration + C * migrations
            it = self._live_items[item_id]
            if it.duration is None:  # its departure is not known yet
                raise SimulationError(
                    f"t={time}: item {item_id} migrated under a delay cost"
                    " before the adversary resolved its duration"
                )
            new_dep = (
                it.arrival
                + it.duration
                + self.delay_cost * self.migrations_per_item[item_id]
            )
            self.departure_time[item_id] = new_dep

    def _detach(self, item_id: int, b: Bin) -> None:
        b.items.discard(item_id)
        b.load -= self.live[item_id]
        if b.load == 0:
            self._open_count -= 1
            if not b.persistent:
                self._close(b)
                return
        index = self._fit.get(b.group)
        if index is not None:
            index.update(b)

    def _close(self, b: Bin) -> None:
        """The one place a bin closes: it leaves `bins`, the open index
        and the first-fit trees at once."""
        del self.bins[b.id], self._open_by_group[b.group][b.id]
        index = self._fit.get(b.group)
        if index is not None:
            index.remove(b)
        self.actions.extend(("close", b.id))

    def _resolve(self, time: float) -> None:
        # the resolve event follows the last deferred arrival, and a
        # deferred item cannot depart before it, so every one is live; a
        # bin that holds an item is never closed, so the open bins suffice,
        # and bins, filled in id order, lists them in ascending id
        items = self._live_items
        snapshot = []
        for b in self.bins.values():
            deferred = sorted(i for i in b.items if items[i].duration is None)
            if deferred:
                snapshot.append((b.id, deferred))
        assignment = self.adversary.resolve(snapshot)
        for item_id, it in items.items():
            if it.duration is None:
                if item_id not in assignment or assignment[item_id] is None:
                    raise SimulationError(
                        f"adversary left item {item_id} unresolved"
                    )
                d = float(assignment[item_id])
                if not d > 0:  # NaN too: a NaN departure would never leave the queue
                    raise SimulationError("adversary assigned nonpositive duration")
                if d == math.inf:
                    raise SimulationError("adversary assigned infinite duration")
                items[item_id] = it._replace(duration=d)
                self.resolved[item_id] = d
                self.departure_time[item_id] = departure = it.arrival + d
                heapq.heappush(self._heap, (departure, _DEPARTURE, item_id))

    def run(self) -> SimulationResult:
        """Process every event in order and return the run's result. The
        arrivals merge with the live-only heap by (time, kind): the heap's
        top goes first if it comes before the next arrival. The policy
        reference is dropped when the run ends, even if it raises."""
        heap, heappush, heappop = self._heap, heapq.heappush, heapq.heappop
        # (arrival, id) order as two stable sorts on float and int keys,
        # with no key tuple per item; the id sort is linear on the id-ordered
        # items every generator builds. Latest first: popping from the end
        # releases the list as items arrive
        arrivals = sorted(sorted(self.instance.items, key=_ID), key=_ARRIVAL_TIME)
        arrivals.reverse()
        if self.instance.has_deferred():
            last = max(it.arrival for it in arrivals if it.duration is None)
            heappush(heap, (last, _RESOLVE, -1))
        try:
            # bind-time actions (e.g. a policy pre-opening a persistent bin)
            policy = self.policy
            policy.bind(self)
            events, actions = self.events, self.actions
            live, live_items, bins = self.live, self._live_items, self.bins
            placement = self.placement
            departure_time = self.departure_time
            if actions:
                events.extend((None, "SETUP", None, len(actions)))
            start = len(actions)  # where the next event's actions begin

            times: list[float] = []
            open_counts: list[int] = []
            total = 0.0
            prev_time: float | None = None
            departures: dict[int, float] = {}
            next_arrival = (arrivals[-1].arrival, _ARRIVAL) if arrivals else None

            while heap or arrivals:
                if heap and (not arrivals or heap[0] < next_arrival):
                    time, kind, item_id = heappop(heap)
                    # a departure a migration delayed goes back in at its
                    # new time; drop departed items' checkpoints
                    if kind == _DEPARTURE:
                        departure = departure_time[item_id]
                        if departure != time:
                            heappush(heap, (departure, _DEPARTURE, item_id))
                            continue
                    elif kind == _CHECKPOINT and item_id not in live:
                        continue
                else:
                    it = arrivals.pop()
                    item_id, time, size, duration = it
                    kind = _ARRIVAL
                    if arrivals:
                        next_arrival = (arrivals[-1].arrival, _ARRIVAL)

                if prev_time is None:
                    prev_time = time
                    times.append(time)
                elif time > prev_time:
                    total += self._open_count * (time - prev_time)
                    times.append(time)
                    open_counts.append(self._open_count)
                    prev_time = time

                if kind == _ARRIVAL:
                    live[item_id] = size
                    live_items[item_id] = it
                    if duration is not None:
                        departure_time[item_id] = departure = time + duration
                        heappush(heap, (departure, _DEPARTURE, item_id))
                    policy.on_arrival(item_id, size, time)
                    if item_id not in placement:
                        raise SimulationError(
                            f"policy did not place arriving item {item_id}"
                        )
                elif kind == _DEPARTURE:
                    b = bins[placement.pop(item_id)]
                    actions.extend(("depart", item_id, b.id, live[item_id]))
                    self._detach(item_id, b)
                    del live[item_id], live_items[item_id], departure_time[item_id]
                    departures[item_id] = time
                    policy.on_departure(item_id, b, time)
                elif kind == _CHECKPOINT:
                    batch = [item_id]  # in id order; a repeated (item, time) is skipped
                    while heap and heap[0][0] == time and heap[0][1] == _CHECKPOINT:
                        _, _, other = heappop(heap)
                        if other in live and other != batch[-1]:
                            batch.append(other)
                    policy.on_checkpoints(batch, time)
                else:  # _RESOLVE
                    self._resolve(time)

                end = len(actions)
                events.extend((time, EVENT_NAMES[kind], item_id, end - start))
                start = end
                for obs in self.observers:
                    obs(self, time)
        finally:
            self.policy = None

        if live:
            raise SimulationError("items left in the system at end of trace")
        if not open_counts:  # every event at one time, a duration lost to rounding
            times.clear()

        return SimulationResult(
            total_active_time=total,
            times=times,
            open_counts=open_counts,
            ledger=self.ledger,
            departures=departures,
            resolved_durations=self.resolved,
            migrations_per_item=self.migrations_per_item,
            events=events,
            actions=actions,
            scale=self.scale,
        )


def simulate(
    instance: Instance,
    policy: Policy,
    delay_cost: float = 0.0,
    observers: Iterable[Callable[[Engine, float], None]] = (),
) -> SimulationResult:
    """Run a policy over an instance; deterministic for identical inputs."""
    return Engine(instance, policy, delay_cost, observers).run()


class Replay:
    """The one reader of the action records, SimulationResult.trace aside.
    It finds the first packing problem, `problem`, and the first junk_load
    or bad_bins violation an event left, `broken`, as (check, detail, time).
    A record with a packing problem is skipped, except that a bin may go
    over scale, so reading goes on after it. A record naming a bin that is
    not open, never opened or closed, is a packing problem. A closed bin's
    load is kept until the event that closed it ends, where it must be 0:
    a migration writes its source bin's `close` before the `migrate` that
    empties it. So a replay holds only the open bins and the placed items."""

    def __init__(self, scale: int):
        self.scale = scale
        self.loads: dict[int, int] = {}  # bin open, or closed by this event -> load
        self.bins: dict[int, tuple[str, str]] = {}  # open bin -> (group, label)
        self.placed: dict[int, tuple[int, int]] = {}  # item -> (bin, size)
        self.bad: dict[str, int] = {}  # group -> open Bad bins
        self.problem: str | None = None
        self.broken: tuple[str, str, float] | None = None
        self._over: list[int] = []  # bins a record took over scale
        self._rose: list[str] = []  # groups that gained a Bad bin, in order
        self._shut: list[int] = []  # bins the event being read closed

    def _fail(self, problem: str) -> None:
        if self.problem is None:
            self.problem = problem

    def follow(self, actions: list, events: list) -> Iterator[None]:
        """Each step applies the events appended to events (laid out as
        Engine.events) since the last step, with their records in actions,
        and checks junk_load and bad_bins after each until `broken` is
        found; bind-time records (time None) count toward the next event.

        Every rise of a group's Bad count is noted in `_rose`, in order,
        but only one that takes the count past 1 or is in class 0 marks
        the event: a clean event leaves each count at most 1 and class 0
        at 0, so only such a rise, or a bin over scale, can leave a
        violation, and `_violation` runs only then. A rise marks the event
        even if a later record of it brings the count back; the bundled
        policies write none on a clean run, since a single-class bin
        opens Good when its first item reaches f. A step that finds one
        new event, as each of bad_bin_observer's steps after its first
        does, reads it with no islice."""
        scale, over, rose, shut = self.scale, self._over, self._rose, self._shut
        loads, bins, placed, bad = self.loads, self.bins, self.placed, self.bad
        fail = self._fail
        i = 0  # the next action entry to read
        k = 0  # the number of event entries read
        marked = False  # a Bad count rose past 1, or in class 0, since the last check
        # run only up to its list's end, a list iterator sees the entries
        # appended later
        quads = iter(events)
        records = zip(quads, quads, quads, quads)
        while True:
            appended = len(events) - k
            k += appended
            # the one event a live step finds is read with no islice
            pending = (next(records),) if appended == 4 else islice(records, appended // 4)
            for time, _kind, _item, count in pending:
                end = i + count
                while i < end:
                    kind = actions[i]
                    if kind == "place":
                        item, b, size = actions[i + 1], actions[i + 2], actions[i + 3]
                        i += 4
                        if item in placed:
                            fail(f"t={time}: item {item} placed twice")
                            continue
                        # a bin closed earlier in this event is still in loads;
                        # a place into it shows when the event ends, not empty
                        load = loads.get(b)
                        if load is None:
                            fail(f"t={time}: item {item} placed in bin {b}, which is not open")
                            continue
                        load = loads[b] = load + size
                        if load > scale:
                            fail(f"t={time}: bin {b} overflows capacity")
                            over.append(b)
                        placed[item] = (b, size)
                    elif kind == "depart":
                        item, b = actions[i + 1], actions[i + 2]
                        i += 4
                        at = placed.pop(item, None)
                        if at is None or at[0] != b:
                            fail(f"t={time}: departure of item {item} from wrong bin")
                            continue
                        try:
                            loads[b] -= at[1]
                        except KeyError:  # b closed empty with the item in it
                            fail(f"t={time}: item {item} departed from bin {b}, which is not open")
                    elif kind == "open":
                        b, label, group = actions[i + 1], actions[i + 2], actions[i + 3]
                        i += 4
                        loads[b] = 0
                        bins[b] = (group, label)
                        if label == BAD:
                            held = bad[group] = bad.get(group, 0) + 1
                            rose.append(group)
                            if held > 1 or group == "class:0":
                                marked = True
                    elif kind == "close":
                        b = actions[i + 1]
                        i += 2
                        if b not in bins:
                            fail(f"t={time}: bin {b} closed, but it is not open")
                            continue
                        group, label = bins.pop(b)
                        if label == BAD:
                            bad[group] -= 1
                        shut.append(b)
                    elif kind == "migrate":
                        item, src, dst, size = (
                            actions[i + 1], actions[i + 2], actions[i + 3], actions[i + 4]
                        )
                        i += 5
                        at = placed.get(item)
                        if at is None or at[0] != src:
                            fail(f"t={time}: migration of item {item} from wrong bin")
                            continue
                        if at[1] != size:
                            fail(f"t={time}: migration of item {item} with wrong size")
                            continue
                        if dst not in loads:
                            fail(f"t={time}: item {item} migrated to bin {dst}, which is not open")
                            continue
                        try:
                            loads[src] -= size  # first: dst may be src
                        except KeyError:  # src closed empty with the item in it
                            fail(f"t={time}: item {item} migrated from bin {src}, which is not open")
                            continue
                        load = loads[dst] = loads[dst] + size
                        if load > scale:
                            fail(f"t={time}: bin {dst} overflows capacity")
                            over.append(dst)
                        placed[item] = (dst, size)
                    elif kind == "label":
                        b, old, new = actions[i + 1], actions[i + 2], actions[i + 3]
                        i += 4
                        if old == GOOD and new == BAD:
                            fail(f"t={time}: bin {b} relabeled Good -> Bad")
                        if b not in bins:
                            fail(f"t={time}: bin {b} relabeled, but it is not open")
                            continue
                        group, label = bins[b]
                        bins[b] = (group, new)
                        if label == BAD:
                            bad[group] -= 1
                        if new == BAD:
                            held = bad[group] = bad.get(group, 0) + 1
                            rose.append(group)
                            if held > 1 or group == "class:0":
                                marked = True
                    else:  # no action: the rest of the event cannot be read
                        fail(f"t={time}: unknown action {kind!r}")
                        break
                i = end
                if (shut or over or rose) and time is not None:
                    # a migration writes its source bin's close before the
                    # migrate record that empties it, so loads wait for the end
                    for b in shut:
                        if loads[b]:
                            fail(f"t={time}: bin {b} closed, but it is not empty")
                        else:
                            del loads[b]
                    shut.clear()
                    if (over or marked) and self.broken is None:
                        self.broken = self._violation(time)
                    over.clear()
                    rose.clear()
                    marked = False
            yield

    def _violation(self, time: float) -> tuple[str, str, float] | None:
        """The first violation the records read since the last check left:
        the junk bins they took over scale in id order, then the groups
        that gained a Bad bin in the order they did. `follow` calls it
        only after an event that can have left one."""
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
    """One step of a Replay following a stored run's records: its first
    packing problem (t=None at bind time) and its first junk_load or
    bad_bins violation, as bad_bin_observer raises it."""
    replay = Replay(result.scale)
    next(replay.follow(result.actions, result.events))
    if replay.placed and replay.problem is None:
        replay.problem = "items left placed at end of trace"
    return replay.problem, replay.broken


def verify_packing(result: SimulationResult) -> str | None:
    """The first packing problem of a stored run, or None if clean."""
    return check_records(result)[0]
