"""Exact data model for dynamic bin packing instances.

Item sizes are stored as integer numerators against an instance-wide
scale (bin capacity == scale), so every load and capacity comparison is
exact integer arithmetic. Times (arrivals, durations) are doubles; an
item's lifetime is the half-open interval [arrival, arrival + duration).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple


class UnresolvedDurationError(ValueError):
    pass


class Item(NamedTuple):
    """One arriving object. duration=None means the duration is deferred:
    the adversary that the instance's header names assigns it during
    simulation. A tuple: immutable, and cheap to build by the thousand."""

    id: int
    arrival: float
    size_num: int
    duration: float | None = None

    @property
    def deferred(self) -> bool:
        return self.duration is None

    @property
    def departure(self) -> float:
        if self.duration is None:
            raise UnresolvedDurationError("unresolved durations")
        return self.arrival + self.duration


@dataclass(frozen=True)
class Instance:
    """A finite set of items sharing one exact size scale."""

    items: tuple[Item, ...]
    scale: int
    seed: int | None = None
    adversary: dict | None = None  # header naming the resolver the engine runs
    rng: str | None = None  # identifier of the generator algorithm
    # whether some item's duration is deferred, found once when built
    _deferred: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        items = tuple(self.items)
        object.__setattr__(self, "items", items)
        # the field, not the `deferred` property: one call less per item
        object.__setattr__(self, "_deferred", any(it.duration is None for it in items))

    def __len__(self) -> int:
        return len(self.items)

    def has_deferred(self) -> bool:
        return self._deferred


def vol(instance: Instance) -> float:
    """Sum of size * duration over all items."""
    if instance.has_deferred():
        raise UnresolvedDurationError("unresolved durations")
    return sum((it.size_num / instance.scale) * it.duration for it in instance.items)


def with_durations(instance: Instance, durations: dict[int, float]) -> Instance:
    """Return a copy with deferred durations filled in from a mapping."""
    items = []
    for it in instance.items:
        if it.deferred:
            if it.id not in durations:
                raise UnresolvedDurationError(f"no duration for item {it.id}")
            items.append(it._replace(duration=durations[it.id]))
        else:
            items.append(it)
    return replace(instance, items=tuple(items), adversary=None)


def validate(instance: Instance) -> list[str]:
    """Check structural invariants; returns all violations (empty = ok)."""
    violations = []
    scale, inf = instance.scale, math.inf
    if scale < 1:
        violations.append("scale must be a positive integer")
    seen: set[int] = set()
    for item_id, arrival, size, duration in instance.items:
        if item_id in seen:
            violations.append(f"duplicate id {item_id}")
        seen.add(item_id)
        if size <= 0:
            violations.append(f"item {item_id}: size must be positive")
        elif size > scale:
            violations.append(f"item {item_id}: size exceeds bin capacity")
        # one test when both times are fine; a NaN fails it too
        if not (0 <= arrival < inf and (duration is None or 0 < duration < inf)):
            violations += time_problems(item_id, arrival, duration)
    return violations


def time_problems(label: int, arrival: float, duration: float | None) -> list[str]:
    """validate's findings on one item's arrival and duration, the item
    named by label; a finite arrival >= 0 and a finite duration > 0 (or
    None, deferred) pass."""
    problems = []
    if arrival != arrival:
        problems.append(f"item {label}: arrival is NaN")
    elif arrival < 0:
        problems.append(f"item {label}: negative arrival")
    elif arrival == math.inf:
        problems.append(f"item {label}: arrival must be finite")
    if duration is not None:
        if not duration > 0:  # NaN too
            problems.append(f"item {label}: duration must be positive")
        elif duration == math.inf:
            problems.append(f"item {label}: duration must be finite")
    return problems


def write_jsonl(instance: Instance, path) -> None:
    """One header line, then one JSON record per item."""
    with open(path, "w") as fh:
        header = {"scale": instance.scale, "seed": instance.seed}
        if instance.adversary is not None:
            header["adversary"] = instance.adversary
        if instance.rng is not None:
            header["rng"] = instance.rng
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for it in instance.items:
            rec = {
                "id": it.id,
                "arrival": it.arrival,
                "size_num": it.size_num,
                "duration": it.duration,
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


# each key a header or an item record must hold: what its value must be
_INTEGER = ("an integer", lambda v: type(v) is int)  # not true or false
# Python's json module reads Infinity and NaN beyond the standard: an
# infinite time or mu is refused here, and a NaN time reaches validate,
# which names it
_NUMBER = ("a number", lambda v: type(v) in (int, float) and v not in (math.inf, -math.inf))
_ITEM_KEYS = {"id": _INTEGER, "arrival": _NUMBER, "size_num": _INTEGER,
              "duration": ("a number or null", lambda v: v is None or _NUMBER[1](v))}
# the header's keys, all but scale optional; the adversary, the one way a
# run gets its deferred durations, is LongestPerBinResolver's header below
_HEADER_KEYS = {
    "scale": _INTEGER,
    "seed": ("an integer or null", lambda v: v is None or type(v) is int),
    "rng": ("a string or null", lambda v: v is None or type(v) is str),
    "adversary": ('{"name": "longest-per-bin", "mu": a number, "long_count": an integer}',
                  lambda v: type(v) is dict and v.get("name") == "longest-per-bin"
                  and _NUMBER[1](v.get("mu")) and _INTEGER[1](v.get("long_count"))),
}


class LongestPerBinResolver:
    """Adaptive adversary for the deferred-duration construction: after
    observing the time-0 packing, the lowest-id deferred item in each
    nonempty bin becomes long-lived (duration mu) until long_count such
    items are marked; everything else gets duration 1."""

    def __init__(self, mu: float, long_count: int):
        self.mu = float(mu)
        self.long_count = int(long_count)

    def resolve(self, snapshot) -> dict[int, float]:
        assignment: dict[int, float] = {}
        marked = 0
        for _bin_id, deferred_ids in snapshot:
            if deferred_ids and marked < self.long_count:
                assignment[deferred_ids[0]] = self.mu
                marked += 1
            for item_id in deferred_ids:
                assignment.setdefault(item_id, 1.0)
        return assignment

    def header(self) -> dict:
        return {"name": "longest-per-bin", "mu": self.mu, "long_count": self.long_count}


def resolver_from_header(header) -> LongestPerBinResolver:
    """The resolver an adversary header names, else a ValueError naming the
    header. A nonpositive, NaN or infinite mu passes: the engine refuses
    the duration the resolver assigns."""
    if type(header) is dict and header.get("name") == "longest-per-bin":
        try:
            return LongestPerBinResolver(header["mu"], header["long_count"])
        except (KeyError, TypeError, ValueError, OverflowError):
            pass
    raise ValueError(f"adversary: expected {_HEADER_KEYS['adversary'][0]}, got {header!r}")


def _record(path, lineno: int, line: str, keys: dict, optional: tuple = ()) -> dict:
    """One JSON object holding every key of keys not named in optional,
    each value present of its type, else a ValueError naming the file and
    line."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{lineno}: not JSON: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object")
    missing = [k for k in keys if k not in rec and k not in optional]
    if missing:
        raise ValueError(f"{path}:{lineno}: missing {', '.join(missing)}")
    for key, (expected, typed) in keys.items():
        if key in rec and not typed(rec[key]):
            raise ValueError(f"{path}:{lineno}: {key}: expected {expected}, got {rec[key]!r}")
    return rec


def read_jsonl(path) -> Instance:
    """Read write_jsonl's format. A malformed header or record, or a value
    of the wrong type, raises a ValueError naming the path and line."""
    with open(path) as fh:
        header = _record(path, 1, fh.readline(), _HEADER_KEYS, ("seed", "rng", "adversary"))
        items = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            rec = _record(path, lineno, line, _ITEM_KEYS)
            items.append(Item(**{key: rec[key] for key in _ITEM_KEYS}))
    return Instance(
        items=tuple(items),
        scale=header["scale"],
        seed=header.get("seed"),
        adversary=header.get("adversary"),
        rng=header.get("rng"),
    )
