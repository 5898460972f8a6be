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
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence


class UnresolvedDurationError(ValueError):
    pass


class ScaledSize(NamedTuple):
    """A size numerator/scale with value in (0, 1]."""

    numerator: int
    scale: int

    @property
    def value(self) -> float:
        return self.numerator / self.scale

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.scale)


@dataclass(frozen=True)
class Item:
    """One arriving object. duration=None means the duration is deferred
    and will be assigned by an adversary callback during simulation."""

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
    adversary: dict | None = None  # header naming the duration resolver
    rng: str | None = None  # identifier of the generator algorithm

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def __len__(self) -> int:
        return len(self.items)

    def has_deferred(self) -> bool:
        return any(it.deferred for it in self.items)


def _require_resolved(instance: Instance) -> None:
    if instance.has_deferred():
        raise UnresolvedDurationError("unresolved durations")


def vol(instance: Instance) -> float:
    """Sum of size * duration over all items."""
    _require_resolved(instance)
    return sum((it.size_num / instance.scale) * it.duration for it in instance.items)


def span(instance: Instance) -> float:
    """Lebesgue measure of the union of item lifetimes.

    Computed by a sweep over intervals sorted by start; half-open
    abutment merges measure (e.g. [0,1) and [1,2) span 2).
    """
    _require_resolved(instance)
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
    _require_resolved(instance)
    if not instance.items:
        raise ValueError("mu of an empty instance is undefined")
    durations = [it.duration for it in instance.items]
    return max(durations) / min(durations)


def with_durations(instance: Instance, durations: dict[int, float]) -> Instance:
    """Return a copy with deferred durations filled in from a mapping."""
    items = []
    for it in instance.items:
        if it.deferred:
            if it.id not in durations:
                raise UnresolvedDurationError(f"no duration for item {it.id}")
            items.append(replace(it, duration=durations[it.id]))
        else:
            items.append(it)
    return replace(instance, items=tuple(items), adversary=None)


def concat(parts: Sequence[Instance], gap: float) -> Instance:
    """Concatenate instances back to back with a positive gap between
    the span of each part and the start of the next, so lifetimes of
    items from distinct parts are disjoint. Ids are renumbered."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    if not parts:
        raise ValueError("nothing to concatenate")
    for p in parts:
        if not p.items:
            raise ValueError("cannot concatenate an empty part")
        _require_resolved(p)
    scale = math.lcm(*(p.scale for p in parts))
    items: list[Item] = []
    next_id = 0
    offset = 0.0
    for j, part in enumerate(parts):
        factor = scale // part.scale
        start = min(it.arrival for it in part.items)
        if j == 0:
            shift = 0.0
            offset = start
        else:
            shift = offset + gap - start
        end = 0.0
        for it in sorted(part.items, key=lambda i: i.id):
            items.append(
                Item(
                    id=next_id,
                    arrival=it.arrival + shift,
                    size_num=it.size_num * factor,
                    duration=it.duration,
                )
            )
            end = max(end, it.arrival + shift + it.duration)
            next_id += 1
        offset = end
    return Instance(items=tuple(items), scale=scale)


def validate(instance: Instance) -> list[str]:
    """Check structural invariants; returns all violations (empty = ok)."""
    violations = []
    if instance.scale < 1:
        violations.append("scale must be a positive integer")
    seen: set[int] = set()
    for it in instance.items:
        if it.id in seen:
            violations.append(f"duplicate id {it.id}")
        seen.add(it.id)
        if it.size_num <= 0:
            violations.append(f"item {it.id}: size must be positive")
        elif it.size_num > instance.scale:
            violations.append(f"item {it.id}: size exceeds bin capacity")
        if it.arrival < 0:
            violations.append(f"item {it.id}: negative arrival")
        if it.duration is not None and it.duration <= 0:
            violations.append(f"item {it.id}: duration must be positive")
    return violations


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


def _record(path, lineno: int, line: str, keys: tuple[str, ...]) -> dict:
    """One JSON object holding every key, else a ValueError naming the
    file and line."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{lineno}: not JSON: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise ValueError(f"{path}:{lineno}: expected a JSON object")
    missing = [k for k in keys if k not in rec]
    if missing:
        raise ValueError(f"{path}:{lineno}: missing {', '.join(missing)}")
    return rec


def read_jsonl(path) -> Instance:
    """Read write_jsonl's format. A malformed header or record raises a
    ValueError naming the path and line."""
    with open(path) as fh:
        header = _record(path, 1, fh.readline(), ("scale",))
        items = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            rec = _record(path, lineno, line, ("id", "arrival", "size_num", "duration"))
            items.append(
                Item(
                    id=rec["id"],
                    arrival=rec["arrival"],
                    size_num=rec["size_num"],
                    duration=rec["duration"],
                )
            )
    return Instance(
        items=tuple(items),
        scale=header["scale"],
        seed=header.get("seed"),
        adversary=header.get("adversary"),
        rng=header.get("rng"),
    )
