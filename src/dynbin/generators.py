"""Reproducible instance families: the adaptive equal-size construction
with deferred durations, the randomized equal-size lower-bound families,
and generic uniform workloads for fuzzing.

All randomness comes from Python's seeded Mersenne Twister; the
identifier below is recorded in every generated instance header so a
stated seed pins the draw.
"""

from __future__ import annotations

import math
import random

from .core import Instance, Item, LongestPerBinResolver

RNG_ID = "python-random-mt19937"


def gen_fig2(k: int, mu: float) -> Instance:
    """k^2 items of size 1/k arriving at time 0 with deferred durations,
    whose header names the adaptive resolver marking one long item per
    algorithm bin."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if mu <= 1:
        raise ValueError("mu must exceed 1")
    items = tuple(Item(i, 0.0, 1, None) for i in range(k * k))
    return Instance(items=items, scale=k, adversary=LongestPerBinResolver(mu, k).header())


def gen_tradeoff_lb(inv_s: int, k: int, mu: float, seed: int) -> Instance:
    """k/s items of size s = 1/inv_s, all at time 0; each duration is
    independently mu with probability s, else 1."""
    if inv_s < 2:
        raise ValueError("inv_s must be >= 2")
    if k < inv_s or k % inv_s != 0:
        raise ValueError("k must be a positive multiple of inv_s")
    rng = random.Random(seed)
    n = k * inv_s
    items = tuple(
        Item(i, 0.0, 1, mu if rng.random() < 1.0 / inv_s else 1.0) for i in range(n)
    )
    return Instance(items=items, scale=inv_s, seed=seed, rng=RNG_ID)


def gen_basic_lb(k: int, mu: float, seed: int) -> Instance:
    """k^2 items of size 1/k, duration mu with probability 1/k else 1;
    the zero-migration hardness family."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return gen_tradeoff_lb(inv_s=k, k=k, mu=mu, seed=seed)


def gen_delay_lb(c: int, seed: int) -> Instance:
    """4C items of size 1/(2*sqrt(C)), duration sqrt(C) with probability
    1/(2*sqrt(C)) else 1. C must be a perfect square >= 4 so every size
    and duration is exactly representable."""
    if c < 4:
        raise ValueError("C must be >= 4")
    root = math.isqrt(c)
    if root * root != c:
        raise ValueError("C must be a perfect square")
    rng = random.Random(seed)
    items = tuple(
        Item(i, 0.0, 1, float(root) if rng.random() < 1.0 / (2 * root) else 1.0)
        for i in range(4 * c)
    )
    return Instance(items=items, scale=2 * root, seed=seed, rng=RNG_ID)


def gen_uniform(
    n: int,
    size_grid: int,
    duration_range: tuple[float, float],
    arrival_window: float,
    seed: int,
) -> Instance:
    """n items with uniform numerators on a power-of-two size grid,
    uniform durations, and uniform arrivals in [0, arrival_window).

    Each item draws, in this order, from one Random(seed): its arrival,
    rng.uniform(0.0, arrival_window) (no draw when the window is 0, and
    every arrival is 0.0); its size numerator, rng.randint(1, size_grid);
    and its duration, rng.uniform(dmin, dmax). The loop makes the same
    calls on the bound methods those draws reduce to: uniform(a, b) is
    a + (b - a) * random() and randint(a, b) is randrange(a, b + 1), so
    the items are bit-identical to the draws written out."""
    if size_grid < 1 or size_grid & (size_grid - 1):
        raise ValueError("size_grid must be a power of two")
    dmin, dmax = duration_range
    if dmin <= 0 or dmax < dmin:
        raise ValueError("bad duration range")
    if arrival_window < 0:
        raise ValueError("arrival window must be nonnegative")
    rng = random.Random(seed)
    draw, randrange = rng.random, rng.randrange
    top, width = size_grid + 1, dmax - dmin
    items = []
    add = items.append
    for i in range(n):
        arrival = arrival_window * draw() if arrival_window else 0.0
        add(Item(i, arrival, randrange(1, top), dmin + width * draw()))
    return Instance(items=tuple(items), scale=size_grid, seed=seed, rng=RNG_ID)
