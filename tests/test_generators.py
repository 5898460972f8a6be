import math
import random
import statistics

import pytest

from dynbin.core import Item, LongestPerBinResolver, resolver_from_header, validate
from dynbin.engine import simulate
from dynbin.algorithms import FirstFitPolicy
from dynbin.generators import (
    RNG_ID,
    gen_basic_lb,
    gen_delay_lb,
    gen_fig2,
    gen_tradeoff_lb,
    gen_uniform,
)


class TestFig2:
    def test_shape(self):
        instance = gen_fig2(5, 20.0)
        assert len(instance) == 25
        assert instance.scale == 5
        assert all(it.deferred and it.arrival == 0.0 for it in instance.items)
        assert resolver_from_header(instance.adversary).long_count == 5

    def test_resolver_marks_one_per_bin(self):
        resolver = LongestPerBinResolver(mu=9.0, long_count=2)
        snapshot = [(0, [0, 1]), (1, [2]), (2, [3, 4])]
        out = resolver.resolve(snapshot)
        assert out == {0: 9.0, 1: 1.0, 2: 9.0, 3: 1.0, 4: 1.0}

    def test_resolver_header_roundtrip(self):
        instance = gen_fig2(3, 7.0)
        again = resolver_from_header(instance.adversary)
        assert (again.mu, again.long_count) == (7.0, 3)
        assert again.header() == instance.adversary

    def test_forces_one_long_item_per_firstfit_bin(self):
        r = simulate(gen_fig2(4, 10.0), FirstFitPolicy())
        assert r.total_active_time == 40.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_fig2(1, 10.0)
        with pytest.raises(ValueError):
            gen_fig2(4, 1.0)


def reference_uniform(n, size_grid, duration_range, arrival_window, seed):
    """gen_uniform's items drawn through the public Random calls, in
    their documented order: arrival, size, duration."""
    rng = random.Random(seed)
    dmin, dmax = duration_range
    items = []
    for i in range(n):
        arrival = rng.uniform(0.0, arrival_window) if arrival_window else 0.0
        size_num = rng.randint(1, size_grid)
        items.append(Item(i, arrival, size_num, rng.uniform(dmin, dmax)))
    return tuple(items)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "n, size_grid, duration_range, arrival_window",
    [
        (60, 16, (1.0, 2.0), 20.0),
        (60, 16, (1.0, 2.0), 0.0),
        # ints, as a JSON config gives them
        (60, 8, [1, 40], 40),
        (60, 16, [2, 5], 0),
        (60, 1, (3.0, 3.0), 7.5),
        (60, 16, [3, 3], 12),
    ],
)
def test_uniform_draws_match_the_public_calls(n, size_grid, duration_range, arrival_window, seed):
    instance = gen_uniform(n, size_grid, duration_range, arrival_window, seed)
    expected = reference_uniform(n, size_grid, duration_range, arrival_window, seed)
    # repr: the same float bits, and no int where the reference has a float
    assert repr(instance.items) == repr(expected)


class TestRandomFamilies:
    def test_determinism(self):
        assert gen_tradeoff_lb(4, 8, 16.0, 3) == gen_tradeoff_lb(4, 8, 16.0, 3)
        assert gen_uniform(20, 8, (1.0, 2.0), 5.0, 11) == gen_uniform(
            20, 8, (1.0, 2.0), 5.0, 11
        )
        assert gen_tradeoff_lb(4, 8, 16.0, 3) != gen_tradeoff_lb(4, 8, 16.0, 4)

    def test_all_valid(self):
        for seed in range(25):
            for instance in (
                gen_tradeoff_lb(4, 8, 16.0, seed),
                gen_basic_lb(6, 8.0, seed),
                gen_delay_lb(16, seed),
                gen_uniform(30, 16, (1.0, 2.0), 10.0, seed),
            ):
                assert validate(instance) == []
                assert instance.rng == RNG_ID
                assert instance.seed == seed

    def test_tradeoff_long_fraction(self):
        # duration mu with probability 1/inv_s: binomial mean within 3 sigma
        inv_s, k, mu = 4, 8, 16.0
        counts = [
            sum(1 for it in gen_tradeoff_lb(inv_s, k, mu, seed).items if it.duration == mu)
            for seed in range(400)
        ]
        n = k * inv_s
        p = 1 / inv_s
        expected = n * p
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(statistics.fmean(counts) - expected) <= 3 * sigma / math.sqrt(len(counts))

    def test_basic_lb_is_square(self):
        instance = gen_basic_lb(6, 8.0, 0)
        assert len(instance) == 36
        assert instance.scale == 6

    def test_delay_lb_shape(self):
        instance = gen_delay_lb(16, 0)
        assert len(instance) == 64
        assert instance.scale == 8
        assert set(it.duration for it in instance.items) <= {1.0, 4.0}

    def test_delay_lb_requires_perfect_square(self):
        with pytest.raises(ValueError):
            gen_delay_lb(20, 0)
        with pytest.raises(ValueError):
            gen_delay_lb(2, 0)

    def test_tradeoff_requires_multiple(self):
        with pytest.raises(ValueError):
            gen_tradeoff_lb(4, 9, 16.0, 0)

    def test_uniform_requires_power_of_two_grid(self):
        with pytest.raises(ValueError):
            gen_uniform(5, 12, (1.0, 2.0), 1.0, 0)
