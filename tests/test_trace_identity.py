"""Bit-identity of simulation outputs.

Each case hashes `result.to_json()` and the full trace of every run it
makes. The expected digests were recorded on the engine that scanned
every bin ever opened on each placement; the open-bin index and the
first-fit trees must reproduce bin ids, ledgers, departures and traces
exactly. When the size-desc drain order was removed, the alg1 and alg2
runs on long_run(1) that used it turned to id order. The alg1 digest was
re-recorded then, computed by the code from before the removal; alg2's
stayed, since its size-desc run equals its id-order one.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest

from dynbin.algorithms import (
    DelayPolicy,
    FirstFitPolicy,
    MultiClassPolicy,
    SingleClassPolicy,
    SizeCostPolicy,
)
from dynbin.engine import simulate
from dynbin.generators import gen_basic_lb, gen_fig2, gen_tradeoff_lb, gen_uniform

SEEDS = range(5)
# about 40 live items over 3000 arrivals: thousands of bins close
LONG_N = 3000


def acceptance(seed):
    return gen_uniform(40, 16, (1.0, 2.0), 20.0, seed)


def long_run(seed):
    return gen_uniform(LONG_N, 16, (1.0, 2.0), LONG_N * 1.5 / 40, seed)


def delay_instance(c, seed):
    return gen_uniform(25, 8, (1.0, 4 * math.sqrt(c)), 10.0, seed)


def runs_firstfit():
    yield simulate(gen_fig2(10, 100.0), FirstFitPolicy())
    for seed in SEEDS:
        yield simulate(gen_tradeoff_lb(4, 8, 16.0, seed), FirstFitPolicy())
        yield simulate(gen_basic_lb(8, 8.0, seed), FirstFitPolicy())
        yield simulate(acceptance(seed), FirstFitPolicy())
    yield simulate(long_run(0), FirstFitPolicy())


def runs_alg1():
    for seed in SEEDS:
        for alpha, f in ((Fraction(1, 10), Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))):
            yield simulate(acceptance(seed), SingleClassPolicy(alpha, f))
    yield simulate(long_run(0), SingleClassPolicy(Fraction(1, 4), Fraction(1, 2)))
    yield simulate(long_run(1), SingleClassPolicy(Fraction(1, 4), Fraction(1, 2)))


def runs_alg2():
    for seed in SEEDS:
        for alpha in (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5)):
            yield simulate(acceptance(seed), MultiClassPolicy(alpha))
    yield simulate(long_run(0), MultiClassPolicy(Fraction(1, 4)))
    yield simulate(long_run(1), MultiClassPolicy(Fraction(2, 5)))


def runs_sizecost():
    for seed in SEEDS:
        for alpha in (Fraction(1, 10), Fraction(1, 4)):
            yield simulate(acceptance(seed), SizeCostPolicy(alpha))
    yield simulate(long_run(0), SizeCostPolicy(Fraction(1, 4)))


def runs_delay():
    for c in (16.0, 100.0, 900.0):
        for seed in SEEDS:
            yield simulate(delay_instance(c, seed), DelayPolicy(c), delay_cost=c)
    # C = 1: every item migrates at arrival + 1, so the big pool is busy too
    yield simulate(long_run(0), DelayPolicy(1.0), delay_cost=1.0)


CASES = {
    "firstfit": runs_firstfit,
    "alg1": runs_alg1,
    "alg2": runs_alg2,
    "sizecost": runs_sizecost,
    "delay": runs_delay,
}

EXPECTED = {
    "firstfit": "ec6ab163fb5ff42b523c81ac946c431ed49c5df6af922215fcd8304b3eeb332d",
    "alg1": "1d3012e119e0dedb7b7a9ba81e5dd6ac643699f3aff9921ccdccd920eb035afc",
    "alg2": "77beea9b9fe5a215bca618f8cddb1427d6373a64a448f1c4b89ac34f9463f5bb",
    "sizecost": "b2b5db77afa0c4cb295956c9e799dd0183fdfe161157069aa85c764b41e4d421",
    "delay": "537103db614d6f1cbc07ec5725e4ae1651d240c5fe2e6c69d86ec5633a76a0fb",
}


def digest(runs) -> str:
    h = hashlib.sha256()
    for result in runs:
        h.update(result.to_json().encode())
        h.update(json.dumps(result.trace, sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_and_traces_are_bit_identical(name):
    assert digest(CASES[name]()) == EXPECTED[name]
