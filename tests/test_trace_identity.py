"""Bit-identity of simulation outputs.

Each case hashes `result.to_json()` of every run it makes, and apart
from it the full trace of each, so a change to the records alone shows
as a trace digest with the result digest unchanged. The expected digests
were recorded on the engine that scanned every bin ever opened on each
placement; the open-bin index and the first-fit trees must reproduce
bin ids, ledgers, departures and traces exactly. When the size-desc
drain order was removed, the alg1 and alg2 runs on long_run(1) that
used it turned to id order. The alg1 digest was re-recorded then,
computed by the code from before the removal; alg2's stayed, since its
size-desc run equals its id-order one. The alg1 and alg2 trace digests
were re-recorded when a single-class bin began to open Good for a first
item that reaches f: each such bin's `open` says Good and the `label`
record that turned it Good in the same event is gone, while the result
digests stayed.
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

# per policy: the digest of every run's `to_json()`, then of every trace
EXPECTED = {
    "firstfit": (
        "4dc84210ca9304e4adb0c55edb33641a3888382b286408ffc922d95ad6178651",
        "55e95244a807bcca3b56c23b061abafff6f86340713ebb2e225002bb059f42cb",
    ),
    "alg1": (
        "59bc44904cdccbc4bb15fd39f605a932dc048496757c1fa8f0de8e906c8aae21",
        "96a76366d85961c0ba3ae589357f059a94afd9841a8bc584d697e95228881295",
    ),
    "alg2": (
        "3e39509680be755b1f1a61fb0a6f9f9d860a6e46591abeee26c4311d89e84679",
        "111a77c8a0179ab57717143e19c31d0dd250dd0acee3c096672c91e8b4a43d69",
    ),
    "sizecost": (
        "97b6675e87dd6f6ca26bd7aafb46d67f646731983ba33370d3a5de2e946a3b83",
        "1d0be5b6e087419d9b19365182674bbb60dc528d9505299fead6b5a3c1b98cdb",
    ),
    "delay": (
        "d012549833fec4167a4ab29b4896e9f65ee4541e707cf666a2629563372e6a69",
        "9bed25d3d7a42ffd3ee28924370e7505ee09dc1e5f4c8cdd6eee31c9c8ecc7d8",
    ),
}


def digests(runs) -> tuple[str, str]:
    results, traces = hashlib.sha256(), hashlib.sha256()
    for result in runs:
        results.update(result.to_json().encode())
        traces.update(json.dumps(result.trace, sort_keys=True).encode())
    return results.hexdigest(), traces.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_and_traces_are_bit_identical(name):
    assert digests(CASES[name]()) == EXPECTED[name]
