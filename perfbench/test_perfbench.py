"""Self-tests of the benchmark: deterministic inputs, the self-time and
reference-seconds arithmetic, and the per-layer counts on an instance
counted by hand.

    python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from dynbin import algorithms, cli, engine, generators, harness, oracles  # noqa: E402


@pytest.mark.parametrize("gen", [workloads.gen_stream, workloads.gen_dense, workloads.gen_offline])
def test_generated_inputs_follow_the_seed(gen):
    assert gen(3) == gen(3)
    assert gen(3) != gen(4)


def test_checked_configs_follow_the_seed():
    assert workloads.checked_configs(3) == workloads.checked_configs(3)
    assert workloads.checked_configs(3) != workloads.checked_configs(4)


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["c", 11.0, 12.0, -1],
    ]
    inclusive, own, calls = tracing.span_times(spans)
    assert inclusive == {"a": 10.0, "b": 7.0, "c": 2.0}
    assert own == {"a": 3.0, "b": 6.0, "c": 2.0}
    assert calls == {"a": 1, "b": 2, "c": 2}


def test_head_and_tail_use_the_largest_simulation():
    spans = [["engine.simulate", 0.0, 1.0, -1]]
    spans += [["algorithms.on_arrival", 0.0, 1e-6, 0]] * 1000
    spans += [["algorithms.on_arrival", 0.0, 3e-6, 0]] * 1000
    spans += [["engine.simulate", 1.0, 2.0, -1], ["algorithms.on_arrival", 1.0, 1.0, 2001]]
    head, tail = tracing.arrival_head_tail_us(spans, [(0, None), (2001, None)])
    assert head == pytest.approx(1.0)
    assert tail == pytest.approx(3.0)


def test_fig2_counts_by_hand():
    """k=10: 100 arrivals, one adversary resolution and 100 departures;
    FirstFit opens 10 bins, one long item per bin costs 10 * 100, and
    OPT is 10 bins for 1 time unit plus 1 bin for 99."""
    originals = (engine.simulate, harness.simulate, oracles.opt_snapshot, cli.main)
    tracer = tracing.Tracer()
    tracer.install(generators, engine, algorithms, harness, oracles, cli)
    try:
        config = harness.ExperimentConfig(
            algorithm="firstfit", generator=workloads.FIG2, checks=["packing"]
        )
        row = harness.run_trial(config, 0)
    finally:
        tracer.restore()
    assert (row["alg_cost"], row["opt_total"]) == (1000.0, 109.0)
    metrics = tracing.layer_metrics(tracer)
    assert metrics["engine.events"] == 201
    assert metrics["engine.bins_opened"] == 10
    assert metrics["engine.peak_open_bins"] == 10
    assert metrics["algorithms.migrations"] == 0
    assert metrics["oracles.opt_total_s"] > 0
    assert metrics["harness.trial_s"] >= metrics["engine.simulate_s"] > 0
    assert (engine.simulate, harness.simulate, oracles.opt_snapshot, cli.main) == originals


def test_reference_seconds_leave_out_probes_and_follow_probe_speed():
    probe = speed.SpeedProbe()
    probe.start, probe.end = 0.0, 10.0
    ref = speed.REFERENCE_S
    # [0, 4) ends at a probe that took twice the reference time: half speed
    probe.probes = [(4.0, 4.0 + 2 * ref), (8.0, 8.0 + ref)]
    probe._build()
    assert probe.scaled(0.0, 4.0) == pytest.approx(2.0)
    assert probe.scaled(4.0, 4.0 + 2 * ref) == pytest.approx(0.0)
    assert probe.scaled(0.0, 10.0) == pytest.approx(2.0 + (4.0 - 2 * ref) + (2.0 - ref))
    # a short trial takes the mean speed of its window
    assert probe.latency(1.0, 2.0) == pytest.approx(0.5)
