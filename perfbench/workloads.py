"""The four benchmark workloads.

Each workload has a `setup(seed, workdir)` that generates its inputs and a
`run(state, rec)` that is the timed section. `run` calls dynbin only
through module attributes (`engine.simulate`, `cli.main`, ...), so the
tracer's patches see every call. Sizes were chosen on a 2-core x86 box
(Python 3.11) so that one repetition takes a few seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from fractions import Fraction

from dynbin import algorithms, cli, engine, generators, harness, oracles

# Operations that fail without ending the repetition; each one counts as
# a failed operation.
FAILURES = (
    engine.SimulationError,
    harness.InvariantViolation,
    oracles.SnapshotTooLarge,
    oracles.TimeBudgetExceeded,
)

# stream: few live items, thousands of closed bins
STREAM_N = 16000
STREAM_ALPHA = Fraction(1, 4)
# dense: migration-delay policy with about 1000 live items
DENSE_N = 8000
DENSE_C = 100
# checked: the acceptance sweep's trial shape, through `dynbin run --config`
CHECKED_ALPHAS = ("1/10", "1/4", "2/5")
CHECKED_TRIALS = 334  # seeds per threshold: 1003 trials, 10 beyond their p99
CHECKED_GENERATOR = {
    "family": "uniform",
    "n": 40,
    "size_grid": 16,
    "duration_range": [1.0, 2.0],
    "arrival_window": 20.0,
}
FIG2 = {"family": "fig2", "k": 10, "mu": 100.0}
FIG2_FIRSTFIT, FIG2_OPT = 1000.0, 109.0
# offline: the time-integrated optimum over about 40 live items; two
# instances, because the exact share of one varies by 0.09 between seeds
OFFLINE_N = 6000
OFFLINE_INSTANCES = 2


class Recorder:
    """What one repetition did: operations, failures, the perf_counter
    span of each trial, and the outputs digested after the timed section."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.trials: list[tuple[float, float]] = []
        self.items = 0
        self.intervals = 0
        self.exact_intervals = 0
        self.outputs: dict[str, list] = {}

    def fail(self, kind: str, count: int = 1) -> None:
        self.failed += count
        self.errors[kind] = self.errors.get(kind, 0) + count

    def trial(self, fn):
        """Run one operation; a known failure is counted, not raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn()
        except FAILURES as exc:
            self.fail(type(exc).__name__)
            return None
        finally:
            self.trials.append((start, time.perf_counter()))

    def simulated(self, group: str, result) -> None:
        """Keep what the digest covers, not the trace, so the trace's
        memory is freed as it would be in a caller's program."""
        outputs = None
        if result is not None:
            outputs = (result.total_active_time, result.ledger.entries, result.departures)
            self.items += len(result.departures)
        self.outputs.setdefault(group, []).append(outputs)

    def integrated(self, report) -> None:
        self.intervals += len(report.intervals)
        self.exact_intervals += sum(iv.exact for iv in report.intervals)


def _packing(result) -> None:
    problem = engine.verify_packing(result)
    if problem:
        raise harness.InvariantViolation("packing", problem)


def gen_stream(seed: int):
    return generators.gen_uniform(STREAM_N, 16, (1.0, 2.0), STREAM_N * 1.5 / 40, seed)


def gen_dense(seed: int):
    return generators.gen_uniform(
        DENSE_N, 8, (1.0, 4 * math.sqrt(DENSE_C)), DENSE_N / 10, seed
    )


def gen_offline(seed: int):
    return [
        generators.gen_uniform(OFFLINE_N, 16, (1.0, 2.0), OFFLINE_N * 1.5 / 40, sub_seed)
        for sub_seed in range(OFFLINE_INSTANCES * seed, OFFLINE_INSTANCES * (seed + 1))
    ]


# ----------------------------------------------------------------------
# stream

def setup_stream(seed: int, workdir: str):
    return gen_stream(seed)


def run_stream(instance, rec: Recorder) -> None:
    def firstfit():
        return engine.simulate(instance, algorithms.FirstFitPolicy())

    def alg2():
        result = engine.simulate(
            instance,
            algorithms.MultiClassPolicy(STREAM_ALPHA),
            observers=[harness.bad_bin_observer(instance.scale)],
        )
        _packing(result)
        harness.check_migration_budget(instance, result, STREAM_ALPHA)
        return result

    for group, fn in (("firstfit", firstfit), ("alg2", alg2)):
        result = rec.trial(fn)
        rec.simulated(group, result)
        if result is not None:
            rec.intervals += len(result.segments)
        del result
    rec.exact_intervals = rec.intervals  # no oracle runs: nothing is inexact


# ----------------------------------------------------------------------
# dense

def setup_dense(seed: int, workdir: str):
    return gen_dense(seed)


def run_dense(instance, rec: Recorder) -> None:
    def delay():
        result = engine.simulate(
            instance, algorithms.DelayPolicy(DENSE_C), delay_cost=float(DENSE_C)
        )
        _packing(result)
        harness.check_delay_schedule(instance, result, float(DENSE_C))
        harness.check_decomposition(instance, result, float(DENSE_C))
        return result

    result = rec.trial(delay)
    rec.simulated("delay", result)
    if result is not None:
        rec.intervals += len(result.segments)
    rec.exact_intervals = rec.intervals


# ----------------------------------------------------------------------
# offline

def setup_offline(seed: int, workdir: str):
    return gen_offline(seed)


def run_offline(instances, rec: Recorder) -> None:
    def opt(instance):
        report = oracles.opt_total(instance)
        slack = 1e-9 * max(1.0, report.upper_bound)
        if not report.lower_bound - slack <= report.opt_total <= report.upper_bound + slack:
            raise harness.InvariantViolation(
                "sandwich",
                f"{report.lower_bound} <= {report.opt_total} <= {report.upper_bound} fails",
            )
        return report

    for instance in instances:
        report = rec.trial(lambda: opt(instance))
        rec.outputs.setdefault("opt_total", []).append(report)
        if report is not None:
            rec.items += len(instance.items)
            rec.integrated(report)


# ----------------------------------------------------------------------
# checked

def checked_configs(seed: int) -> dict[str, dict]:
    configs = {
        f"alg2 alpha={alpha}": harness.ExperimentConfig(
            algorithm="alg2",
            alpha=alpha,
            generator=CHECKED_GENERATOR,
            trials=CHECKED_TRIALS,
            base_seed=seed * CHECKED_TRIALS,
            checks=harness.applicable_checks("alg2"),
        )
        for alpha in CHECKED_ALPHAS
    }
    configs["fig2"] = harness.ExperimentConfig(
        algorithm="firstfit", generator=FIG2, checks=["packing"]
    )
    return {name: cfg.to_dict() for name, cfg in configs.items()}


def setup_checked(seed: int, workdir: str):
    batches = []
    for i, (name, config) in enumerate(checked_configs(seed).items()):
        path = os.path.join(workdir, f"config{i}.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        batches.append((name, config["trials"], path, os.path.join(workdir, f"report{i}.json")))
    return batches


def _capture(module, attr: str, sink):
    """Wrap module.attr to pass each call's start, end and return value
    to sink."""
    original = getattr(module, attr)

    def capture(*args, **kwargs):
        start = time.perf_counter()
        value = original(*args, **kwargs)
        sink(start, time.perf_counter(), value)
        return value

    setattr(module, attr, capture)
    return original


def _check_row(name: str, row: dict) -> str | None:
    """The oracle sandwich, ALG >= OPT, and the fig2 answer."""
    slack = 1e-9 * max(1.0, row["opt_ub"])
    if not row["opt_lb"] - slack <= row["opt_total"] <= row["opt_ub"] + slack:
        return "sandwich"
    if row["opt_exact"] and row["alg_cost"] < row["opt_total"] - slack:
        return "alg_below_opt"
    if name == "fig2" and (row["alg_cost"], row["opt_total"]) != (FIG2_FIRSTFIT, FIG2_OPT):
        return "fig2_answer"
    return None


def run_checked(batches, rec: Recorder) -> None:
    originals = [
        (harness, "simulate", _capture(harness, "simulate", lambda a, b, r: batch.simulated("", r))),
        (oracles, "opt_total", _capture(oracles, "opt_total", lambda a, b, r: batch.integrated(r))),
        (harness, "run_trial", _capture(harness, "run_trial", lambda a, b, r: rec.trials.append((a, b)))),
    ]
    try:
        for name, trials, config_path, report_path in batches:
            batch = Recorder()  # merged into rec only if the batch completes
            rec.attempted += trials
            try:
                cli.main(["run", "--config", config_path, "-o", report_path], standalone_mode=False)
            except FAILURES as exc:
                rec.fail(type(exc).__name__, trials)
                continue
            except SystemExit as exc:  # the CLI's exit on an invariant violation
                if exc.code:
                    rec.fail("cli_exit", trials)
                    continue
            with open(report_path) as fh:
                rows = json.load(fh)["trials"]
            if len(rows) != trials:
                rec.fail("row_count", trials)
                continue
            for row in rows:
                problem = _check_row(name, row)
                if problem:
                    rec.fail(problem)
            rec.outputs[name] = batch.outputs[""]
            rec.items += batch.items
            rec.intervals += batch.intervals
            rec.exact_intervals += batch.exact_intervals
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


# ----------------------------------------------------------------------
# digests of the outputs

def digest(outputs: list) -> str:
    """sha256 of the engine outputs (total active time, ledger, departure
    times) of each result, or of each optimum report."""
    h = hashlib.sha256()
    for out in outputs:
        if out is None:
            payload = None
        elif isinstance(out, tuple):
            total_active_time, ledger, departures = out
            payload = [
                total_active_time,
                [
                    [e.time, e.item, e.size_num, e.source, e.destination, e.class_key, e.rule]
                    for e in ledger
                ],
                sorted(departures.items()),
            ]
        else:
            payload = [
                out.opt_total,
                out.lower_bound,
                out.upper_bound,
                [[iv.start, iv.end, iv.exact, iv.opt] for iv in out.intervals],
            ]
        h.update(json.dumps(payload).encode())
    return h.hexdigest()


WORKLOADS = {
    "stream": (setup_stream, run_stream),
    "dense": (setup_dense, run_dense),
    "checked": (setup_checked, run_checked),
    "offline": (setup_offline, run_offline),
}
