"""Per-layer spans recorded from outside dynbin.

The tracer replaces public functions of the dynbin modules with wrappers
that record one span (name, start, end, parent) per call. It patches each
module attribute where callers look it up: `harness` and `cli` bind
`simulate` and `verify_packing` by import, so those names are patched in
every module that holds them. Policy callbacks and observers are wrapped
per simulation, on the instance the engine calls. Spans stay in memory
until the repetition ends.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict

HEAD_TAIL = 1000  # arrivals averaged at each end of the largest simulation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.results: list[tuple[int, object]] = []  # (simulate span, result)
        self.reports: list = []  # OptReport of every opt_total call
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._inner_ffd: int | None = None

    # ------------------------------------------------------------------
    # recording

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def install(self, generators, engine, algorithms, harness, oracles, cli) -> None:
        for attr in ("gen_uniform", "gen_fig2"):
            self._patch(generators, attr, self.span("generators.gen", getattr(generators, attr)))

        simulate = self._simulate(engine.simulate)
        verify = self.span("engine.verify_packing", engine.verify_packing)
        for module in (engine, harness, cli):
            self._patch(module, "simulate", simulate)
            self._patch(module, "verify_packing", verify)

        self._patch(
            algorithms,
            "decompose_delay_run",
            self.span("algorithms.decompose", algorithms.decompose_delay_run),
        )
        for attr in (
            "check_per_time",
            "check_migration_budget",
            "check_delay_schedule",
            "check_decomposition",
        ):
            self._patch(harness, attr, self.span("harness." + attr, getattr(harness, attr)))
        self._patch(harness, "run_trial", self.span("harness.trial", harness.run_trial))

        self._patch(oracles, "opt_total", self._opt_total(oracles.opt_total))
        self._patch(
            oracles, "live_sizes_at", self.span("oracles.live_sizes_at", oracles.live_sizes_at)
        )
        self._patch(oracles, "ffd_snapshot", self._ffd_snapshot(oracles.ffd_snapshot))
        self._patch(
            oracles,
            "opt_snapshot",
            self._opt_snapshot(oracles.opt_snapshot, oracles.TimeBudgetExceeded),
        )
        # the benchmark invokes the CLI only as `dynbin run --config`
        self._patch(cli, "main", self.span("cli.run_config", cli.main))

    # ------------------------------------------------------------------
    # wrappers that also count

    def _simulate(self, original):
        signature = inspect.signature(original)
        inner = self.span("engine.simulate", original)

        def simulate(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            policy = bound.arguments["policy"]
            for hook in ("on_arrival", "on_departure", "on_checkpoints"):
                setattr(policy, hook, self.span("algorithms." + hook, getattr(policy, hook)))
            if "observers" in bound.arguments:
                bound.arguments["observers"] = [
                    self.span("harness.observer", obs) for obs in bound.arguments["observers"]
                ]
            index = len(self.spans)
            result = inner(*bound.args, **bound.kwargs)
            self.results.append((index, result))
            return result

        return simulate

    def _opt_total(self, original):
        inner = self.span("oracles.opt_total", original)

        def opt_total(*args, **kwargs):
            report = inner(*args, **kwargs)
            self.reports.append(report)
            return report

        return opt_total

    def _ffd_snapshot(self, original):
        inner = self.span("oracles.ffd_snapshot", original)

        def ffd_snapshot(*args, **kwargs):
            self._inner_ffd = inner(*args, **kwargs)
            return self._inner_ffd

        return ffd_snapshot

    def _opt_snapshot(self, original, budget_exceeded):
        """Classifies each call by what happened inside it: no FFD call
        means the answer came from the cache; FFD equal to the volume
        bound means the fast path; otherwise a branch-and-bound ran."""
        inner = self.span("oracles.opt_snapshot", original)
        counts = self.counts

        def opt_snapshot(sizes, scale, *args, **kwargs):
            self._inner_ffd = None
            try:
                value = inner(sizes, scale, *args, **kwargs)
            except budget_exceeded:
                counts["bnb_solves"] += 1
                counts["budget_exceeded"] += 1
                raise
            if sizes:
                if self._inner_ffd is None:
                    counts["cache_hits"] += 1
                elif self._inner_ffd == -(-sum(sizes) // scale):
                    counts["fastpath_hits"] += 1
                else:
                    counts["bnb_solves"] += 1
            return value

        return opt_snapshot

    # ------------------------------------------------------------------
    # output

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def span_times(spans) -> tuple[dict, dict, Counter]:
    """Inclusive time, self time (a span minus its direct children) and
    call count, each summed by span name."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        inclusive[name] += end - start
        own[name] += end - start - child_time[i]
        calls[name] += 1
    return inclusive, own, calls


def arrival_head_tail_us(spans, results) -> tuple[float, float]:
    """Mean on_arrival span in microseconds over the first and the last
    HEAD_TAIL arrivals of the simulation with the most arrivals."""
    arrivals: dict[int, list[float]] = defaultdict(list)
    for name, start, end, parent in spans:
        if name == "algorithms.on_arrival":
            arrivals[parent].append(end - start)
    if not arrivals:
        return 0.0, 0.0
    order = [index for index, _ in results]
    largest = max(order, key=lambda i: (len(arrivals.get(i, ())), -i))
    durations = arrivals[largest]
    head, tail = durations[:HEAD_TAIL], durations[-HEAD_TAIL:]
    return 1e6 * sum(head) / len(head), 1e6 * sum(tail) / len(tail)


def engine_counts(results) -> dict[str, int]:
    events = actions = opened = peak = migrations = 0
    for _index, result in results:
        for event in result.trace:
            if event["kind"] != "SETUP":
                events += 1
            actions += len(event["actions"])
            opened += sum(1 for act in event["actions"] if act["action"] == "open")
        peak = max([peak] + [seg.open_bins for seg in result.segments])
        migrations += result.ledger.unit_count
    return {
        "events": events,
        "trace_actions": actions,
        "bins_opened": opened,
        "peak_open_bins": peak,
        "migrations": migrations,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition, unit-less; the
    units are declared in BENCHMARK.json."""
    inclusive, own, calls = span_times(tracer.spans)
    counts = engine_counts(tracer.results)
    head, tail = arrival_head_tail_us(tracer.spans, tracer.results)
    simulate_s = inclusive["engine.simulate"]
    return {
        "generators.gen_s": inclusive["generators.gen"],
        "engine.simulate_s": simulate_s,
        "engine.self_s": own["engine.simulate"],
        "engine.events": counts["events"],
        "engine.us_per_event": 1e6 * simulate_s / counts["events"] if counts["events"] else 0.0,
        "engine.bins_opened": counts["bins_opened"],
        "engine.peak_open_bins": counts["peak_open_bins"],
        "engine.trace_actions": counts["trace_actions"],
        "engine.verify_packing_s": inclusive["engine.verify_packing"],
        "algorithms.on_arrival_s": inclusive["algorithms.on_arrival"],
        "algorithms.on_departure_s": inclusive["algorithms.on_departure"],
        "algorithms.on_checkpoints_s": inclusive["algorithms.on_checkpoints"],
        "algorithms.on_arrival_us_head": head,
        "algorithms.on_arrival_us_tail": tail,
        "algorithms.migrations": counts["migrations"],
        "algorithms.decompose_s": inclusive["algorithms.decompose"],
        "harness.observer_s": inclusive["harness.observer"],
        "harness.check_per_time_s": own["harness.check_per_time"],
        "harness.check_migration_budget_s": own["harness.check_migration_budget"],
        "harness.check_delay_schedule_s": own["harness.check_delay_schedule"],
        "harness.check_decomposition_s": own["harness.check_decomposition"],
        "harness.trial_s": inclusive["harness.trial"],
        "oracles.opt_total_s": inclusive["oracles.opt_total"],
        "oracles.live_sizes_at_s": inclusive["oracles.live_sizes_at"],
        "oracles.live_sizes_at_calls": calls["oracles.live_sizes_at"],
        "oracles.opt_snapshot_s": inclusive["oracles.opt_snapshot"],
        "oracles.opt_snapshot_calls": calls["oracles.opt_snapshot"],
        "oracles.cache_hits": tracer.counts["cache_hits"],
        "oracles.fastpath_hits": tracer.counts["fastpath_hits"],
        "oracles.bnb_solves": tracer.counts["bnb_solves"],
        "oracles.ffd_snapshot_s": inclusive["oracles.ffd_snapshot"],
        "oracles.inexact_intervals": sum(
            not iv.exact for report in tracer.reports for iv in report.intervals
        ),
        "oracles.budget_exceeded": tracer.counts["budget_exceeded"],
        "cli.run_config_s": inclusive["cli.run_config"],
    }
