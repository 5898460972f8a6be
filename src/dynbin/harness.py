"""Experiment harness: reproducible trial runs, per-run invariant checks,
and CSV/Markdown reporting. Every run is simulated and checked by
checked_run, which run_trial, cmd_verify and `dynbin run` share; the CLI
in cli.py only parses options and prints."""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

from . import algorithms, generators, oracles
from .core import Instance, ScaledSize, validate, with_durations
from .engine import BAD, Policy, SimulationResult, simulate, verify_packing

CSV_COLUMNS = [
    "family",
    "params",
    "seed",
    "alg",
    "alpha",
    "f",
    "delay_c",
    "alg_cost",
    "opt_lb",
    "opt_exact",
    "opt_ub",
    "opt_total",
    "ratio",
    "mig_unit",
    "mig_size",
    "max_pertime_ratio",
    "phases",
]


class InvariantViolation(Exception):
    def __init__(self, check: str, detail: str, time: float | None = None):
        super().__init__(f"{check}: {detail}" + (f" (t={time})" if time is not None else ""))
        self.check = check
        self.detail = detail
        self.time = time


@dataclass
class ExperimentConfig:
    algorithm: str
    generator: dict
    alpha: str | None = None
    f: str | None = None
    delay_cost: float | None = None
    mig_order: str = "id"
    trials: int = 1
    base_seed: int = 0
    checks: list[str] = field(default_factory=list)
    compute_opt: bool = True
    oracle_max_items: int = oracles.DEFAULT_MAX_ITEMS
    oracle_time_budget: float = oracles.DEFAULT_TIME_BUDGET
    jobs: int = 1

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**data)

    def alpha_fraction(self) -> Fraction | None:
        return Fraction(self.alpha) if self.alpha is not None else None

    def f_fraction(self) -> Fraction | None:
        return Fraction(self.f) if self.f is not None else None


def build_instance(generator: dict, seed: int):
    """Instantiate a generator family; returns (instance, adversary|None)."""
    family = generator["family"]
    if family == "fig2":
        return generators.gen_fig2(generator["k"], generator["mu"])
    if family == "tradeoff":
        return (
            generators.gen_tradeoff_lb(
                generator["inv_s"], generator["k"], generator["mu"], seed
            ),
            None,
        )
    if family == "basiclb":
        return generators.gen_basic_lb(generator["k"], generator["mu"], seed), None
    if family == "delaylb":
        return generators.gen_delay_lb(generator["c"], seed), None
    if family == "uniform":
        return (
            generators.gen_uniform(
                generator["n"],
                generator["size_grid"],
                tuple(generator["duration_range"]),
                generator["arrival_window"],
                seed,
            ),
            None,
        )
    raise ValueError(f"unknown generator family {family!r}")


def build_policy(config: ExperimentConfig):
    return algorithms.make_policy(
        config.algorithm,
        alpha=config.alpha_fraction(),
        f=config.f_fraction(),
        delay_cost=config.delay_cost,
        mig_order=config.mig_order,
    )


# ----------------------------------------------------------------------
# invariant checks

def bad_bin_observer(scale: int):
    """Live check: within every single-class bin group at most one Bad
    bin, and none for class 0; junk bins never exceed capacity. Counts
    are taken from the open bins themselves after every event. It raises
    at the first violation, which the benchmark's stream workload relies
    on; checked_run records that violation and lets the run finish."""

    def observe(engine, time):
        counts: dict[str, int] = {}
        for b in engine.open_bins():
            if b.label == BAD:
                counts[b.group] = counts.get(b.group, 0) + 1
            if b.group.startswith("junk") and b.load > scale:
                raise InvariantViolation(
                    "junk_load", f"junk bin {b.id} over capacity", time
                )
        for group, count in counts.items():
            if count > 1:
                raise InvariantViolation(
                    "bad_bins", f"{count} Bad bins in group {group}", time
                )
            if group == "class:0" and count > 0:
                raise InvariantViolation("bad_bins", "Bad bin in class 0", time)

    return observe


def check_per_time(
    instance: Instance,
    result: SimulationResult,
    alpha: Fraction,
    additive_at,
    max_items: int,
    time_budget: float,
) -> float:
    """Assert open bins <= OPT_t / alpha + additive at every event
    boundary; returns the max observed ALG_t/OPT_t ratio. The segments
    walk the oracle's event sweep in step: each segment start reads the
    snapshot of the interval containing it, and nothing is live before
    the first boundary or after the last."""
    max_ratio = 0.0
    sweep = oracles.snapshots(instance)
    snap = next(sweep, None)
    for seg in result.segments:  # starts strictly increase
        while snap is not None and snap.end <= seg.start:
            snap = next(sweep, None)
        if snap is None or seg.start < snap.start:
            opt_t = 0
        else:
            opt_t = oracles.snapshot_opt(snap, instance.scale, max_items, time_budget)
        allowed = Fraction(opt_t) / alpha + additive_at(seg.start)
        if Fraction(seg.open_bins) > allowed:
            raise InvariantViolation(
                "per_time",
                f"{seg.open_bins} open bins > {float(allowed)} allowed (OPT_t={opt_t})",
                seg.start,
            )
        if opt_t > 0:
            max_ratio = max(max_ratio, seg.open_bins / opt_t)
    return max_ratio


def check_migration_budget(
    instance: Instance, result: SimulationResult, alpha: Fraction
) -> None:
    """Unit-cost budget: total and per-class migrations bounded by
    4*alpha/(1-2*alpha) times the (class) item count."""
    factor = 4 * alpha / (1 - 2 * alpha)
    n = len(instance.items)
    if result.ledger.unit_count > factor * n:
        raise InvariantViolation(
            "migration_budget",
            f"{result.ledger.unit_count} migrations > {float(factor * n)}",
        )
    # alg1 keeps its one class under "class", which holds every item
    class_sizes: dict[str, int] = {"class": n}
    for it in instance.items:
        c = algorithms.size_class(ScaledSize(it.size_num, instance.scale))
        class_sizes[f"class:{c}"] = class_sizes.get(f"class:{c}", 0) + 1
    for class_key, count in result.ledger.per_class().items():
        n_c = class_sizes.get(class_key, 0)
        if count > factor * n_c:
            raise InvariantViolation(
                "migration_budget",
                f"{count} migrations in {class_key} > {float(factor * n_c)}",
            )


def check_size_budget(
    instance: Instance, result: SimulationResult, alpha: Fraction
) -> None:
    total_size = sum(it.size_num for it in instance.items) / instance.scale
    budget = float(alpha / (1 - 2 * alpha)) * total_size
    if result.ledger.size_sum > budget + 1e-12:
        raise InvariantViolation(
            "size_budget", f"migrated size {result.ledger.size_sum} > {budget}"
        )


def check_delay_schedule(
    instance: Instance, result: SimulationResult, delay_cost: float
) -> None:
    """Per item: migration count at most floor(d/sqrt(C)) and departure
    exactly arrival + duration + C * migrations."""
    sqrt_c = math.sqrt(delay_cost)
    for it in instance.items:
        migs = result.migrations_per_item.get(it.id, 0)
        if migs > math.floor(it.duration / sqrt_c + 1e-12):
            raise InvariantViolation(
                "delay_schedule",
                f"item {it.id}: {migs} migrations > floor({it.duration}/{sqrt_c})",
            )
        expected = it.arrival + it.duration + delay_cost * migs
        if result.departures[it.id] != expected:
            raise InvariantViolation(
                "delay_schedule",
                f"item {it.id}: departed {result.departures[it.id]}, expected {expected}",
            )


def check_decomposition(
    instance: Instance, result: SimulationResult, delay_cost: float
) -> None:
    """The delay run's cost must equal FirstFit on the small-parts plus
    FirstFit on the big-parts sub-instances; their duration ratios must
    satisfy the sub-instance preconditions."""
    from .core import mu as inst_mu

    small, big = algorithms.decompose_delay_run(instance, result)
    sqrt_c = math.sqrt(delay_cost)
    ff_small = simulate(small, algorithms.FirstFitPolicy()).total_active_time
    ff_big = (
        simulate(big, algorithms.FirstFitPolicy()).total_active_time
        if big.items
        else 0.0
    )
    total = result.total_active_time
    if abs(total - (ff_small + ff_big)) > 1e-9 * max(1.0, abs(total)):
        raise InvariantViolation(
            "decomposition",
            f"ALG {total} != FF(small) {ff_small} + FF(big) {ff_big}",
        )
    if small.items and inst_mu(small) > sqrt_c + 1e-9:
        raise InvariantViolation("decomposition", "mu of small parts exceeds sqrt(C)")
    if big.items and inst_mu(big) > 2 + 1e-9:
        raise InvariantViolation("decomposition", "mu of big parts exceeds 2")


# ----------------------------------------------------------------------
# trial execution

# evaluation order: the observer's checks, then the post-run ones
CHECKS = (
    "bad_bins",
    "junk_load",
    "packing",
    "per_time",
    "migration_budget",
    "size_budget",
    "delay_schedule",
    "decomposition",
)


class UnknownCheck(ValueError):
    """A requested check name that is not in CHECKS."""


@dataclass
class CheckedRun:
    """One simulation and the outcome of each requested check on it:
    None if it passed, else its InvariantViolation, in CHECKS order."""

    result: SimulationResult
    instance: Instance  # deferred durations resolved by the run
    policy: Policy
    outcomes: dict[str, InvariantViolation | None]
    max_pertime_ratio: float | None = None  # None unless per_time ran and passed

    @property
    def violation(self) -> InvariantViolation | None:
        return next((v for v in self.outcomes.values() if v is not None), None)


def checked_run(
    config: ExperimentConfig, instance: Instance, adversary=None
) -> CheckedRun:
    """Validate the instance, simulate config's policy on it once and run
    every check in config.checks on that run. The alpha-bounded checks
    pass vacuously without an alpha."""
    unknown = [c for c in config.checks if c not in CHECKS]
    if unknown:
        raise UnknownCheck(
            f"unknown check {', '.join(unknown)}; choose from {', '.join(CHECKS)}"
        )
    problems = validate(instance)
    if problems:
        raise InvariantViolation("validate", "; ".join(problems))
    policy = build_policy(config)
    observed: list[InvariantViolation] = []
    observers = []
    if "bad_bins" in config.checks or "junk_load" in config.checks:
        observer = bad_bin_observer(instance.scale)

        def record_first(engine, time):
            if not observed:
                try:
                    observer(engine, time)
                except InvariantViolation as exc:
                    observed.append(exc)

        observers.append(record_first)
    # through the module global, which the benchmark patches to digest each run
    result = simulate(
        instance,
        policy,
        delay_cost=config.delay_cost or 0.0,
        adversary=adversary,
        observers=observers,
    )
    resolved = (
        with_durations(instance, result.resolved_durations)
        if instance.has_deferred()
        else instance
    )
    run = CheckedRun(
        result, resolved, policy, dict.fromkeys(c for c in CHECKS if c in config.checks)
    )

    def check(name, fn, *args):
        if name in run.outcomes:
            try:
                return fn(*args)
            except InvariantViolation as exc:
                run.outcomes[name] = exc

    for name in ("bad_bins", "junk_load"):
        if name in run.outcomes and observed:
            run.outcomes[name] = observed[0]
    problem = verify_packing(result) if "packing" in run.outcomes else None
    if problem:
        run.outcomes["packing"] = InvariantViolation("packing", problem)
    alpha = config.alpha_fraction()
    if alpha is not None:
        if config.algorithm == "alg2":
            additive = lambda t: 2 * policy.phases_at(t)
        else:
            additive = lambda t: 1
        run.max_pertime_ratio = check(
            "per_time", check_per_time, resolved, result, alpha, additive,
            config.oracle_max_items, config.oracle_time_budget,
        )
        check("migration_budget", check_migration_budget, resolved, result, alpha)
        check("size_budget", check_size_budget, resolved, result, alpha)
    check("delay_schedule", check_delay_schedule, resolved, result, config.delay_cost)
    check("decomposition", check_decomposition, resolved, result, config.delay_cost)
    return run


def run_trial(config: ExperimentConfig, seed: int) -> dict:
    instance, adversary = build_instance(config.generator, seed)
    run = checked_run(config, instance, adversary)
    if run.violation is not None:
        raise run.violation
    result = run.result
    phases = len(getattr(run.policy, "phase_history", [])) or None
    row = {
        "family": config.generator["family"],
        "params": json.dumps(
            {k: v for k, v in config.generator.items() if k != "family"},
            sort_keys=True,
        ),
        "seed": seed,
        "alg": config.algorithm,
        "alpha": config.alpha or "",
        "f": config.f or "",
        "delay_c": config.delay_cost if config.delay_cost is not None else "",
        "alg_cost": result.total_active_time,
        "mig_unit": result.ledger.unit_count,
        "mig_size": result.ledger.size_sum,
        "max_pertime_ratio": (
            "" if run.max_pertime_ratio is None else run.max_pertime_ratio
        ),
        "phases": phases if phases is not None else "",
        "opt_lb": "",
        "opt_exact": "",
        "opt_ub": "",
        "opt_total": "",
        "ratio": "",
    }
    if config.compute_opt:
        report = oracles.opt_total(
            run.instance, config.oracle_max_items, config.oracle_time_budget
        )
        row["opt_lb"] = report.lower_bound
        row["opt_exact"] = report.all_exact
        row["opt_ub"] = report.upper_bound
        row["opt_total"] = report.opt_total
        denom = report.opt_total if report.all_exact else report.lower_bound
        if denom:
            row["ratio"] = result.total_active_time / denom
    return row


def cmd_run(config: ExperimentConfig) -> dict:
    """Execute all trials and assemble the report."""
    seeds = [config.base_seed + i for i in range(config.trials)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            rows = list(pool.map(run_trial, [config] * len(seeds), seeds))
    else:
        # looked up per trial: the benchmark times trials by patching run_trial
        rows = [run_trial(config, seed) for seed in seeds]
    return {
        "config": config.to_dict(),
        "trials": rows,
        "aggregates": aggregate(rows),
    }


def aggregate(rows: list[dict]) -> dict:
    out: dict[str, dict] = {}
    for col in ("alg_cost", "ratio", "mig_unit", "mig_size", "max_pertime_ratio"):
        values = [r[col] for r in rows if isinstance(r.get(col), (int, float))]
        if not values:
            continue
        mean = statistics.fmean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        half = 3 * std / math.sqrt(len(values)) if values else 0.0
        out[col] = {
            "mean": mean,
            "std": std,
            "mean_3sigma": [mean - half, mean + half],
            "min": min(values),
            "max": max(values),
            "n": len(values),
        }
    return out


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    return buf.getvalue()


def rows_to_markdown(rows: list[dict]) -> str:
    header = "| " + " | ".join(CSV_COLUMNS) + " |"
    rule = "|" + "|".join(" --- " for _ in CSV_COLUMNS) + "|"
    lines = [header, rule]
    for row in rows:
        lines.append(
            "| " + " | ".join(str(row.get(k, "")) for k in CSV_COLUMNS) + " |"
        )
    return "\n".join(lines) + "\n"


def applicable_checks(algorithm: str) -> list[str]:
    checks = ["packing"]
    if algorithm in ("alg1", "alg2"):
        checks += ["bad_bins", "junk_load", "per_time", "migration_budget"]
    elif algorithm == "sizecost":
        checks += ["bad_bins", "per_time", "size_budget"]
    elif algorithm == "delay":
        checks += ["delay_schedule", "decomposition"]
    return checks


def cmd_verify(
    config: ExperimentConfig, instance: Instance, adversary=None
) -> list[tuple[str, bool, str]]:
    """Run one instance once with every applicable check; report per-check results."""
    checks = applicable_checks(config.algorithm)
    run = checked_run(replace(config, checks=checks), instance, adversary)
    return [(c, run.outcomes[c] is None, str(run.outcomes[c] or "")) for c in checks]
