"""Experiment harness: reproducible trial runs, per-run invariant checks,
and CSV/Markdown reporting. Every run is simulated and checked by
checked_run, which run_trial, cmd_verify and `dynbin run` share; the CLI
in cli.py only parses options and prints. The packing, bad_bins and
junk_load checks read the engine's records through engine.Replay, their
one reader: checked_run takes all three from one replay of the stored run,
and bad_bin_observer feeds the same reader live."""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from fractions import Fraction

from . import algorithms, generators, oracles
from .core import Instance, ScaledSize, validate, with_durations
from .engine import Policy, Replay, SimulationResult, check_records, simulate
# unused here, but the benchmark's tracer patches this name in this module
from .engine import verify_packing  # noqa: F401

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
        """The config a JSON object describes, else a ValueError naming
        what is wrong with it: a key, a count, a value check_config
        rejects, or a generator whose builder rejects it, found by drawing
        the first trial's instance. So a batch fails before its first trial."""
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(data) - set(known))
        if unknown:
            raise ValueError(f"unknown key {', '.join(unknown)}")
        missing = [
            name for name, f in known.items()
            if f.default is MISSING and f.default_factory is MISSING and name not in data
        ]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
        config = cls(**data)
        for name, value, least in (
            ("trials", config.trials, 0),
            ("base_seed", config.base_seed, None),
            ("jobs", config.jobs, 1),
        ):
            if type(value) is not int:
                raise ValueError(f"{name}: expected an integer, got {value!r}")
            if least is not None and value < least:
                raise ValueError(f"{name} must be >= {least}")
        check_config(config)
        try:
            build_instance(config.generator, config.base_seed)
        except TypeError as exc:  # a generator value of the wrong type
            raise ValueError(f"generator {config.generator['family']}: {exc}") from None
        return config

    def alpha_fraction(self) -> Fraction | None:
        return Fraction(self.alpha) if self.alpha is not None else None

    def f_fraction(self) -> Fraction | None:
        return Fraction(self.f) if self.f is not None else None


# each generator family: the keys it reads, and a builder taking the seed
# and those values in order; the builders look up the generators module's
# functions at call time, which the benchmark's tracer patches
GENERATORS = {
    "fig2": (("k", "mu"), lambda seed, k, mu: generators.gen_fig2(k, mu)),
    "tradeoff": (
        ("inv_s", "k", "mu"),
        lambda seed, inv_s, k, mu: (generators.gen_tradeoff_lb(inv_s, k, mu, seed), None),
    ),
    "basiclb": (
        ("k", "mu"),
        lambda seed, k, mu: (generators.gen_basic_lb(k, mu, seed), None),
    ),
    "delaylb": (("c",), lambda seed, c: (generators.gen_delay_lb(c, seed), None)),
    "uniform": (
        ("n", "size_grid", "duration_range", "arrival_window"),
        lambda seed, n, size_grid, duration_range, arrival_window: (
            generators.gen_uniform(
                n, size_grid, tuple(duration_range), arrival_window, seed
            ),
            None,
        ),
    ),
}


def check_config(config: ExperimentConfig) -> None:
    """Raise a ValueError naming a bad alpha or f, or a policy they cannot
    build; the policy built to find out is dropped."""
    for name, parse in (("alpha", config.alpha_fraction), ("f", config.f_fraction)):
        try:
            parse()
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"{name}: {exc}") from None
    try:
        build_policy(config)
    except ValueError as exc:
        raise ValueError(f"algorithm {config.algorithm}: {exc}") from None
    except TypeError as exc:  # a parameter it needs is missing or not a number
        raise ValueError(
            f"algorithm {config.algorithm}: bad or missing alpha, f or delay_cost ({exc})"
        ) from None


def check_generator(generator) -> None:
    """Raise a ValueError unless the generator names a known family and
    has every key that family reads."""
    if not isinstance(generator, dict):
        raise ValueError("generator: expected a JSON object")
    family = generator.get("family")
    if family not in GENERATORS:
        raise ValueError(f"unknown generator family {family!r}")
    missing = [key for key in GENERATORS[family][0] if key not in generator]
    if missing:
        raise ValueError(f"generator {family} needs {', '.join(missing)}")


def build_instance(generator: dict, seed: int):
    """Instantiate a generator family; returns (instance, adversary|None)."""
    check_generator(generator)
    keys, build = GENERATORS[generator["family"]]
    return build(seed, *(generator[key] for key in keys))


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
    bin, and none for class 0; junk bins never exceed capacity.

    After each event the observer feeds the event's records, and those of
    bind time before the first, to an engine.Replay, the reader behind
    verify_packing and check_records too, and raises the first violation,
    which the benchmark's stream workload relies on. checked_run finds the
    same violation after the run."""
    replay = Replay(scale)
    pos = 0  # action records read so far

    def observe(engine, time):
        nonlocal pos
        replay.read(engine.actions, engine.events[-1:], pos)
        pos = len(engine.actions)
        if replay.broken:
            raise InvariantViolation(*replay.broken)

    return observe


def check_per_time(
    report: oracles.OptReport,
    result: SimulationResult,
    alpha: Fraction,
    additive_at,
) -> float:
    """Assert open bins <= OPT_t / alpha + additive at every segment of
    the run, reading OPT_t from the instance's OptReport; returns the max
    observed ALG_t/OPT_t ratio. The segments walk the report's intervals
    in step: each segment start reads the interval containing it, and
    nothing is live before the first boundary or after the last.

    With alpha = num/den the bound is tested in integers, open * num >
    opt * den + additive * num. An interval the oracle could not solve
    exactly carries its L1 bound, and since OPT_t >= L1 a segment that
    meets the bound with L1 is certified, with open/L1 as an upper bound
    on its ratio. One that does not raises SnapshotTooLarge."""
    num, den = alpha.numerator, alpha.denominator
    intervals = report.intervals
    i, n = 0, len(intervals)
    max_ratio = 0.0
    # segment starts strictly increase; the last time only ends a segment
    for start, open_bins in zip(result.times, result.open_counts):
        while i < n and intervals[i].end <= start:
            i += 1
        if i == n or start < intervals[i].start:
            opt_t, exact = 0, True
        else:
            opt_t, exact = intervals[i].opt, intervals[i].exact
        additive = additive_at(start)
        if open_bins * num > opt_t * den + additive * num:
            allowed = Fraction(opt_t) / alpha + additive
            if not exact:
                raise oracles.SnapshotTooLarge(
                    f"OPT_t at t={start} is not exact and {open_bins} open bins "
                    f"> {float(allowed)} allowed by its lower bound {opt_t}"
                )
            raise InvariantViolation(
                "per_time",
                f"{open_bins} open bins > {float(allowed)} allowed (OPT_t={opt_t})",
                start,
            )
        if opt_t > 0:
            max_ratio = max(max_ratio, open_bins / opt_t)
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

# report order; bad_bins, junk_load and packing come from one replay of
# the records
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
    opt: oracles.OptReport | None = None  # the instance's optimum, when per_time ran

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
    # through the module global, which the benchmark patches to digest each run
    result = simulate(
        instance, policy, delay_cost=config.delay_cost or 0.0, adversary=adversary
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

    if run.outcomes.keys() & {"packing", "bad_bins", "junk_load"}:
        problem, broken = check_records(result)
        if problem and "packing" in run.outcomes:
            run.outcomes["packing"] = InvariantViolation("packing", problem)
        if broken:
            violation = InvariantViolation(*broken)
            for name in ("bad_bins", "junk_load"):
                if name in run.outcomes:
                    run.outcomes[name] = violation
    alpha = config.alpha_fraction()
    if alpha is not None:
        if "per_time" in run.outcomes:
            # through the module attribute, which the benchmark captures to count intervals
            run.opt = oracles.opt_total(
                resolved, config.oracle_max_items, config.oracle_time_budget
            )
            run.max_pertime_ratio = check(
                "per_time", check_per_time, run.opt, result, alpha, policy.additive_at
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
        "phases": len(run.policy.phase_history) or "",
        "opt_lb": "",
        "opt_exact": "",
        "opt_ub": "",
        "opt_total": "",
        "ratio": "",
    }
    if config.compute_opt:
        report = run.opt
        if report is None:
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
    return list(algorithms.ALGORITHMS[algorithm].checks)


def cmd_verify(
    config: ExperimentConfig, instance: Instance, adversary=None
) -> list[tuple[str, bool, str]]:
    """Run one instance once with every applicable check; report per-check results."""
    checks = applicable_checks(config.algorithm)
    run = checked_run(replace(config, checks=checks), instance, adversary)
    return [(c, run.outcomes[c] is None, str(run.outcomes[c] or "")) for c in checks]
