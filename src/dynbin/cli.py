"""Command line interface. All output is deterministic: identical inputs
and seeds produce byte-identical files (no timestamps, sorted JSON keys)."""

from __future__ import annotations

import json
import sys

import click

from . import algorithms, harness, oracles
from .core import read_jsonl, validate, write_jsonl
from .engine import SimulationError
# unused here, but the benchmark's tracer patches both names in this module
from .engine import simulate, verify_packing  # noqa: F401
from .harness import ExperimentConfig, InvariantViolation


def _read_instance(path):
    """The instance file at path; a malformed one is a one-line error."""
    try:
        return read_jsonl(path)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _read_json(path):
    """The JSON value in the file at path; a file that is not JSON is a
    one-line error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"{path}:{exc.lineno}: not JSON: {exc.msg}")


def _read_config(path):
    """The experiment config at path; a malformed one is a one-line error."""
    data = _read_json(path)
    try:
        return ExperimentConfig.from_dict(data)
    except ValueError as exc:
        raise click.ClickException(f"{path}: {exc}")


def _file_config(path, **options):
    """The config of a run on one instance file; a bad value is a one-line error."""
    config = ExperimentConfig(generator={"family": "file", "path": path}, **options)
    try:
        harness.check_config(config)
        return config
    except ValueError as exc:
        raise click.ClickException(str(exc))


@click.group()
def main():
    """Dynamic bin packing simulator."""


@main.command()
@click.option("--family", type=click.Choice(list(harness.GENERATORS)), required=True)
@click.option("--k", type=int, default=None)
@click.option("--mu", type=float, default=None)
@click.option("--inv-s", type=int, default=None)
@click.option("--c", type=int, default=None)
@click.option("--n", type=int, default=None)
@click.option("--size-grid", type=int, default=None)
@click.option("--dmin", type=float, default=1.0)
@click.option("--dmax", type=float, default=2.0)
@click.option("--window", type=float, default=0.0)
@click.option("--seed", type=int, default=0)
@click.option("-o", "--output", type=click.Path(), required=True)
def gen(family, k, mu, inv_s, c, n, size_grid, dmin, dmax, window, seed, output):
    """Generate an instance file (JSON lines: header then one item per line)."""
    options = dict(k=k, mu=mu, inv_s=inv_s, c=c, n=n, size_grid=size_grid,
                   duration_range=[dmin, dmax], arrival_window=window)
    params = {"family": family, **{key: options[key] for key in harness.GENERATORS[family][0]}}
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise click.UsageError(f"{family} requires: {', '.join(missing)}")
    try:
        harness.check_generator(params)
        instance = harness.build_instance(params, seed)
    except ValueError as exc:
        raise click.ClickException(str(exc))
    write_jsonl(instance, output)
    click.echo(f"wrote {len(instance)} items to {output}")


@main.command()
@click.argument("instance_path", type=click.Path(exists=True), required=False)
@click.option("--config", type=click.Path(exists=True), default=None,
              help="Experiment config JSON; runs a batch of seeded trials.")
@click.option("--alg", type=click.Choice(list(algorithms.ALGORITHMS)), default=None)
@click.option("--alpha", type=str, default=None, help="Fraction, e.g. 1/4")
@click.option("--f", type=str, default=None, help="Fraction, e.g. 1/2")
@click.option("--delay-c", type=float, default=None)
@click.option("--checks", type=str, default="",
              help="Comma-separated invariant checks to enforce on the run, "
              f"from: {', '.join(harness.CHECKS)}.")
@click.option("--trace", type=click.Path(), default=None,
              help="Write the full event trace JSON here.")
@click.option("--csv", "csv_path", type=click.Path(), default=None)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the JSON report here instead of stdout.")
def run(instance_path, config, alg, alpha, f, delay_c, checks,
        trace, csv_path, output):
    """Simulate a policy on one instance, or a config-driven experiment."""
    if config is not None:
        given = {"INSTANCE_PATH": instance_path, "--alg": alg, "--alpha": alpha, "--f": f,
                 "--delay-c": delay_c,
                 "--checks": checks or None, "--trace": trace}
        extra = [name for name, value in given.items() if value is not None]
        if extra:
            raise click.UsageError(f"--config takes no {', '.join(extra)}")
    elif instance_path is None or alg is None:
        raise click.UsageError("need an instance file and --alg (or --config)")
    elif csv_path is not None:
        raise click.UsageError("--csv needs --config")
    try:
        if config is not None:
            report = harness.cmd_run(_read_config(config))
            text = json.dumps(report, sort_keys=True, indent=2)
            if csv_path:
                with open(csv_path, "w") as fh:
                    fh.write(harness.rows_to_csv(report["trials"]))
        else:
            instance = _read_instance(instance_path)
            cfg = _file_config(instance_path, algorithm=alg, alpha=alpha, f=f,
                               delay_cost=delay_c,
                               checks=[c for c in checks.split(",") if c])
            checked = harness.checked_run(cfg, instance)
            if checked.violation is not None:
                raise checked.violation
            text = checked.result.to_json()
            if trace:
                with open(trace, "w") as fh:
                    json.dump(checked.result.trace, fh, sort_keys=True, indent=2)
    except InvariantViolation as exc:
        click.echo(f"INVARIANT VIOLATION {exc}", err=True)
        sys.exit(1)
    except (SimulationError, oracles.SnapshotTooLarge) as exc:
        raise click.ClickException(str(exc))
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
def opt(instance_path):
    """Integrate the offline per-time packing optimum over an instance."""
    instance = _read_instance(instance_path)
    problems = validate(instance)
    if problems:
        click.echo(f"INVARIANT VIOLATION validate: {'; '.join(problems)}", err=True)
        sys.exit(1)
    if instance.has_deferred():
        raise click.UsageError(
            "instance has deferred durations; resolve them before computing the optimum"
        )
    report = oracles.opt_total(instance)
    click.echo(json.dumps(report.to_dict(), sort_keys=True))
    if not report.all_exact:
        click.echo("warning: some intervals fell back to bounds", err=True)


@main.command()
@click.argument("instance_path", type=click.Path(exists=True))
@click.option("--alg", type=click.Choice(list(algorithms.ALGORITHMS)), required=True)
@click.option("--alpha", type=str, default=None)
@click.option("--f", type=str, default=None)
@click.option("--delay-c", type=float, default=None)
def verify(instance_path, alg, alpha, f, delay_c):
    """Run every invariant check applicable to an algorithm on one instance.

    Prints one line per check; exits nonzero if any check fails.
    """
    instance = _read_instance(instance_path)
    problems = validate(instance)
    if problems:
        for p in problems:
            click.echo(f"FAIL validate: {p}")
        sys.exit(1)
    cfg = _file_config(instance_path, algorithm=alg, alpha=alpha, f=f,
                       delay_cost=delay_c)
    try:
        results = harness.cmd_verify(cfg, instance)
    except (SimulationError, oracles.SnapshotTooLarge) as exc:
        raise click.ClickException(str(exc))
    failed = False
    for check, ok, detail in results:
        if ok:
            click.echo(f"PASS {check}")
        else:
            click.echo(f"FAIL {check}: {detail}")
            failed = True
    sys.exit(1 if failed else 0)


@main.command()
@click.argument("report_path", type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["csv", "md"]), default="csv")
@click.option("-o", "--output", type=click.Path(), default=None)
def report(report_path, fmt, output):
    """Render a JSON run report's trial rows as CSV or Markdown."""
    data = _read_json(report_path)
    rows = data.get("trials") if isinstance(data, dict) else None
    if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
        raise click.ClickException(f"{report_path}: expected a run report")
    text = harness.rows_to_csv(rows) if fmt == "csv" else harness.rows_to_markdown(rows)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
