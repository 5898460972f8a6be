"""`dynbin run --config` on random JSON values for every config field and
generator key. Whatever the file holds, a run either succeeds, or ends in
one `Error:` line with exit status 1 or 2, or reports the first violation
of a check it was asked to run as one `INVARIANT VIOLATION` line with
exit status 1 (FirstFit, say, promises no per-time bound); it never ends
in a traceback.

Integers stay small, so instances (n, k, c) and batches (trials) stay
cheap, and `jobs` is never above 1, so no process pool starts."""

import json
import os
import tempfile
from dataclasses import fields

from click.testing import CliRunner
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dynbin import algorithms, cli, harness

SMALL_INTS = st.integers(-2, 8)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | SMALL_INTS
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
CHECK_NAMES = st.lists(st.sampled_from(harness.CHECKS), max_size=3, unique=True)
# alpha and f: half the time in range, else at or past an edge
ALPHAS = st.sampled_from(["1/4", "1/3", "1/8"]) | st.sampled_from(["1/2", "3/4", None])
FS = st.sampled_from(["1/2", "3/4", "1"]) | st.sampled_from(["1/8", "3/2", None])

# each config field and generator key: values that mostly pass its checks
CONFIG_VALUES = {
    "algorithm": st.sampled_from(sorted(algorithms.ALGORITHMS)),
    "alpha": ALPHAS,
    "f": FS,
    "delay_cost": st.sampled_from([None, 0, 1, 4.0, 9]),
    "trials": st.integers(0, 3),
    "base_seed": SMALL_INTS,
    "checks": CHECK_NAMES,
    "compute_opt": st.booleans(),
    "jobs": st.just(1),
}
GENERATOR_VALUES = {
    "family": st.sampled_from(sorted(harness.GENERATORS)),
    "n": st.integers(1, 8),
    "size_grid": st.sampled_from([1, 2, 4, 8, 6]),
    "k": st.integers(2, 8),
    "inv_s": st.integers(2, 4),
    "c": st.sampled_from([4, 5, 9]),
    "mu": st.sampled_from([0.5, 2.0, 5.0]),
    "duration_range": st.sampled_from([[1.0, 2.0], [0.5, 8.0], [2, 1]]),
    "arrival_window": st.sampled_from([0, 3.0, 20.0]),
}
# every place a random JSON value can go, or a key can be left out
TARGETS = [("config", name) for name in [*CONFIG_VALUES, "generator"]] + [
    ("generator", key) for key in GENERATOR_VALUES
]
assert {f.name for f in fields(harness.ExperimentConfig)} == {*CONFIG_VALUES, "generator"}
MISSING = object()


@st.composite
def configs(draw):
    """A config of mostly sound values, with up to three of its fields or
    generator keys replaced by random JSON or left out."""
    config = {name: draw(values) for name, values in CONFIG_VALUES.items()}
    generator = {key: draw(values) for key, values in GENERATOR_VALUES.items()}
    config["generator"] = generator
    for _ in range(draw(st.integers(0, 3))):
        where, key = draw(st.sampled_from(TARGETS))
        target = config if where == "config" else generator
        value = draw((JSON | st.just(MISSING)).filter(
            lambda v: key != "jobs" or not (type(v) is int and v > 1)
        ))
        if value is MISSING:
            target.pop(key, None)
        else:
            target[key] = value
    return config


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(configs())
@example({"algorithm": "firstfit", "generator": {"family": ["x"]}})
@example({"algorithm": "firstfit", "checks": ["decomposition"],
          "generator": {"family": "fig2", "k": 3, "mu": 5}})
@example({"algorithm": "alg2", "alpha": float("inf"),
          "generator": {"family": "fig2", "k": 3, "mu": 5}})
def test_any_config_runs_or_fails_in_one_line(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        result = CliRunner().invoke(cli.main, ["run", "--config", path])
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        f"{type(result.exception).__name__}: {result.exception}"
    )
    if result.exit_code == 0:
        return
    assert result.exit_code in (1, 2), result.stderr
    lines = result.stderr.splitlines()
    if lines and lines[0].startswith("INVARIANT VIOLATION "):
        assert result.exit_code == 1 and len(lines) == 1, result.stderr
        return
    errors = [line for line in lines if line.startswith("Error:")]
    assert len(errors) == 1, result.stderr
