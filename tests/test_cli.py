import json
import math
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from dynbin import cli, harness, oracles
from dynbin.core import Instance, Item, write_jsonl

CLI = [sys.executable, "-m", "dynbin"]


def run_cli(*args, expect_ok=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )
    if expect_ok and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


def test_import_leaves_the_process_pool_unloaded():
    # only a run with jobs > 1 needs it; a fresh interpreter, since this
    # one may already have run a pool
    code = (
        "import sys, dynbin, dynbin.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_gen_and_run_roundtrip(tmp_path):
    path = tmp_path / "inst.jsonl"
    run_cli("gen", "--family", "uniform", "--n", "15", "--size-grid", "8",
            "--dmin", "1", "--dmax", "2", "--window", "5", "--seed", "3",
            "-o", str(path))
    assert path.exists()
    out = run_cli("run", str(path), "--alg", "firstfit").stdout
    data = json.loads(out)
    assert data["total_active_time"] > 0


def test_run_with_checks_and_trace(tmp_path):
    path = tmp_path / "inst.jsonl"
    run_cli("gen", "--family", "fig2", "--k", "4", "--mu", "10", "-o", str(path))
    trace_path = tmp_path / "trace.json"
    out = run_cli("run", str(path), "--alg", "alg2", "--alpha", "1/4",
                  "--checks", "packing,bad_bins,junk_load",
                  "--trace", str(trace_path)).stdout
    data = json.loads(out)
    assert data["total_active_time"] > 0
    trace = json.loads(trace_path.read_text())
    assert any(a["action"] == "place" for e in trace for a in e["actions"])


def test_opt_command(tmp_path):
    path = tmp_path / "inst.jsonl"
    run_cli("gen", "--family", "basiclb", "--k", "4", "--mu", "8",
            "--seed", "0", "-o", str(path))
    out = run_cli("opt", str(path)).stdout
    data = json.loads(out)
    assert data["all_exact"]
    assert data["lower_bound"] <= data["opt_total"] <= data["upper_bound"] + 1e-9


def test_opt_rejects_deferred(tmp_path):
    path = tmp_path / "inst.jsonl"
    run_cli("gen", "--family", "fig2", "--k", "3", "--mu", "5", "-o", str(path))
    proc = run_cli("opt", str(path), expect_ok=False)
    assert proc.returncode != 0


def test_verify_command(tmp_path):
    path = tmp_path / "inst.jsonl"
    run_cli("gen", "--family", "uniform", "--n", "20", "--size-grid", "8",
            "--dmin", "1", "--dmax", "2", "--window", "8", "--seed", "1",
            "-o", str(path))
    proc = run_cli("verify", str(path), "--alg", "alg2", "--alpha", "1/4",
                   expect_ok=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l]
    assert lines and all(l.startswith("PASS") for l in lines)


def test_config_run_and_report(tmp_path):
    cfg = {
        "algorithm": "firstfit",
        "generator": {
            "family": "uniform", "n": 12, "size_grid": 8,
            "duration_range": [1.0, 2.0], "arrival_window": 4.0,
        },
        "trials": 3,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rep_path = tmp_path / "rep.json"
    csv_path = tmp_path / "rows.csv"
    run_cli("run", "--config", str(cfg_path), "-o", str(rep_path),
            "--csv", str(csv_path))
    report = json.loads(rep_path.read_text())
    assert len(report["trials"]) == 3
    md = run_cli("report", str(rep_path), "--format", "md").stdout
    assert md.startswith("| family |")
    csv_again = run_cli("report", str(rep_path), "--format", "csv").stdout
    assert csv_again == csv_path.read_text()


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"trials": [\n', ":2: not JSON: Expecting value"),
        ('{"x": 1}', ": expected a run report"),
        ("[1, 2]", ": expected a run report"),
        # a bare list of rows is no run report: no command writes one
        ('[{"family": "fig2"}]', ": expected a run report"),
        ('{"trials": [1]}', ": expected a run report"),
    ],
)
def test_report_on_bad_input_is_a_one_line_error(tmp_path, text, problem):
    path = tmp_path / "rep.json"
    path.write_text(text)
    result = invoke("report", path)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {path}{problem}\n"


def test_rerun_is_byte_identical(tmp_path):
    cfg = {
        "algorithm": "alg2",
        "alpha": "1/4",
        "generator": {
            "family": "uniform", "n": 15, "size_grid": 8,
            "duration_range": [1.0, 2.0], "arrival_window": 6.0,
        },
        "trials": 4,
        "base_seed": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for name in ("a", "b"):
        rep = tmp_path / f"{name}.json"
        csv = tmp_path / f"{name}.csv"
        run_cli("run", "--config", str(cfg_path), "-o", str(rep), "--csv", str(csv))
        outputs.append((rep.read_bytes(), csv.read_bytes()))
    assert outputs[0] == outputs[1]


def test_gen_missing_params_errors(tmp_path):
    proc = run_cli("gen", "--family", "fig2", "-o", str(tmp_path / "x.jsonl"),
                   expect_ok=False)
    assert proc.returncode != 0
    assert "requires" in proc.stderr


def invoke(*args):
    return CliRunner().invoke(cli.main, [str(a) for a in args])


def fragmenting_file(tmp_path):
    # four (5,3) pairs: FirstFit keeps four bins open after the 5s leave,
    # where the optimum needs two
    path = tmp_path / "pairs.jsonl"
    items = [Item(i, 0.0, 5 if i % 2 == 0 else 3, 1.0 if i % 2 == 0 else 3.0)
             for i in range(8)]
    write_jsonl(Instance(items=tuple(items), scale=8), path)
    return path


def test_run_applies_every_check(tmp_path):
    result = invoke("run", fragmenting_file(tmp_path), "--alg", "firstfit",
                    "--alpha", "9/10", "--checks", "per_time")
    assert result.exit_code == 1
    assert result.stderr.startswith("INVARIANT VIOLATION per_time: 4 open bins")


def test_run_rejects_unknown_check(tmp_path):
    # the config file case is in test_malformed_config_is_a_one_line_error
    result = invoke("run", fragmenting_file(tmp_path), "--alg", "firstfit",
                    "--checks", "packng")
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == (
        f"Error: unknown check packng; choose from {', '.join(harness.CHECKS)}\n"
    )


@pytest.mark.parametrize(
    "args, problem",
    [
        (["INSTANCE"], "--config takes no INSTANCE_PATH"),
        (["--alg", "alg2", "--alpha", "1/4", "--trace", "TRACE"],
         "--config takes no --alg, --alpha, --trace"),
        (["--f", "1/2", "--delay-c", "4", "--checks", "packing"],
         "--config takes no --f, --delay-c, --checks"),
        (["INSTANCE", "--alg", "firstfit", "--csv", "CSV"], "--csv needs --config"),
    ],
)
def test_run_refuses_options_of_the_other_mode(tmp_path, args, problem):
    # a config run reads no instance file, policy option or trace path,
    # and a run on one file writes no CSV, so each is a usage error
    # rather than an option the run drops
    instance = fragmenting_file(tmp_path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"algorithm": "firstfit",
                                  "generator": {"family": "fig2", "k": 3, "mu": 5}}))
    paths = {"INSTANCE": instance, "TRACE": tmp_path / "trace.json",
             "CSV": tmp_path / "rows.csv"}
    args = [paths.get(a, a) for a in args]
    if "--csv" not in args:
        args = ["--config", config, *args]
    result = invoke("run", *args)
    assert result.exit_code == 2
    assert f"Error: {problem}\n" in result.stderr
    assert not (tmp_path / "trace.json").exists() and not (tmp_path / "rows.csv").exists()


def test_run_reports_invalid_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    write_jsonl(Instance(items=(Item(0, 0.0, 0, 1.0),), scale=8), path)
    result = invoke("run", path, "--alg", "firstfit")
    assert result.exit_code == 1
    assert result.stderr == "INVARIANT VIOLATION validate: item 0: size must be positive\n"


def test_verify_reports_each_check_of_one_run(tmp_path, monkeypatch):
    # the replay finds a clean packing and a bad_bins violation at t=0.0
    monkeypatch.setattr(
        harness, "check_records", lambda result: (None, ("bad_bins", "injected", 0.0))
    )
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "fig2", "--k", "4", "--mu", "10", "-o", path)
    result = invoke("verify", path, "--alg", "alg2", "--alpha", "1/4")
    assert result.exit_code == 1
    assert result.stdout.splitlines() == [
        "PASS packing",
        "FAIL bad_bins: bad_bins: injected (t=0.0)",
        "FAIL junk_load: bad_bins: injected (t=0.0)",
        "PASS per_time",
        "PASS migration_budget",
    ]


@pytest.mark.parametrize(
    "item, problem",
    [
        (Item(0, 0.0, 9, 1.0), "item 0: size exceeds bin capacity"),
        (Item(0, 2.0, 3, -1.0), "item 0: duration must be positive"),
        # JSON files may hold NaN, which no comparison with a time rejects
        (Item(0, 2.0, 3, math.nan), "item 0: duration must be positive"),
        (Item(0, math.nan, 3, 1.0), "item 0: arrival is NaN"),
    ],
)
def test_opt_reports_invalid_file(tmp_path, item, problem):
    path = tmp_path / "bad.jsonl"
    write_jsonl(Instance(items=(Item(1, 0.0, 4, 3.0), item), scale=8), path)
    result = invoke("opt", path)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"INVARIANT VIOLATION validate: {problem}\n"


def test_verify_certifies_snapshots_too_large_for_the_exact_oracle(tmp_path):
    # intervals of 25+ live items where FFD misses L1 are certified by L1
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "500", "--size-grid", "16",
           "--window", "50", "--seed", "0", "-o", path)
    result = invoke("verify", path, "--alg", "alg2", "--alpha", "1/4")
    assert result.exit_code == 0, result.output
    assert "PASS per_time" in result.stdout.splitlines()


DEFERRED = '{"id": 0, "arrival": 0.0, "size_num": 3, "duration": null}'
ADVERSARY = '{"name": "longest-per-bin", "mu": a number, "long_count": an integer}'


@pytest.mark.parametrize(
    "lines, problem",
    [
        (['{"seed": 0}', '{"id": 0, "arrival": 0.0, "size_num": 1, "duration": 1.0}'],
         "1: missing scale"),
        (['{"scale": 8}', '{"id": 0, "arrival": 0.0, "duration": 1.0}'],
         "2: missing size_num"),
        (['{"scale": 8}', "not json"], "2: not JSON: Expecting value"),
        (['{"scale": "16"}'], "1: scale: expected an integer, got '16'"),
        (['{"scale": 16.5}'], "1: scale: expected an integer, got 16.5"),
        (['{"scale": true}'], "1: scale: expected an integer, got True"),
        (['{"scale": 8}', '{"id": 0, "arrival": 0.0, "size_num": 3.5, "duration": 1.0}'],
         "2: size_num: expected an integer, got 3.5"),
        (['{"scale": 8}', '{"id": false, "arrival": 0.0, "size_num": 3, "duration": 1.0}'],
         "2: id: expected an integer, got False"),
        (['{"scale": 8}', '{"id": 0, "arrival": "0", "size_num": 3, "duration": 1.0}'],
         "2: arrival: expected a number, got '0'"),
        (['{"scale": 8}', '{"id": 0, "arrival": 0, "size_num": 3, "duration": [1]}'],
         "2: duration: expected a number or null, got [1]"),
        # the header's optional keys
        (['{"scale": 8, "adversary": 5}', DEFERRED],
         f"1: adversary: expected {ADVERSARY}, got 5"),
        (['{"scale": 8, "adversary": {"kind": "x"}}', DEFERRED],
         f"1: adversary: expected {ADVERSARY}, got {{'kind': 'x'}}"),
        (['{"scale": 8, "adversary": {"name": "longest-per-bin", "mu": "big", "long_count": 1}}',
          DEFERRED],
         f"1: adversary: expected {ADVERSARY}, "
         "got {'name': 'longest-per-bin', 'mu': 'big', 'long_count': 1}"),
        (['{"scale": 8, "seed": "x"}', '{"id": 0, "arrival": 0.0, "size_num": 3, "duration": 1.0}'],
         "1: seed: expected an integer or null, got 'x'"),
        # Python's json module reads Infinity, which no time or mu may be
        (['{"scale": 8}', '{"id": 0, "arrival": 0.0, "size_num": 3, "duration": Infinity}'],
         "2: duration: expected a number or null, got inf"),
        (['{"scale": 8}', '{"id": 0, "arrival": -Infinity, "size_num": 3, "duration": 1.0}'],
         "2: arrival: expected a number, got -inf"),
        (['{"scale": 8, "adversary": {"name": "longest-per-bin", "mu": Infinity, "long_count": 1}}',
          DEFERRED],
         f"1: adversary: expected {ADVERSARY}, "
         "got {'name': 'longest-per-bin', 'mu': inf, 'long_count': 1}"),
    ],
)
@pytest.mark.parametrize(
    "command", [("run", "--alg", "firstfit"), ("opt",), ("verify", "--alg", "firstfit")]
)
def test_malformed_file_is_a_one_line_error(tmp_path, lines, problem, command):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    result = invoke(command[0], path, *command[1:])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {path}:{problem}\n"


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"algorithm": "firstfit", "generatr": {"family": "fig2", "k": 3, "mu": 5}}',
         ": unknown key generatr"),
        ('{"algorithm": "firstfit",\n "generator": {"family": "fig2"', ":2: not JSON: Expecting"),
        ('{"algorithm": "firstfit", "generator": {"family": "fig3"}}',
         ": unknown generator family 'fig3'"),
        ('{"algorithm": "alg2", "alpha": "x", "generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": alpha: Invalid literal for Fraction: 'x'"),
        ('{"algorithm": "alg9", "generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": algorithm alg9: unknown algorithm 'alg9'"),
        ('{"algorithm": "alg2", "alpha": "1/4", "generator": {"family": "uniform", "n": 5, '
         '"duration_range": [1, 2], "arrival_window": 3}}',
         ": generator uniform needs size_grid"),
        # a drain re-places its residents in id order, with no option to choose
        ('{"algorithm": "alg2", "alpha": "1/4", "mig_order": "id", '
         '"generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": unknown key mig_order"),
        ('{"algorithm": "firstfit", "generator": {"family": "fig2", "k": 1, "mu": 5}}',
         ": k must be >= 2"),
        ('{"algorithm": "firstfit", "generator": {"family": "uniform", "n": 5, "size_grid": 12, '
         '"duration_range": [1, 2], "arrival_window": 3}}',
         ": size_grid must be a power of two"),
        ('{"algorithm": "firstfit", "generator": {"family": "fig2", "k": "x", "mu": 5}}',
         ": generator fig2: "),
        ('{"algorithm": "firstfit", "trials": "x", "generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": trials: expected an integer, got 'x'"),
        ('{"algorithm": "firstfit", "trials": true, "generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": trials: expected an integer, got True"),
        ('{"algorithm": "firstfit", "trials": -1, "generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": trials must be >= 0"),
        ('{"algorithm": "firstfit", "base_seed": "a", '
         '"generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": base_seed: expected an integer, got 'a'"),
        ('{"algorithm": "firstfit", "jobs": 0, "generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": jobs must be >= 1"),
        # refused before any trial, so with no trials too
        ('{"algorithm": "firstfit", "trials": 0, "checks": ["packing", "bogus"], '
         '"generator": {"family": "fig2", "k": 3, "mu": 5}}',
         f": unknown check bogus; choose from {', '.join(harness.CHECKS)}"),
        ('{"algorithm": "firstfit", "oracle_time_budget": 2.0, '
         '"generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": unknown key oracle_time_budget"),
        ('{"algorithm": "firstfit", "oracle_max_items": 24, '
         '"generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": unknown key oracle_max_items"),
    ],
)
def test_malformed_config_is_a_one_line_error(tmp_path, text, problem):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    result = invoke("run", "--config", path)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"Error: {path}{problem}")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "name, value",
    [
        # no longer config fields: any value is one "unknown key" line
        ("oracle_max_items", "x"),
        ("oracle_max_items", -1),
        ("oracle_max_items", 2.5),
        ("oracle_max_items", True),
        ("oracle_time_budget", 0),
        ("oracle_time_budget", "x"),
        ("oracle_time_budget", True),
        ("oracle_time_budget", None),
        ("delay_cost", "x"),
        ("delay_cost", -1),
        ("delay_cost", False),
        ("compute_opt", "yes"),
        ("compute_opt", 1),
        ("checks", "packing"),
        ("checks", [1]),
        ("checks", None),
        ("oracle_time_budget", float("nan")),
        ("oracle_time_budget", float("inf")),
        ("algorithm", ["x"]),
        ("algorithm", None),
        # no longer a config field either
        ("mig_order", ["x"]),
        ("mig_order", 1),
    ],
)
def test_bad_config_field_is_one_error_line(tmp_path, name, value):
    path = tmp_path / "cfg.json"
    config = {"algorithm": "alg2", "alpha": "1/4", name: value,
              "generator": {"family": "fig2", "k": 3, "mu": 5}}
    path.write_text(json.dumps(config))
    result = invoke("run", "--config", path)
    assert result.exit_code in (1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    errors = [line for line in result.stderr.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and name in errors[0]


@pytest.mark.parametrize("name", ["algorithm"])
def test_a_non_string_name_is_a_type_error(tmp_path, name):
    # a list once reached the policy registry's lookup, as an unhashable key
    path = tmp_path / "cfg.json"
    config = {"algorithm": "alg2", "alpha": "1/4", name: ["x"],
              "generator": {"family": "fig2", "k": 3, "mu": 5}}
    path.write_text(json.dumps(config))
    result = invoke("run", "--config", path)
    assert result.exit_code == 1
    assert result.stderr == f"Error: {path}: {name}: expected a string, got ['x']\n"


@pytest.mark.parametrize("command", ["run", "verify"])
def test_mig_order_is_not_an_option(tmp_path, command):
    # a drain re-places its residents in id order, with no option to choose
    result = invoke(command, fragmenting_file(tmp_path), "--alg", "alg2", "--alpha", "1/4",
                    "--mig-order", "id")
    assert result.exit_code == 2
    # click words it "No such option: --mig-order" or "No such option '--mig-order'."
    assert "Error: No such option" in result.stderr and "--mig-order" in result.stderr


@pytest.mark.parametrize(
    "args, problem",
    [
        (("run", "--alg", "alg2", "--alpha", "x"), "alpha: Invalid literal for Fraction: 'x'"),
        (("run", "--alg", "alg2", "--alpha", "1/2"),
         "algorithm alg2: alpha must lie in (0, 1/2)"),
        (("run", "--alg", "alg2"), "algorithm alg2: bad or missing alpha, f or delay_cost"),
        (("verify", "--alg", "alg1", "--alpha", "1/4"),
         "algorithm alg1: bad or missing alpha, f or delay_cost"),
        (("run", "--alg", "delay"), "algorithm delay: bad or missing alpha, f or delay_cost"),
        (("verify", "--alg", "delay", "--delay-c", "0.5"),
         "algorithm delay: delay cost must be >= 1"),
        (("verify", "--alg", "alg1", "--alpha", "1/2", "--f", "3/4"),
         "algorithm alg1: alpha must lie in (0, 1/2)"),
        (("verify", "--alg", "alg1", "--alpha", "1/4", "--f", "1/8"),
         "algorithm alg1: f must lie in (alpha, 1]"),
        # the options meet the same field table as a config file
        (("run", "--alg", "alg2", "--alpha", "1/4", "--delay-c", "-1"),
         "delay_cost must be >= 0"),
        (("verify", "--alg", "delay", "--delay-c", "-4"), "delay_cost must be >= 0"),
    ],
)
def test_bad_option_value_is_a_one_line_error(tmp_path, args, problem):
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
           "--window", "10", "-o", path)
    result = invoke(args[0], path, *args[1:])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"Error: {problem}")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "alg, alpha, check, problem",
    [
        ("firstfit", "1/2", "migration_budget",
         "check migration_budget needs alpha in (0, 1/2), got 1/2"),
        ("firstfit", "3/4", "migration_budget",
         "check migration_budget needs alpha in (0, 1/2), got 3/4"),
        ("sizecost", "1/4", "migration_budget",
         "check migration_budget does not apply to algorithm sizecost"),
        ("firstfit", "1/2", "size_budget", "check size_budget needs alpha in (0, 1/2), got 1/2"),
        ("alg2", "1/4", "size_budget", "check size_budget does not apply to algorithm alg2"),
    ],
)
def test_a_budget_check_it_cannot_bound_is_a_one_line_error(tmp_path, alg, alpha, check, problem):
    # the budgets scale with 1 / (1 - 2 alpha), undefined at 1/2 and
    # negative beyond; alg1 and alg2 keep the migration budget, sizecost
    # the size budget
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
           "--window", "10", "-o", path)
    result = invoke("run", path, "--alg", alg, "--alpha", alpha, "--checks", check)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {problem}\n"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "algorithm": alg, "alpha": alpha, "checks": [check],
        "generator": {"family": "fig2", "k": 3, "mu": 5},
    }))
    result = invoke("run", "--config", config)
    assert result.exit_code == 1
    assert result.stderr == f"Error: {config}: {problem}\n"


@pytest.mark.parametrize(
    "alg, alpha, delay_c, check",
    [
        ("firstfit", None, None, "decomposition"),
        ("firstfit", None, None, "delay_schedule"),
        ("alg2", "1/4", None, "decomposition"),
        ("firstfit", None, 0.0, "delay_schedule"),
    ],
)
def test_a_delay_check_without_a_delay_cost_is_a_one_line_error(
    tmp_path, alg, alpha, delay_c, check
):
    # both checks take the square root of the delay cost C
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
           "--window", "10", "-o", path)
    options = ["--alg", alg, "--checks", check]
    if alpha is not None:
        options += ["--alpha", alpha]
    if delay_c is not None:
        options += ["--delay-c", delay_c]
    result = invoke("run", path, *options)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: check {check} needs a delay_cost\n"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "algorithm": alg, "alpha": alpha, "delay_cost": delay_c, "checks": [check],
        "generator": {"family": "fig2", "k": 3, "mu": 5},
    }))
    result = invoke("run", "--config", config)
    assert result.exit_code == 1
    assert result.stderr == f"Error: {config}: check {check} needs a delay_cost\n"


@pytest.mark.parametrize("form", ["options", "config"])
@pytest.mark.parametrize("alg, delay_c", [("firstfit", None), ("delay", 4.0)])
def test_per_time_without_an_alpha_is_a_one_line_error(tmp_path, alg, delay_c, form):
    # the bound is open bins <= OPT_t / alpha: without an alpha there is
    # nothing to check
    if form == "options":
        path = tmp_path / "inst.jsonl"
        invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
               "--window", "10", "-o", path)
        options = ["--alg", alg, "--checks", "per_time"]
        if delay_c is not None:
            options += ["--delay-c", delay_c]
        result = invoke("run", path, *options)
        prefix = ""
    else:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algorithm": alg, "delay_cost": delay_c, "checks": ["per_time"],
            "generator": {"family": "fig2", "k": 3, "mu": 5},
        }))
        result = invoke("run", "--config", path)
        prefix = f"{path}: "
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {prefix}check per_time needs an alpha\n"


@pytest.mark.parametrize(
    "alg, alpha, check",
    [
        ("alg2", "1/4", "decomposition"),
        ("alg2", "1/4", "delay_schedule"),
        ("firstfit", None, "decomposition"),
        ("sizecost", "1/4", "delay_schedule"),
    ],
)
def test_a_delay_check_on_a_policy_without_delays_is_a_one_line_error(
    tmp_path, alg, alpha, check
):
    # the decomposition and the delay schedule describe the delay policy's
    # runs; alg2 with a delay cost used to fail the decomposition check as
    # an INVARIANT VIOLATION
    problem = f"check {check} does not apply to algorithm {alg}"
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
           "--window", "10", "-o", path)
    options = ["--alg", alg, "--delay-c", "1", "--checks", check]
    if alpha is not None:
        options += ["--alpha", alpha]
    result = invoke("run", path, *options)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {problem}\n"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "algorithm": alg, "alpha": alpha, "delay_cost": 1, "trials": 20, "checks": [check],
        "generator": {"family": "basiclb", "k": 8, "mu": 16},
    }))
    result = invoke("run", "--config", config)
    assert result.exit_code == 1
    assert result.stderr == f"Error: {config}: {problem}\n"


def test_a_delay_check_runs_with_a_delay_cost(tmp_path):
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
           "--window", "10", "-o", path)
    result = invoke("run", path, "--alg", "delay", "--delay-c", "4",
                    "--checks", "delay_schedule,decomposition")
    assert result.exit_code == 0


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_run_the_engine_stops_is_a_one_line_error(tmp_path, command):
    # past 2^56 floats lie 16 apart: the checkpoint at 2^56 + 32 is followed
    # by t + C + sqrt(C) = t + 72, which rounds to t + C, so the delay
    # policy stops the run rather than migrate the item forever
    path = tmp_path / "inst.jsonl"
    write_jsonl(Instance(items=(Item(0, 2.0**56 + 16, 1, 100.0),), scale=2), path)
    result = invoke(command, path, "--alg", "delay", "--delay-c", "64")
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == (
        f"Error: t={2.0**56 + 32}: the next checkpoint, t + C + sqrt(C), rounds to at most"
        " t + C, so the item would never depart\n"
    )


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_delay_run_on_deferred_durations_is_a_one_line_error(tmp_path, command):
    # item 0's checkpoint, at t = sqrt(C) = 2, comes before the adversary
    # resolves its duration at t=10, the last deferred arrival: the delay
    # its migration adds has no departure time to move
    path = tmp_path / "inst.jsonl"
    items = (Item(0, 0.0, 3, None), Item(1, 10.0, 3, None))
    adversary = {"name": "longest-per-bin", "mu": 5, "long_count": 1}
    write_jsonl(Instance(items=items, scale=8, adversary=adversary), path)
    result = invoke(command, path, "--alg", "delay", "--delay-c", "4")
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == (
        "Error: t=2.0: item 0 migrated under a delay cost before the adversary"
        " resolved its duration\n"
    )


def test_a_delay_config_past_float_resolution_ends_in_one_error_line(tmp_path):
    # arrivals up to 1e17, where floats lie 16 apart: the delay policy used
    # to migrate an item there forever; a subprocess, so a hang times out
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "algorithm": "delay", "delay_cost": 64, "trials": 1, "checks": ["packing"],
        "generator": {"family": "uniform", "n": 20, "size_grid": 8,
                      "duration_range": [100.0, 100.0], "arrival_window": 1e17},
    }))
    proc = subprocess.run(CLI + ["run", "--config", str(config)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == (
        "Error: t=7.298317482601286e+16: the first checkpoint, t + sqrt(C), rounds to t\n"
    )


@pytest.mark.parametrize("command", ["run", "verify", "run --config"])
def test_a_delay_run_that_would_not_end_is_refused_before_it_starts(tmp_path, command):
    # one item of duration 1e16 at C = 4 would migrate floor(1e16 / 2) =
    # 5e15 times; a subprocess first, so a run that starts times out
    path = tmp_path / "inst.jsonl"
    write_jsonl(Instance(items=(Item(0, 0.0, 3, 1e16),), scale=8), path)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "algorithm": "delay", "delay_cost": 4, "checks": ["packing"],
        "generator": {"family": "uniform", "n": 1, "size_grid": 8,
                      "duration_range": [1e16, 1e16], "arrival_window": 0},
    }))
    args = (
        ["run", "--config", str(config)] if command == "run --config"
        else [command, str(path), "--alg", "delay", "--delay-c", "4"]
    )
    proc = subprocess.run(CLI + args, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "Error: a delay run at C = 4.0 may make 5e+15 migrations, more than 1e+08;"
        " item 0 alone may make 5e+15\n"
    )
    start = time.perf_counter()
    assert invoke(*args).stderr == proc.stderr
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_inconclusive_per_time_check_is_a_one_line_error(tmp_path, monkeypatch, command):
    # every interval comes back inexact with an L1 bound of 0, so the first
    # segment with more open bins than its additive term cannot be
    # certified: 30 items at t=0 open 24 bins over 6 phases begun
    original = oracles.opt_total

    def inexact(instance):
        report = original(instance)
        for interval in report.intervals:
            interval.exact, interval.opt = False, 0
        return report

    monkeypatch.setattr(oracles, "opt_total", inexact)
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16", "-o", path)
    checks = ("--checks", "per_time") if command == "run" else ()
    result = invoke(command, path, "--alg", "alg2", "--alpha", "1/4", *checks)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == (
        "Error: OPT_t at t=0.0 is not exact and 24 open bins > 12.0 allowed"
        " by its lower bound 0\n"
    )


@pytest.mark.parametrize("alg, check", [("alg2", "migration_budget"), ("sizecost", "size_budget")])
def test_a_budget_check_still_runs_where_it_applies(tmp_path, alg, check):
    path = tmp_path / "inst.jsonl"
    invoke("gen", "--family", "uniform", "--n", "30", "--size-grid", "16",
           "--window", "10", "-o", path)
    result = invoke("run", path, "--alg", alg, "--alpha", "1/4", "--checks", check)
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "args, problem",
    [
        (("--family", "tradeoff", "--inv-s", "4", "--k", "3", "--mu", "4"),
         "k must be a positive multiple of inv_s"),
        (("--family", "uniform", "--n", "10", "--size-grid", "12", "--window", "5"),
         "size_grid must be a power of two"),
        (("--family", "delaylb", "--c", "5"), "C must be a perfect square"),
    ],
)
def test_gen_bad_value_is_a_one_line_error(tmp_path, args, problem):
    path = tmp_path / "x.jsonl"
    result = invoke("gen", *args, "-o", path)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {problem}\n"
    assert not path.exists()


UNIFORM = {"family": "uniform", "n": 5, "size_grid": 16, "duration_range": [1, 2],
           "arrival_window": 3}
FIG2 = {"family": "fig2", "k": 3, "mu": 5}


@pytest.mark.parametrize(
    "generator, problem",
    [
        (dict(UNIFORM, n=-3), "n must be >= 1"),
        (dict(UNIFORM, n=0), "n must be >= 1"),
        (dict(UNIFORM, n=2.5), "n: expected an integer, got 2.5"),
        (dict(UNIFORM, n=True), "n: expected an integer, got True"),
        (dict(UNIFORM, size_grid=0), "size_grid must be >= 1"),
        (dict(UNIFORM, size_grid="16"), "size_grid: expected an integer, got '16'"),
        (dict(UNIFORM, duration_range=[2, 1]),
         "duration_range must be two positive numbers, lo <= hi"),
        (dict(UNIFORM, duration_range=[0, 1]),
         "duration_range must be two positive numbers, lo <= hi"),
        (dict(UNIFORM, duration_range=[1]), "duration_range: expected two numbers, got [1]"),
        (dict(UNIFORM, duration_range=[1, "2"]),
         "duration_range: expected two numbers, got [1, '2']"),
        (dict(UNIFORM, duration_range=3), "duration_range: expected two numbers, got 3"),
        (dict(UNIFORM, arrival_window=-1), "arrival_window must be >= 0"),
        (dict(UNIFORM, arrival_window=None), "arrival_window: expected a number, got None"),
        (dict(FIG2, k=0), "k must be >= 1"),
        (dict(FIG2, k=3.0), "k: expected an integer, got 3.0"),
        (dict(FIG2, mu=0), "mu must be > 0"),
        (dict(FIG2, mu="5"), "mu: expected a number, got '5'"),
        (dict(FIG2, mu=float("inf")), "mu: expected a number, got inf"),
        (dict(UNIFORM, duration_range=[1, float("inf")]),
         "duration_range: expected two numbers, got [1, inf]"),
        ({"family": "tradeoff", "inv_s": -2, "k": 4, "mu": 4}, "inv_s must be >= 1"),
        ({"family": "delaylb", "c": False}, "c: expected an integer, got False"),
        # a family that is not a name is refused before it is looked up
        ({"family": ["x"]}, "unknown generator family ['x']"),
        ({"family": {}}, "unknown generator family {}"),
    ],
)
def test_bad_generator_value_is_one_error_line(tmp_path, generator, problem):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"algorithm": "firstfit", "generator": generator}))
    result = invoke("run", "--config", path)
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    family = generator["family"]
    where = f"generator {family}: " if type(family) is str else ""
    assert result.stderr == f"Error: {path}: {where}{problem}\n"


@pytest.mark.parametrize(
    "generator, problem",
    [
        # values past the key table still reach their builder's own check
        (dict(FIG2, k=1), "k must be >= 2"),
        (dict(FIG2, mu=0.5), "mu must exceed 1"),
        (dict(UNIFORM, size_grid=12), "size_grid must be a power of two"),
        ({"family": "delaylb", "c": 5}, "C must be a perfect square"),
    ],
)
def test_builder_messages_stay(tmp_path, generator, problem):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"algorithm": "firstfit", "generator": generator}))
    result = invoke("run", "--config", path)
    assert result.exit_code == 1
    assert result.stderr == f"Error: {path}: {problem}\n"


def test_gen_checks_the_generator_keys(tmp_path):
    path = tmp_path / "x.jsonl"
    result = invoke("gen", "--family", "uniform", "--n", "-3", "--size-grid", "16", "-o", path)
    assert result.exit_code == 1
    assert result.stderr == "Error: generator uniform: n must be >= 1\n"
    assert not path.exists()
