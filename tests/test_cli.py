import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from dynbin import cli, harness
from dynbin.core import Instance, Item, write_jsonl

CLI = [sys.executable, "-m", "dynbin"]


def run_cli(*args, expect_ok=True):
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True
    )
    if expect_ok and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stderr}\n{proc.stdout}")
    return proc


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
    path = fragmenting_file(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "algorithm": "firstfit", "checks": ["packng"],
        "generator": {"family": "fig2", "k": 3, "mu": 5},
    }))
    for args in (["run", path, "--alg", "firstfit", "--checks", "packng"],
                 ["run", "--config", cfg_path]):
        result = invoke(*args)
        assert result.exit_code == 2
        assert "Error: unknown check packng" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)


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


@pytest.mark.parametrize(
    "lines, problem",
    [
        (['{"seed": 0}', '{"id": 0, "arrival": 0.0, "size_num": 1, "duration": 1.0}'],
         "1: missing scale"),
        (['{"scale": 8}', '{"id": 0, "arrival": 0.0, "duration": 1.0}'],
         "2: missing size_num"),
        (['{"scale": 8}', "not json"], "2: not JSON: Expecting value"),
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
        ('{"algorithm": "alg2", "alpha": "1/4", "mig_order": "bogus", '
         '"generator": {"family": "fig2", "k": 3, "mu": 5}}',
         ": algorithm alg2: unknown migration order 'bogus'"),
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
