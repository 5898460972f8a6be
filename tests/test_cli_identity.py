"""Byte-identity of CLI outputs.

Each case runs the CLI in-process and hashes what it prints and writes:
`verify` for every algorithm on three instances, `run --checks --trace`
on one file, and `run --config` batches with every applicable check.
The expected digests were recorded while `verify` still simulated once
per check and `run` kept its own simulate-and-check code; the shared
path must reproduce every byte.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from dynbin import cli
from dynbin.harness import applicable_checks

INSTANCES = {
    "uniform": ["--family", "uniform", "--n", "20", "--size-grid", "8",
                "--dmin", "1", "--dmax", "2", "--window", "8", "--seed", "1"],
    "fig2": ["--family", "fig2", "--k", "4", "--mu", "10"],
    "delaylb": ["--family", "delaylb", "--c", "16", "--seed", "0"],
}
ALG_OPTIONS = {
    "firstfit": [],
    "alg1": ["--alpha", "1/4", "--f", "1/2"],
    "alg2": ["--alpha", "1/4"],
    "sizecost": ["--alpha", "1/4"],
    "delay": ["--delay-c", "16"],
}
UNIFORM = {
    "family": "uniform", "n": 20, "size_grid": 8,
    "duration_range": [1.0, 2.0], "arrival_window": 8.0,
}
BATCHES = {
    "alg2": {"alpha": "1/4", "generator": UNIFORM},
    "sizecost": {"alpha": "1/4", "generator": UNIFORM},
    "delay": {"delay_cost": 16.0, "generator": {"family": "delaylb", "c": 16}},
    "firstfit": {"generator": UNIFORM},
}

EXPECTED = {
    "run --checks --trace": "d9e30bd32db313578c372ae395239a3721f9e36f05e655033fc72e85da7e91e3",
    "run --config alg2": "0bc3eb4ad5eb06ee99681bbc2f035234c38cdad27022b0e8f86d86f17d024166",
    "run --config delay": "f27d3f6e4d1e8c9aad6fcd49b04ad43763fbf0ee190a71d8c075d0edb5a16f9f",
    "run --config firstfit": "b8a540bec2987d54ebfd9e5e5938fc4f1b6e2dbfb505798869579edf0641aa21",
    "run --config sizecost": "3579591e381995f2425e45db19e38028e5056aadaddd7955c6630199b07415bf",
    "verify alg1 delaylb": "9a4504504c57617be6be8f0bed864375924af70a0258d56b0ad24d703ac00abf",
    "verify alg1 fig2": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
    "verify alg1 uniform": "e53c33d2532298ac5b387b923d2d27605b8acb3e56e80e7cdc5fdf2079bf359f",
    "verify alg2 delaylb": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
    "verify alg2 fig2": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
    "verify alg2 uniform": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
    "verify delay delaylb": "af2822e9a24e40d2e87cdd134015fcacb45309094510a14fe1642cd8f5bc3f97",
    "verify delay fig2": "af2822e9a24e40d2e87cdd134015fcacb45309094510a14fe1642cd8f5bc3f97",
    "verify delay uniform": "af2822e9a24e40d2e87cdd134015fcacb45309094510a14fe1642cd8f5bc3f97",
    "verify firstfit delaylb": "880995d1c0a69798c132afc46e741f082b342b178e90ae4cbc7ea29a8839aeb1",
    "verify firstfit fig2": "880995d1c0a69798c132afc46e741f082b342b178e90ae4cbc7ea29a8839aeb1",
    "verify firstfit uniform": "880995d1c0a69798c132afc46e741f082b342b178e90ae4cbc7ea29a8839aeb1",
    "verify sizecost delaylb": "27dccceaaa7063f755cda9ec87d604a2d04e374738cd782c4b96ba118ac77dc3",
    "verify sizecost fig2": "27dccceaaa7063f755cda9ec87d604a2d04e374738cd782c4b96ba118ac77dc3",
    "verify sizecost uniform": "27dccceaaa7063f755cda9ec87d604a2d04e374738cd782c4b96ba118ac77dc3",
}


def invoke(args):
    result = CliRunner().invoke(cli.main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return result


def instance_file(tmp_path, name):
    path = tmp_path / f"{name}.jsonl"
    invoke(["gen", *INSTANCES[name], "-o", str(path)])
    return str(path)


def verify_bytes(tmp_path, instance, alg):
    result = invoke(["verify", instance_file(tmp_path, instance), "--alg", alg,
                     *ALG_OPTIONS[alg]])
    return f"{result.exit_code}\n{result.stdout}".encode()


def run_trace_bytes(tmp_path):
    trace = tmp_path / "trace.json"
    result = invoke(["run", instance_file(tmp_path, "fig2"), "--alg", "alg2",
                     "--alpha", "1/4", "--checks", "packing,bad_bins,junk_load",
                     "--trace", str(trace)])
    return f"{result.exit_code}\n{result.stdout}".encode() + trace.read_bytes()


def run_config_bytes(tmp_path, alg):
    config = {"algorithm": alg, "trials": 3, "base_seed": 4,
              "checks": applicable_checks(alg), **BATCHES[alg]}
    config_path, report, csv = (tmp_path / n for n in ("cfg.json", "rep.json", "rows.csv"))
    config_path.write_text(json.dumps(config))
    result = invoke(["run", "--config", str(config_path), "-o", str(report),
                     "--csv", str(csv)])
    return f"{result.exit_code}\n".encode() + report.read_bytes() + csv.read_bytes()


CASES = {
    **{f"verify {alg} {instance}": (lambda p, a=alg, i=instance: verify_bytes(p, i, a))
       for instance in INSTANCES for alg in ALG_OPTIONS},
    "run --checks --trace": run_trace_bytes,
    **{f"run --config {alg}": (lambda p, a=alg: run_config_bytes(p, a)) for alg in BATCHES},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_are_unchanged(case, tmp_path):
    assert hashlib.sha256(CASES[case](tmp_path)).hexdigest() == EXPECTED[case]
