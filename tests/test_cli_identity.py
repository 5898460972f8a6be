"""Byte-identity of CLI outputs.

Each case runs the CLI in-process and compares what it prints and
writes, byte for byte, with its golden file under `tests/golden/`:
`verify` for every algorithm on three instances, `opt` on each instance
from a cold oracle cache, `run --checks --trace` on one file, and
`run --config` batches with every applicable check. Cases that print the
same bytes share a file. Each golden file also hashes to the case's
recorded sha256 digest below, so the files hold the recorded bytes.
The expected digests were recorded while `verify` still simulated once
per check and `run` kept its own simulate-and-check code; the shared
path must reproduce every byte. `verify alg1` on uniform and delaylb
was re-recorded when the migration budget began to count alg1's single
class against all items: each ended in `FAIL migration_budget: ... in
class > 0.0` and exit 1 before, and now passes every check. The `opt`
digests were recorded before `opt_total` took over the interval sweep
from a separate snapshot generator; the case at `MAX_ITEMS` 2 was
recorded with a `--max-items 2` option, and now sets the module constant
in-process. The four `run --config` digests were re-recorded when the
config lost its `oracle_time_budget` field, again when it lost its
`oracle_max_items` field, and again when it lost its `mig_order` field:
each time every report differs from the one before by that one line, and
every CSV is unchanged.
"""

import difflib
import hashlib
import json
from pathlib import Path
from unittest.mock import patch

import pytest
from click.testing import CliRunner

from dynbin import cli, oracles
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
    "opt delaylb": "e35a2749b0affa1dd2692e7d4f5c317d39be62b098fc929a728f30ec079d80be",
    # fig2 defers its durations to the adversary, so opt refuses it
    "opt fig2": "6b1db06abd7921b4618011750ab5082a941ec4bdcc8439506d98c4d7a8e409b6",
    "opt uniform": "e91cd4acfbe9ba4d5c5d414d19542f354ef4a124cf71697377009d2780614ed5",
    "opt uniform at MAX_ITEMS 2": "4b5b456e608c61b766501a50c313a905d76106550c574df8afebdf7d31c15b5d",
    "run --checks --trace": "d9e30bd32db313578c372ae395239a3721f9e36f05e655033fc72e85da7e91e3",
    "run --config alg2": "188233bf43a1a9bc26405ae6c5629f0eeedb426266cff6b3708150e2c1f93c96",
    "run --config delay": "8fa325620995ca97c65684ce2249c19bdb0e942133e3ae83f66c25c7b9e8ef66",
    "run --config firstfit": "fd45fee3b4db5cf3f920ab3be1b021f5ad0d7bd4f494be6949a21e3691c2af34",
    "run --config sizecost": "11eb0495184842f43a96104bfd1ef7ebca350a3b845a9b78ada43368caf44e83",
    "verify alg1 delaylb": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
    "verify alg1 fig2": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
    "verify alg1 uniform": "adf2f0159e5808f3bb536d03d78f4c9910d800539fa22c5b54b37932fadab2b9",
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


def opt_bytes(tmp_path, instance, max_items=oracles.MAX_ITEMS):
    # from a cold cache, as the digests were recorded; a warm one gives
    # the same bytes, since the cache changes no result
    path = instance_file(tmp_path, instance)
    oracles._opt_cache.clear()
    with patch.object(oracles, "MAX_ITEMS", max_items):
        result = invoke(["opt", path])
    return f"{result.exit_code}\n{result.stdout}{result.stderr}".encode()


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
    **{f"opt {instance}": (lambda p, i=instance: opt_bytes(p, i)) for instance in INSTANCES},
    # an interval past two items where FFD misses L1 ends inexact
    "opt uniform at MAX_ITEMS 2": lambda p: opt_bytes(p, "uniform", 2),
    "run --checks --trace": run_trace_bytes,
    **{f"run --config {alg}": (lambda p, a=alg: run_config_bytes(p, a)) for alg in BATCHES},
}


GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_name(case):
    words = case.replace(" --", " ").split()
    if words[0] == "verify":
        # a verify prints only the checks it passed, the same lines on
        # every instance, and alg1 and alg2 pass the same checks
        alg = words[1]
        words = ["verify", "alg1-alg2" if alg in ("alg1", "alg2") else alg]
    return "-".join(words) + ".out"


GOLDEN = {case: golden_name(case) for case in CASES}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_are_unchanged(case, tmp_path):
    golden = GOLDEN_DIR / GOLDEN[case]
    expected = golden.read_bytes()
    assert hashlib.sha256(expected).hexdigest() == EXPECTED[case], golden
    actual = CASES[case](tmp_path)
    if actual != expected:
        new = tmp_path / golden.name
        new.write_bytes(actual)
        diff = difflib.unified_diff(
            expected.decode(errors="replace").splitlines(keepends=True),
            actual.decode(errors="replace").splitlines(keepends=True),
            str(golden),
            str(new),
        )
        pytest.fail(f"{case}: output differs, new bytes in {new}\n" + "".join(diff))


def test_every_golden_file_belongs_to_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(set(GOLDEN.values()))
