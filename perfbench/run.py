"""dynbin benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # every workload, default seed

Each repetition runs in a fresh interpreter (rep.py), one at a time, so
the oracle cache starts cold and no two repetitions share a core. With
--trace 0 the run measures repetitions until --seconds would be exceeded
and reports the end-to-end metrics as medians over them. With --trace 1
it runs one untraced and one traced repetition and reports the
per-layer metrics of the traced one. The last line of output is one JSON
object; the exit code is nonzero if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stream", "dense", "checked", "offline")
DEFAULT_SEED = 0
SETUP_PROBES = 9  # set-up-only children per run, for a steady setup_s median
REP_TIMEOUT_S = 170


def child(workload: str, seed: int, trace: int = 0, setup_only: bool = False) -> dict:
    """Run rep.py once and return its result with the parent-side timings."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S, check=True
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # both clocks are CLOCK_MONOTONIC; scaled to reference seconds like the rest
    out["setup_s"] = (out["setup_done"] - spawned) * out["setup_speed"]
    out["process_s"] = time.monotonic() - spawned
    return out


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0  # no trial completed: the run has failed
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def trial_latencies(reps: list[dict]) -> list[float]:
    """Each trial's median latency over the repetitions, which all run the
    same inputs; the median drops a stall that hit one repetition."""
    return [statistics.median(lats) for lats in zip(*(rep["latencies"] for rep in reps))]


def check_digests(workload: str, seed: int, reps: list[dict]) -> list[str]:
    """Every repetition must agree; at the default seed they must also
    match the digests stored at the seed commit."""
    problems = []
    first = reps[0]["digests"]
    for rep in reps[1:]:
        if rep["digests"] != first:
            problems.append("repetitions disagree")
            break
    if seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference.json")) as fh:
            expected = json.load(fh)[workload]
        for group, value in expected.items():
            if first.get(group) != value:
                problems.append(f"digest mismatch in {group}")
    return problems


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[str]]:
    setups = [child(workload, seed, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    reps: list[dict] = []
    start = time.monotonic()
    while True:
        rep = child(workload, seed)
        reps.append(rep)
        if time.monotonic() - start + rep["process_s"] > seconds:
            break
    setups += [rep["setup_s"] for rep in reps]
    intervals = sum(rep["intervals"] for rep in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rep["items"] / rep["elapsed_s"] for rep in reps),
        "trials_per_s": statistics.median(len(rep["latencies"]) / rep["elapsed_s"] for rep in reps),
        "trial_p99_ms": 1e3 * p99(trial_latencies(reps)),
        "intervals_per_s": statistics.median(rep["intervals"] / rep["elapsed_s"] for rep in reps),
        "opt_exact_frac": sum(rep["exact_intervals"] for rep in reps) / max(intervals, 1),
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
    }
    return metrics, reps, check_digests(workload, seed, reps)


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict], list[str]]:
    plain = child(workload, seed)
    traced = child(workload, seed, trace=1)
    metrics = dict(traced["layers"])
    metrics["bench.trace_overhead_s"] = traced["work_s"] - plain["work_s"]
    reps = [plain, traced]
    return metrics, reps, check_digests(workload, seed, reps)


def load_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, reps, problems = per_layer(workload, seed)
    else:
        metrics, reps, problems = end_to_end(workload, seed, seconds)
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps) + len(problems)
    errors: dict[str, int] = {}
    for rep in reps:
        for kind, count in rep["errors"].items():
            errors[kind] = errors.get(kind, 0) + count

    units = load_units()
    print(f"# {workload} seed={seed} reps={len(reps)} trace={trace}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':36s} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    for problem in problems:
        print(f"  FAIL {problem}")
    for kind, count in sorted(errors.items()):
        print(f"  FAIL {kind} x{count}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dynbin", "__init__.py")):
        print(f"dynbin source not found under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
