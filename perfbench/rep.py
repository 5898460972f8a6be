"""One repetition of one workload, in a fresh interpreter.

Started by run.py. Sets up the workload, checks that the oracle cache is
empty, runs the timed section, checks the outputs and prints one JSON
object as its last line of output. With --setup-only it stops after set-up.
With --trace 1 it records spans and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import speed
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_program():
    """Import dynbin from this checkout's source tree, never an installed copy."""
    sys.path.insert(0, SRC)
    import dynbin

    if os.path.dirname(os.path.dirname(os.path.abspath(dynbin.__file__))) != SRC:
        raise ImportError(f"dynbin was imported from {dynbin.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    load_program()
    from dynbin import algorithms, cli, engine, generators, harness, oracles

    import workloads

    setup, run = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(generators, engine, algorithms, harness, oracles, cli)
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        state = setup(args.seed, workdir)
        out = {"setup_done": time.monotonic(), "setup_speed": speed.speed_factor()}
        if not args.setup_only:
            out.update(measure(args, run, state, tracer, oracles, workloads))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(args, run, state, tracer, oracles, workloads) -> dict:
    """The timed section. Untraced, times are reference seconds from the
    speed probe; traced, they are wall seconds (the probe would land
    inside the spans)."""
    # The oracle cache is module-level and unbounded; a warm cache would
    # measure the cache rather than the code.
    if getattr(oracles, "_opt_cache", None):
        raise RuntimeError("oracle cache is not empty when the timed section starts")
    rec = workloads.Recorder()
    if tracer is None:
        with speed.SpeedProbe() as probe:
            run(state, rec)
        elapsed = probe.scaled(probe.start, probe.end)
        work_s = probe.end - probe.start - probe.probe_s
        latencies = [probe.latency(a, b) for a, b in rec.trials]
    else:
        start = time.perf_counter()
        run(state, rec)
        elapsed = work_s = time.perf_counter() - start
        latencies = [b - a for a, b in rec.trials]

    out = {
        "elapsed_s": elapsed,
        "work_s": work_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "latencies": latencies,
        "items": rec.items,
        "intervals": rec.intervals,
        "exact_intervals": rec.exact_intervals,
        "digests": {group: workloads.digest(outs) for group, outs in rec.outputs.items()},
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.json"))
        out["layers"] = tracing.layer_metrics(tracer)
    return out


if __name__ == "__main__":
    sys.exit(main())
