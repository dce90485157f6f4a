#!/usr/bin/env python3
"""Benchmark of sasakigeo: timed workloads with checked outputs.

Run from the root of a checkout:

    python3 benchmark/run.py --workload distance-sub --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the same checkout, in this process
and on one thread.  The run attempts whole rounds of its workload until
``--seconds`` have passed and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics.  ``--trace 1`` runs one op to warm up, runs rounds
untraced for half the time, then replays the same rounds with every layer
wrapped; it gives the per-layer metrics and writes the spans to
``benchmark/out/``.  The result line is printed whatever the ops did; the
exit code is 1 when no op passed its check, so that no metric can be
computed from checked results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
TRACE_WALL_TOL = 0.5  # |traced - untraced| wall of the same rounds, share of untraced
BENCH_SELF_TOL = 0.01  # share of the traced wall outside every layer
END_TO_END = ("setup_s", "ops_per_s", "op_s.p50", "peak_rss_mb", "dist_mean")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def setup(name, seed):
    """Import the program, build the workload and its first round's inputs."""
    t0 = perf_counter()
    sys.path[:0] = [SRC, HERE]
    import workloads

    workload = workloads.make(name, seed, OUT_DIR)
    first = workload.round(0)
    return workload, first, perf_counter() - t0


class Runner:
    """Runs rounds, timing each op's program call and checking its output.

    An op fails when its call raises or its output fails a check.  Every
    op's time counts, a failed op's too, so an op that starts failing fast
    cannot make the run look faster.
    """

    def __init__(self, workload, first_round):
        self.workload = workload
        self.cache = {0: first_round}
        self.op_times = []
        self.distances = []
        self.attempted = 0
        self.failed = 0

    def ops(self, r):
        if r not in self.cache:
            self.cache[r] = self.workload.round(r)
        return self.cache[r]

    def run_round(self, r, tracer=None):
        for op in self.ops(r):
            self.attempted += 1
            t0 = perf_counter()
            try:
                out = op.call() if tracer is None else tracer.run_span("bench.op", op.call)
            except Exception as exc:  # a failed op is counted, not fatal
                fails = [f"raised {exc!r}"]
            else:
                fails = None
            self.op_times.append(perf_counter() - t0)
            print(f"round {r} {op.name}: {self.op_times[-1]:.3f} s", file=sys.stderr)
            if fails is None:
                fails = op.check(out)
            if fails:
                for msg in fails:
                    print(f"round {r} {op.name}: {msg}", file=sys.stderr)
                self.failed += 1
            else:
                self.distances += self.workload.distances(out)

    def run_for(self, seconds):
        """Whole rounds until ``seconds`` have passed; returns the round count."""
        start = perf_counter()
        r = 0
        while r == 0 or perf_counter() - start < seconds:
            self.run_round(r)
            r += 1
        return r


def end_to_end(runner, setup_s):
    """The end-to-end metrics; ``dist_mean`` is None when no op passed."""
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((runner.attempted - runner.failed) / sum(runner.op_times), "1/s"),
        "op_s.p50": (statistics.median(runner.op_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "dist_mean": (statistics.fmean(runner.distances) if runner.distances else None,
                      "length"),
    }
    return {name: {"value": values[name][0], "unit": values[name][1]} for name in END_TO_END}


def traced(runner, seconds, args):
    """Untraced rounds for half the time, then the same rounds traced."""
    import layers
    from tracing import Tracer

    runner.ops(0)[0].call()  # warm-up, so first-call costs stay out of the overhead
    rounds = runner.run_for(seconds / 2.0)
    untraced = sum(runner.op_times)
    tracer = Tracer()
    tracer.install("sasakigeo", layers.targets())
    try:
        for r in range(rounds):
            runner.run_round(r, tracer)
    finally:
        tracer.uninstall()
    wall = tracer.wall()
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(
        os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json"),
        {"workload": args.workload, "seed": args.seed, "rounds": rounds,
         "untraced_s": untraced, "traced_s": wall},
    )
    # The replay runs the ops the untraced phase timed, so its wall time may
    # differ from theirs by the tracing overhead and the machine's noise, and
    # the program's layers must account for nearly all of it.
    if not abs(wall - untraced) <= TRACE_WALL_TOL * untraced:
        raise RuntimeError(f"traced wall {wall:.3f} s against {untraced:.3f} s untraced")
    outside = tracer.layer_self()["bench"]
    if not outside <= BENCH_SELF_TOL * wall:
        raise RuntimeError(f"{outside:.3f} s of {wall:.3f} s traced fell outside every layer")
    return layers.metrics(tracer, wall - untraced)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "sasakigeo")):
        print(f"benchmark: no program source at {SRC}/sasakigeo", file=sys.stderr)
        return 2
    workload, first, setup_s = setup(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(workload, first)
    if args.trace:
        metrics = traced(runner, args.seconds, args)
    else:
        runner.run_for(args.seconds)
        metrics = end_to_end(runner, setup_s)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.distances else 1


if __name__ == "__main__":
    sys.exit(main())
