"""One round of one workload in a fresh interpreter: build the inputs, then
time every query once.

Started by run.py, never by hand; run.py starts one worker after another
and folds their rounds together.  The load is a closed loop with one
client: one query at a time, no threads, and (for cli) one child
process at a time.  Prints one JSON line as its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

import oracles
from spans import Tracer

ORDER_SEED = 1309
YARDSTICK_ALGEBRA = oracles.chain(5)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawning")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_ms():
    """Wall time of a fresh interpreter importing the command's module."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import malcevlab.cli"], check=True,
                   timeout=60)
    return (perf_counter() - start) * 1000.0


# The shared host's speed swings by a quarter over stretches of about a
# minute, longer than a run.  So each worker also times yardsticks, fixed
# computations in which no malcevlab code runs but which slow with the
# host as the queries do, and run.py divides the times it reports by them.

def python_yardstick_s():
    """A pure-Python computation with the tuple, set and dict work that
    malcevlab does in-process."""
    start = perf_counter()
    oracles.congruences(YARDSTICK_ALGEBRA)
    table = {}
    for i in range(3000):
        table[(i % 911, i % 37, i)] = [i]
    return perf_counter() - start


def interpreter_yardstick_s():
    """A fresh interpreter importing numpy, malcevlab's one third-party
    dependency: process start and file-backed imports, the work of set-up
    and of a command line."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=60)
    return perf_counter() - start


# workload -> (yardstick of its queries, queries per yardstick call); the
# interpreter yardstick costs most of a command line, so it runs less often
YARDSTICKS = {"cli": (interpreter_yardstick_s, 8)}
DEFAULT_YARDSTICK = (python_yardstick_s, 1)


def run_round(queries, tracer, traced, yardstick):
    """Every query once, with yardstick calls between them; returns
    latencies, yardstick times, work records, errors."""
    yardstick_s, every = yardstick
    tracer.reset(traced)
    latencies, yardsticks, works, errors = [], [], [], []
    for i, q in enumerate(queries):
        if i % every == 0:
            yardsticks.append(yardstick_s())
        gc.collect()
        tracer.query = i
        tracer.watch_gc(True)
        start = perf_counter()
        try:
            answer, error = q.run(tracer), None
        except Exception as exc:  # a failed query, counted in fail_ratio
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        end = perf_counter()
        tracer.watch_gc(False)
        if traced:
            tracer.spans.append([f"query.{q.name}", start, end, i, None])
        work = None
        try:
            if error is None:
                work, error = q.check(answer, tracer)
            if error is None and traced and q.traced_extra:
                error = q.traced_extra(tracer)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        latencies.append(end - start)
        works.append([q.name, work])
        if error:
            errors.append(f"{q.name}: {error}")
    return latencies, yardsticks, works, errors


def main(argv=None):
    args = parse_args(argv)
    from workloads import BUILDERS  # imports malcevlab and numpy

    tracer = Tracer()
    tracer.reset(args.traced)
    setup = BUILDERS[args.workload](args.seed, tracer)
    setup_layers = {k: v for k, v in tracer.round_layers().items()
                    if k.startswith("algebras.product")}
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s, "input_digest": setup.digest(),
           "setup_yardstick_s": interpreter_yardstick_s()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    # light and heavy queries are mixed, so that the latency percentiles
    # sample the whole round rather than one stretch of it; the order is
    # the same for every seed, as the peak memory depends on it
    queries = list(setup.queries)
    random.Random(ORDER_SEED).shuffle(queries)
    latencies, yardsticks, works, errors = run_round(
        queries, tracer, args.traced,
        YARDSTICKS.get(args.workload, DEFAULT_YARDSTICK))
    usage = (resource.RUSAGE_CHILDREN if args.workload == "cli"
             else resource.RUSAGE_SELF)
    out.update(
        attempted=setup.checks + len(works),
        failed=len(setup.errors) + len(errors),
        errors=(setup.errors + errors)[:10],
        latencies=latencies,
        yardstick_s=statistics.mean(yardsticks),
        works=sorted(works),
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
    )
    if args.traced:
        layers = tracer.round_layers()
        layers.update(setup_layers)
        layers["cli.import_ms"] = import_ms()
        out.update(layers=layers, spans=tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
