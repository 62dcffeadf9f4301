"""malcevlab benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {cli,search,structure} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each round of queries runs in a fresh
interpreter (bench/worker.py) that first builds the inputs, which times
set-up; workers run one after another until --seconds are spent, so
set-up samples and rounds spread over the whole run.  With --trace 0 the
last line holds the end-to-end metrics of BENCHMARK.json, with times at
the reference speed of the yardsticks (see timings); with --trace 1 it
holds the per-layer metrics.  The line before it holds the seed, input
and work digests, sample counts, fail_ratio and the raw measured times.
See bench/METRICS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from spans import fold_rounds

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
# set-up is timed in every worker; workers that only build the inputs
# are added until there are this many samples, and the median is reported
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 10
ROUND_TIMEOUT_S = 120
# times of one call of each yardstick (worker.py) on a 2-vCPU Intel Xeon
# VM in a quiet stretch; the end-to-end times are reported at this speed
PYTHON_YARDSTICK_REF_S = 0.0028
INTERPRETER_YARDSTICK_REF_S = 0.2
# at least 100 timed queries, so at least ten lie beyond the p90
MIN_QUERIES = 100
# traced runs write their spans here, relative to the checkout root
SPAN_DIR = Path(".bench_out")
SPAN_COLUMNS = ["name", "start_s", "end_s", "query", "tag"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli", "search", "structure"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def spawn(cmd, env, timeout):
    """Run one worker and return its last line as JSON.

    The worker gets its own process group, so a timeout or a signal to
    this process also stops the command lines the worker has started."""
    argv = cmd + ["--spawned-at", repr(time.monotonic())]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise SystemExit(f"error: worker exceeded {timeout} s: {argv}")
            raise
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"error: worker exited {proc.returncode}: {argv}")
    return json.loads(out.strip().splitlines()[-1])


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "malcevlab").rglob("*.py")))


def timings(setups, rounds, workload, at_reference):
    """setup_s, wall_s and the latency percentiles of the workers.

    At reference speed, the times are divided by the mean time of the
    yardstick calls made beside them and multiplied by the yardstick's
    reference time, which cancels the host's slow and fast stretches:
    each round's query times by its own calls of the workload's
    yardstick, and the median set-up time by the median of the
    interpreter yardstick calls made right after set-up."""
    query_ref = (INTERPRETER_YARDSTICK_REF_S if workload == "cli"
                 else PYTHON_YARDSTICK_REF_S)
    rows = [[x * (query_ref / r["yardstick_s"] if at_reference else 1.0)
             for x in r["latencies"]] for r in rounds]
    latencies = [x for row in rows for x in row]
    setup_s = statistics.median(r["setup_s"] for r in setups)
    if at_reference:
        setup_s *= INTERPRETER_YARDSTICK_REF_S / statistics.median(
            r["setup_yardstick_s"] for r in setups)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(sum(row) for row in rows),
        "query_p50_ms": statistics.median(latencies) * 1000.0,
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1000.0,
    }


def work_digest(works):
    return hashlib.sha256(json.dumps(works).encode()).hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    # a terminated run unwinds through spawn, which stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "malcevlab" / "__init__.py").is_file():
        print("error: no malcevlab sources under src/; run from the root of "
              "a malcevlab checkout", file=sys.stderr)
        return 2
    missed = oracles.self_test()
    if missed:
        print("error: oracle self-test failed: " + "; ".join(missed),
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)]

    rounds = {False: [], True: []}  # worker outputs, by traced
    start = time.monotonic()
    while True:
        n = len(rounds[False]) + len(rounds[True])
        traced = bool(args.trace) and n % 2 == 1
        rounds[traced].append(
            spawn(cmd + ["--traced"] * traced, env, ROUND_TIMEOUT_S))
        samples = sum(len(r["latencies"]) for r in rounds[False])
        enough = (all(rounds.values()) if args.trace
                  else samples >= MIN_QUERIES)
        elapsed = time.monotonic() - start
        # stop when one more round of the average length would end further
        # from --seconds than stopping now
        if enough and elapsed + elapsed / (n + 1) / 2 > args.seconds:
            break
    runs = rounds[False] + rounds[True]
    setups = runs + [spawn(cmd + ["--setup-only"], env, SETUP_TIMEOUT_S)
                     for _ in range(SETUP_SAMPLES - len(runs))]

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    digests = {r["input_digest"] for r in setups}
    attempted += 1
    if len(digests) != 1:
        failed += 1
        errors.append(f"inputs differ between processes: {sorted(digests)}")
    # every round must repeat the work counts of the first
    first = dict(map(tuple, runs[0]["works"]))
    for r in runs[1:]:
        drift = [name for name, work in r["works"] if first.get(name) != work]
        attempted += len(r["works"])
        failed += len(drift)
        errors += [f"{name}: work counts differ between rounds" for name in drift]

    values = timings(setups, rounds[False], args.workload, True)
    values["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    wall_s = values["wall_s"]
    if args.trace:
        values = fold_rounds([r["layers"] for r in rounds[True]])
        values["src.lines"] = src_lines()
        values["trace.overhead_ratio"] = (
            timings(setups, rounds[True], args.workload, True)["wall_s"] / wall_s)
        search_s = values.get("malcev.search_s", 0)
        values["malcev.tables_per_s"] = (
            values.get("malcev.tables_explored", 0) / search_s if search_s else 0)
        # a layer the workload never calls reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    info = {"workload": args.workload, "seed": args.seed,
            "input_digest": runs[0]["input_digest"],
            "work_digest": work_digest(runs[0]["works"]),
            "rounds": len(rounds[False]),
            "samples": sum(len(r["latencies"]) for r in rounds[False]),
            "setup_samples": len(setups), "fail_ratio": failed / attempted,
            "measured": timings(setups, rounds[False], args.workload, False),
            "errors": errors[:10]}
    if args.trace:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"columns": SPAN_COLUMNS,
                                    "rounds": [r["spans"] for r in rounds[True]]}))
        info.update(traced_rounds=len(rounds[True]), spans=str(path))
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
