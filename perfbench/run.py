#!/usr/bin/env python3
"""Benchmark of the gradedorders CLI and library.

    python3 perfbench/run.py --workload enumerate|polysort|decide|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
Each workload runs in its own process as one closed-loop client: one request
at a time, each calling the CLI's `main` in this process (or the library)
on inputs generated from the seed, with stdout streamed into a checker.
`--seconds` sets the number of requests through a fixed time per round for
each workload, never through the clock, so a seed always gives the
same requests.

Request times are reported at a nominal machine speed (see reference.py).
`--trace 0` prints the end-to-end metrics.  `--trace 1` first runs the same
requests untraced in a child process, then runs them traced and prints the
per-layer metrics and the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  Records of each run go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import NOMINAL_NS, reference_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Seconds of requests per round, measured on the machine named in README.md;
# a run makes seconds / ROUND_SECONDS rounds, and at least MIN_ROUNDS so that
# it holds more than 100 requests, ten or more beyond the 90th percentile.
ROUND_SECONDS = {"enumerate": 0.31, "polysort": 0.28, "decide": 0.62}
MIN_ROUNDS = {"enumerate": 12, "polysort": 7, "decide": 4}
WARMUP_REQUESTS = 8
SETUP_LAUNCHES = 11
INFO_PREFIX = "# perfbench "
# Request times are scaled by NOMINAL_NS over the median reference time of
# the requests within REFERENCE_WINDOW places (see reference.py).
REFERENCE_WINDOW = 15
TIME_UNITS = {"s", "ms", "us", "ns"}

SETUP_PREPARATION = {
    "enumerate": "",
    "polysort": "fixtures = [g.load_matrix(p) for p in sorted(glob.glob('perfbench/fixtures/*.txt'))]\n"
                "orders = [getattr(g, n)(g.LT) for n in ORDERS] + [g.weighted_relation(w, g.LT) for w in fixtures]\n",
}
SETUP_PREPARATION["decide"] = SETUP_PREPARATION["polysort"]
SETUP_CODE = """\
import glob, sys
sys.path.insert(0, {src!r})
import gradedorders.cli
import gradedorders as g
ORDERS = ('lex', 'colex', 'symlex', 'revlex', 'grlex', 'grcolex', 'grsymlex', 'grevlex')
{preparation}"""


def machine():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def import_package():
    """Import gradedorders from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import gradedorders

    if Path(gradedorders.__file__).resolve().parent != (SRC / "gradedorders").resolve():
        sys.exit(f"perfbench: imported gradedorders from {gradedorders.__file__}, not from {SRC}")
    return gradedorders


def speed_factors(references):
    """Per sample, NOMINAL_NS over the median reference time around it."""
    return [NOMINAL_NS / statistics.median(references[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1])
            for i in range(len(references))]


def launch_seconds(code):
    """Wall time of a fresh interpreter that runs code."""
    start = perf_counter_ns()
    child = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT)
    # A blocking wait: Popen.wait(timeout) polls with sleeps of up to 50 ms,
    # which would round the launch time up to that step.
    watchdog = threading.Timer(60, child.kill)
    watchdog.start()
    try:
        returncode = child.wait()
    finally:
        watchdog.cancel()
        watchdog.join()
    if returncode != 0:
        sys.exit(f"perfbench: set-up launch exited {returncode}")
    return (perf_counter_ns() - start) / 1e9


def replay(workload, seed, seconds, tracer):
    """Run the workload's requests.  Return the outcomes, each (kind,
    Outcome, reference time just before the request), the runner, and the
    set-up launch times: untraced runs make SETUP_LAUNCHES of them, spread
    over the run so that their median does not hang on one moment."""
    lib = import_package()
    if tracer is not None:
        tracer.install(lib)
    import gradedorders.cli

    from workloads import Runner

    runner = Runner(lib, gradedorders.cli.main, tracer)
    make = WORKLOADS[workload]
    for request in make("warmup", 1)[:WARMUP_REQUESTS]:
        runner.run(request)
    if tracer is not None:
        tracer.reset()
    runner.cli_requests = 0
    rounds = max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))
    requests = make(seed, rounds)
    setup_code = SETUP_CODE.format(src=str(SRC), preparation=SETUP_PREPARATION[workload])
    launches = SETUP_LAUNCHES if tracer is None else 0
    every = len(requests) // SETUP_LAUNCHES
    if launches:
        launch_seconds(setup_code)  # warms the file and bytecode caches
    setup, outcomes = [], []
    for index, request in enumerate(requests):
        if len(setup) < launches and index % every == every // 2:
            setup.append(launch_seconds(setup_code))
        gc.collect(1)  # young generations: each request starts from the same state
        reference = reference_ns()
        if tracer is not None:
            tracer.request = index
        outcomes.append((request.kind, runner.run(request), reference))
    return outcomes, runner, setup


def summarize(outcomes):
    """(ok outcomes, their times at nominal speed in ns, errors, failures)."""
    factors = speed_factors([reference for _, _, reference in outcomes])
    ok = [(o, o.ns * f) for (_, o, _), f in zip(outcomes, factors) if not o.failed]
    errors = [f"{kind}: {o.error}" for kind, o, _ in outcomes if o.error and not o.failed]
    failures = [f"{kind}: {o.error}" for kind, o, _ in outcomes if o.failed]
    return [o for o, _ in ok], [ns for _, ns in ok], errors, failures


def latency_metrics(ok, times_ns):
    latencies_ms = sorted(ns / 1e6 for ns in times_ns)
    return {
        "items_per_s": (sum(o.items for o in ok) / sum(times_ns) * 1e9, "1/s"),
        "req_p50_ms": (statistics.median(latencies_ms), "ms"),
        "req_p90_ms": (statistics.quantiles(latencies_ms, n=10)[8], "ms"),
    }


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_one(args):
    from tracing import Tracer

    if not (SRC / "gradedorders" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gradedorders package under {SRC}; run from the root of a checkout")
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    untraced = None
    if args.trace:
        # The same requests untraced, in a fresh process, for the overhead.
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        untraced = json.loads(next(line[len(INFO_PREFIX):] for line in child.stdout.splitlines()
                                   if line.startswith(INFO_PREFIX)))
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    outcomes, runner, setup = replay(args.workload, args.seed, args.seconds, tracer)
    ok, times_ns, errors, failures = summarize(outcomes)
    request_ns = sum(times_ns)
    reference_ms = statistics.median(reference for _, _, reference in outcomes) / 1e6
    raw = {name: value for name, (value, _) in latency_metrics(ok, [o.ns for o in ok]).items()}
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            **latency_metrics(ok, times_ns),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        overhead = (request_ns / 1e9 / untraced["request_s"] - 1) * 100
        scale = NOMINAL_NS / (reference_ms * 1e6)
        metrics = {name: (value * scale if unit in TIME_UNITS else value, unit)
                   for name, (value, unit) in tracer.metrics(runner.cli_requests, overhead).items()}
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.trace.jsonl")
        errors += untraced["errors"]
    correct = not errors
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **machine(),
        "attempted": len(outcomes), "failed": len(failures), "samples": len(ok),
        "request_s": request_ns / 1e9, "wall_s": perf_counter() - start,
        "reference_ms": reference_ms, "as_measured": raw,
        "errors": errors[:5], "failures": sorted(set(failures))[:1],
    }
    for message in errors[:5] + sorted(set(failures))[:1]:
        print(f"perfbench: {message}", file=sys.stderr)
    line = result_line(correct, len(outcomes), len(failures), metrics)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as record:
        json.dump({"info": info, "result": json.loads(line)}, record, indent=1)
    print(INFO_PREFIX + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {args.workload:<10} {name:<36} {value:>14.6g} {unit}")
    print(line)


def run_all(args):
    """Each workload in its own process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {workload} exited {child.returncode}")
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": (m["value"], m["unit"]) for name, m in result["metrics"].items()})
    print(result_line(correct, attempted, failed, metrics))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
