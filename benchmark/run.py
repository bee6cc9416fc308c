#!/usr/bin/env python3
"""Intent-to-packet benchmark driver.

Run one workload of the benchmark that BENCHMARK.json defines, from the
root of a checkout:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds benchmark/main.exe with dune, then runs three trials, each a
fresh process with seed N + trial and S/3 seconds of timed work, and
prints the median of every metric over the trials as one JSON object on
the last line of standard output.  With --trace 0 the metrics are the
end-to-end ones.  With --trace 1 each trial runs twice on its seed,
untraced and then traced; the metrics are the per-layer ones, and
trace.overhead_ratio compares the two runs' timed wall time.  The spans
of the traced runs are written to benchmark/traces/.

Exits 1 when a correctness check fails (after printing the result),
and 2 on a usage error.

    python3 benchmark/run.py --quick --exe PATH

runs every workload at test size, untraced and traced, with the given
executable, and exits non-zero unless every result parses and every
check passes.  benchmark/dune runs it under `dune runtest`.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRIALS = 3
# seconds every trial of one invocation may take, after the build
BUDGET_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds the benchmark in the checkout; returns the executable."""
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    status = subprocess.run(
        ["dune", "build", "--root", ".", "./benchmark/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    ).returncode
    if status != 0:
        sys.exit(1)
    return os.path.join(ROOT, "_build", "default", "benchmark", "main.exe")


def trial(exe, workload, seed, seconds, quick, deadline, trace_out=None):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    for error in result["errors"]:
        print(f"{workload} seed {seed}: CHECK FAILED: {error}")
    return result


def summary(r):
    line = (f"{r['workload']} seed {r['seed']}: setup {r['setup_s']:.3f} s, "
            f"{r['ops']} ops in {r['timed_s']:.3f} s, "
            f"p50 {r['op_p50_ms']:.3f} ms, p90 {r['op_p90_ms']:.3f} ms, "
            f"{r['throughput_per_s']:.6g}/s, {r['failed']} failed")
    return " ".join([line] + [f"{k}={v:.6g}" for k, v in r["diag"].items()])


def measure(spec, exe, workload, seed, seconds, trace, quick, trials):
    deadline = time.monotonic() + BUDGET_S
    trace_dir = os.path.join(HERE, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    reported, runs, overhead = [], [], []
    for t in range(trials):
        s = seed + t
        plain = trial(exe, workload, s, seconds / trials, quick, deadline)
        runs.append(plain)
        if trace:
            path = os.path.join(trace_dir, f"{workload}-seed{s}.jsonl")
            traced = trial(exe, workload, s, seconds / trials, quick,
                           deadline, trace_out=path)
            runs.append(traced)
            reported.append(traced)
            overhead.append(traced["timed_s"] / plain["timed_s"] - 1.0)
        else:
            reported.append(plain)
        print(summary(reported[-1]))
    if trace:
        def value(name):
            if name == "trace.overhead_ratio":
                return statistics.median(overhead)
            return statistics.median(r["layers"][name] for r in reported)
        wanted = spec["per_layer"]
    else:
        def value(name):
            return statistics.median(r[name] for r in reported)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
               for m in wanted}
    return {
        "correct": all(not r["errors"] for r in runs),
        "attempted": sum(r["attempted"] for r in reported),
        "failed": sum(r["failed"] for r in reported),
        "metrics": metrics,
    }


def quick(spec, exe):
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            result = measure(spec, exe, w["name"], 1, 1.0, trace,
                             quick=True, trials=1)
            sane = all(isinstance(m["value"], (int, float))
                       and math.isfinite(m["value"])
                       for m in result["metrics"].values())
            ok = ok and sane and result["correct"] and result["failed"] == 0
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--exe")
    args = p.parse_args()
    if not args.quick and (args.workload is None or args.seconds <= 0):
        p.error("--workload and a positive --seconds are required")
    exe = os.path.abspath(args.exe) if args.exe else build()
    if args.quick:
        sys.exit(0 if quick(spec, exe) else 1)
    result = measure(spec, exe, args.workload, args.seed, args.seconds,
                     args.trace, quick=False, trials=TRIALS)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
