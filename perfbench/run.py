"""Benchmark of qespectra: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ./src.  Each
measurement runs in a fresh interpreter (perfbench/worker.py) with one
BLAS/OpenMP thread.  The set-up time is taken several times, in separate
interpreters, and reported as the median.  The last line of standard output
is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones of a traced run, whose spans are written under
perfbench/out/.  See perfbench/README.md.
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
WORKLOADS = ("verify-deep", "long-chain")
# Set-up is timed in this many interpreters besides the measured one.
SETUP_PROBES = 4
# Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 150
THREAD_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def child_env():
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, deadline, extra=()):
    """Start one worker; return (its JSON summary, the time it was started)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - started),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("worker printed no summary")
    return json.loads(lines[-1]), started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "qespectra", "__init__.py")):
        print("error: run from the root of a qespectra checkout (no src/qespectra)",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, started = run_worker(args, deadline, ["--setup-only"])
            setups.append(probe["ready"] - started)
        extra = ["--trace"] if args.trace else []
        summary, started = run_worker(args, deadline, extra)
        setups.append(summary["ready"] - started)
    except subprocess.TimeoutExpired:
        print("error: the benchmark ran past its time limit", file=sys.stderr)
        return 1

    for reason in summary["unexpected"]:
        print(f"unexpected failure: {reason}", file=sys.stderr)
    for fault, reason in summary["faults"].items():
        print(f"known fault [{fault}]: {reason}", file=sys.stderr)
    # The tail must be a tail: at least ten samples beyond it, not below the median.
    if summary["tail_beyond"] < 10 or summary["op_tail_s"] < summary["op_p50_s"]:
        print(f"error: p{summary['tail_pct']} = {summary['op_tail_s']} with "
              f"{summary['tail_beyond']} samples beyond it, median {summary['op_p50_s']}",
              file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "states_per_s": {"value": summary["states"] / summary["timed_s"], "unit": "1/s"},
            "op_p50_s": {"value": summary["op_p50_s"], "unit": "s"},
            "op_tail_s": {"value": summary["op_tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {summary['rounds']} round(s), "
          f"{summary['attempted']} operations, {summary['failed']} failed, "
          f"{summary['timed_s']:.3f} s timed, tail is p{summary['tail_pct']}", file=sys.stderr)
    print(json.dumps({
        "correct": not summary["unexpected"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
