"""One measured process of the benchmark; `run.py` starts it.

Imports the program, builds the workload, warms up on inputs that the timed
operations do not use, then runs a fixed number of whole rounds of
operations in a closed loop on one thread.  The number of rounds follows
from --seconds alone (``Workload.rounds``), so the operations attempted do
not depend on the speed of the machine.  Each operation is timed alone; its
output is checked after the clock stops.  The last line of standard output
is a JSON summary for `run.py`.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import warnings

# perf_counter reads CLOCK_MONOTONIC, which is shared by every process on
# the machine, so run.py can subtract its own reading from ours.
clock = time.perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _import_timed():
    """Import numpy, scipy.linalg and the program, timing each step."""
    times = {}
    start = clock()
    import numpy  # noqa: F401

    times["import.numpy_s"] = clock() - start
    start = clock()
    import scipy.linalg  # noqa: F401

    times["import.scipy_linalg_s"] = clock() - start
    start = clock()
    import qespectra
    import qespectra.cli  # noqa: F401

    times["import.qespectra_s"] = clock() - start
    source = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(qespectra.__file__).startswith(source + os.sep):
        raise SystemExit(f"qespectra was imported from {qespectra.__file__}, not from ./src")
    return times


def nearest_rank(ordered, pct):
    """The nearest-rank percentile of sorted samples and how many lie beyond it."""
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(count):
    """The highest whole percentile with at least ten of ``count`` samples beyond it."""
    return 100 * (count - 10) // count


def measure(workload, seed, rounds, tracer):
    """Run ``rounds`` whole rounds; return the tallies of the run."""
    import workloads

    tally = {
        "rounds": 0, "attempted": 0, "failed": 0, "states": 0, "timed_s": 0.0,
        "latencies": [], "unexpected": [], "faults": {},
    }
    run_op = (lambda op: tracer.span("op", op.run)) if tracer else (lambda op: op.run())
    for r in range(rounds):
        # Each round starts from an empty exact-chain cache, outside the
        # timed operations.
        workloads.clear_caches()
        groups = {}
        for op in workload.make_round(seed, r):
            t0 = clock()
            try:
                output, error = run_op(op), None
            except Exception as exc:  # the program's own failure, counted below
                output, error = None, exc
            elapsed = clock() - t0
            tally["latencies"].append(elapsed)
            tally["timed_s"] += elapsed
            tally["attempted"] += 1
            states = 0
            if error is None:
                try:
                    states = op.check(output)
                except Exception as exc:  # a wrong or malformed output
                    error = exc
            if error is not None:
                tally["failed"] += 1
                reason = f"{op.label}: {type(error).__name__}: {error}"[:300]
                if op.fault is None:
                    tally["unexpected"].append(reason)
                else:
                    tally["faults"].setdefault(op.fault, reason)
                continue
            tally["states"] += states
            if op.group is not None:
                groups.setdefault(op.group, []).append((op, output))
        for key, results in groups.items():
            try:
                workload.group_check(key, results)
            except Exception as exc:  # a wrong or malformed output
                tally["failed"] += len(results)
                tally["states"] -= len(results)
                tally["unexpected"].append(f"{key}: {exc}"[:300])
        tally["rounds"] += 1
    return tally


def trace_metrics(tracer, tally, overhead):
    """Per-layer figures of a traced run, per round of the workload."""
    import tracing

    rounds = tally["rounds"]
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for name in tracing.SPAN_NAMES:
        key = "bench.op_self_s" if name == tracing.OP_SPAN else f"{name}_s"
        out[key] = (self_s.get(name, 0.0) / rounds, "s/round")
    for name in (
        "oracle.eig_queries", "oracle.eig_values", "oracle.grid_points",
        "recurrence.exact_solution_calls", "recurrence.exact_chain_calls",
        "wavefunctions.sample_calls", "wavefunctions.points",
    ):
        out[name] = (counts[name] / rounds, "count/round")
    calls = counts["recurrence.exact_chain_calls"]
    out["recurrence.exact_chain_hit_ratio"] = (
        counts["recurrence.exact_chain_hits"] / calls if calls else 0.0, "ratio")
    layer = sum(v for k, v in self_s.items() if k != tracing.OP_SPAN)
    out["trace.layer_share"] = (layer / tally["timed_s"], "ratio")
    out["trace.spans"] = (len(tracer.spans) / rounds, "count/round")
    out["trace.states_per_s"] = (tally["states"] / tally["timed_s"], "1/s")
    out["trace.overhead_share"] = (len(tracer.spans) * overhead / tally["timed_s"], "ratio")
    return out


def write_spans(path, tracer, tally, args, layers):
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "rounds": tally["rounds"],
            "timed_s": tally["timed_s"],
            "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [
                [name, round(s - origin, 7), round(e - origin, 7), parent]
                for name, s, e, parent in tracer.spans
            ],
        }, fh, separators=(",", ":"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    imports = _import_timed()
    import tracing
    import workloads

    warnings.simplefilter("ignore")
    workload = workloads.WORKLOADS[args.workload]
    workload.warmup()
    ready = clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    tally = measure(workload, args.seed, workload.rounds(args.seconds), tracer)
    if tracer:
        tracer.uninstall()

    ordered = sorted(tally["latencies"])
    p50, _ = nearest_rank(ordered, 50)
    tail_pct = tail_percentile(len(ordered))
    tail, beyond = nearest_rank(ordered, tail_pct)
    summary = {
        "ready": ready,
        "rounds": tally["rounds"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "unexpected": tally["unexpected"][:10],
        "faults": tally["faults"],
        "states": tally["states"],
        "timed_s": tally["timed_s"],
        "op_p50_s": p50,
        "op_tail_s": tail,
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        layers = trace_metrics(tracer, tally, tracing.span_overhead())
        layers.update({k: (v, "s") for k, v in imports.items()})
        summary["per_layer"] = layers
        path = os.path.join("perfbench", "out", f"trace-{args.workload}-seed{args.seed}.json")
        write_spans(path, tracer, tally, args, layers)
        summary["spans_file"] = path
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
