"""Benchmark harness for desksense.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload long_recording --seed 0 --seconds 30 --trace 0

The harness trains the models the workload needs once, untimed, builds the
workload's inputs from the seed three times, timing each, then runs
operations one after another (closed loop, one client) until --seconds have
passed and at least two operations have run.  Every operation's output is
checked; a failed check counts in `failed`.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, which every
workload defines alike: set-up time, peak memory and the median wall time of
an operation.  The workload's own figures (throughput, per-command times,
accuracies) are printed above the result line as diagnostics.  --trace 1
alternates untraced and traced operations, reports every per-layer metric
from the traced ones, the tracing overhead, and writes the spans to
.perfbench_out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

THREADS = "1"   # at most nproc; one client, so BLAS/OpenMP pools only add noise
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
MIN_OPS = 2
ROOT = Path(__file__).resolve().parent.parent   # the checkout holding perfbench/
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="development seed: the inputs are made from it")
    parser.add_argument("--holdout-seed", type=int,
                        help="make the inputs from this held-out seed instead, drawn "
                             "from a stream no --seed value reaches")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args, config) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": args.holdout_seed,
        "config_seeds": config.to_dict()["seeds"],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "desksense" / "__init__.py").is_file():
        print(f"perfbench: no desksense sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "perfbench"))
    t0 = time.perf_counter()
    import workloads   # imports numpy and desksense after the thread pins
    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    stream, seed = (1, args.holdout_seed) if args.holdout_seed is not None else (0, args.seed)
    config = workloads.derive_config(seed, stream)
    work = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    # SIGTERM unwinds like an exception, so the work directory goes too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return measure(args, declared, workloads, work, config, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, declared, workloads, work, config, workdir, import_s) -> int:
    # Set-up is building the workload's inputs from the seed, repeated to
    # report its median.  The package import is reported beside it, not in
    # it: it is interpreter-bound, the same for every workload, and on a
    # shared host it swings by a third between quiet and busy periods.
    work.prepare(config, workdir)
    build_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        work.setup(config, workdir)
        build_s.append(time.perf_counter() - t0)
    setup_s = statistics.median(build_s)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()

    attempted = failed = 0
    first_output = None
    values = []                          # diagnostics of the untraced operations
    op_seconds = {False: [], True: []}   # operation wall times, by traced or not
    failures = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and attempted % 2 == 1
        attempted += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.operation():
                    per_op, payload = work.op()
            else:
                per_op, payload = work.op()
            elapsed = time.perf_counter() - t0
            output, quality = work.check(payload)
            encoded = json.dumps(output, sort_keys=True)
            if first_output is None:
                first_output, first_quality = encoded, quality
            elif encoded != first_output:
                raise workloads.GateError(
                    "output differs from the first operation's" + (" (traced)" if traced else ""))
        except Exception as exc:   # a failed operation is counted, never dropped
            failed += 1
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
        else:
            op_seconds[traced].append(elapsed)
            if not traced:
                values.append(per_op)
        done = time.perf_counter() - start >= args.seconds and attempted >= MIN_OPS
        if done and (not tracer or attempted % 2 == 0):
            break

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    metrics = {}
    diagnostics = {name: statistics.median(v[name] for v in values)
                   for name in (values[0] if values else {})}
    if first_output is not None:
        diagnostics.update(first_quality)
    if not tracer:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if op_seconds[False]:
            metrics["op_s"] = statistics.median(op_seconds[False])
    else:
        self_s, incl_s, calls = tracer.self_times()
        for m in declared["per_layer"]:
            metrics[m["name"]] = tracer.metric(m["name"], self_s, incl_s, calls)
        if op_seconds[False] and op_seconds[True]:
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(op_seconds[True]) / statistics.median(op_seconds[False]) - 1.0)
        (OUT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(tracer.dump()))

    wanted = declared["per_layer"] if tracer else declared["end_to_end"]
    correct = failed == 0 and set(metrics) == {m["name"] for m in wanted}
    env = environment(args, config)
    print(f"perfbench {args.workload}: {work.describe()}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"ops={attempted} ops_failed={failed} traced_ops={len(op_seconds[True])} "
          f"import_s={import_s:.3f} build_s={[round(s, 3) for s in build_s]}")
    for line in failures:
        print("  FAILED " + line)
    timed = op_seconds[False]
    if timed:
        print(f"  op seconds (untraced): median {statistics.median(timed):.4f} over n={len(timed)}")
    for name, value in diagnostics.items():
        print(f"  diagnostic {name} = {value:.6g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')}")
    record = {"environment": env, "attempted": attempted, "failed": failed, "failures": failures,
              "import_s": import_s, "build_s": build_s, "op_seconds": op_seconds[False], "op_values": values,
              "diagnostics": diagnostics,
              "traced_op_seconds": op_seconds[True], "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
