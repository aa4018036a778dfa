"""One benchmark process: set up a workload, time its operations, check them.

Started by ``run.py``; not meant to be run by hand.  It writes JSON lines to
standard output: ``{"ready": true}`` once the inputs are built (``run.py``
times set-up up to that line), then one line with the run's results.

With ``--trace 1`` it first times the operations untraced, then installs
the tracer and repeats the same operations, so the tracing overhead is the
difference between the two medians.
"""

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "out"

# The package under test is this checkout's source tree, never an install.
sys.path.insert(0, str(ROOT / "src"))
import leobeam  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_op(workload, seed, i, ref, tracer=None):
    """Operation ``i`` of the run, timed; its outputs are checked afterwards."""
    v = (seed + i) % workloads.POOL
    span = tracer.op_span(i) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with span:
        try:
            result = workload.op(v)
        except Exception:  # the run goes on; the failure is counted
            traceback.print_exc()
            result = None
    seconds = time.perf_counter() - t0
    if result is None:
        out = workloads.Outcome()
        out.add_call(workloads.FAILED)
        return seconds, out
    return seconds, workload.check(v, result, ref)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(leobeam.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"leobeam imported from {leobeam.__file__}, not from this checkout")
    workload = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}") if args.trace else None
    if tracer:
        tracer.install()
    workload.setup()
    if tracer:
        tracer.uninstall()
    emit({"ready": True})
    if args.setup_only:
        return

    ref = workloads.load_reference()[args.workload]
    outcome = workloads.Outcome()
    seconds = []
    start = time.perf_counter()
    while not seconds or time.perf_counter() - start < args.seconds:
        s, out = run_op(workload, args.seed, len(seconds), ref)
        seconds.append(s)
        outcome.merge(out)
    run_s = statistics.median(seconds)
    result = {
        "op_seconds": seconds,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_msamples_per_s": outcome.samples / len(seconds) / run_s / 1e6,
    }

    if tracer:
        traced = []
        tracer.install()
        try:
            for i in range(len(seconds)):
                s, out = run_op(workload, args.seed, i, ref, tracer)
                traced.append(s)
                outcome.merge(out)
        finally:
            tracer.uninstall()
        layers = tracing.layer_metrics(tracer.spans, len(seconds))
        layers["trace.overhead_s"] = statistics.median(traced) - run_s
        layers["eval_msamples_per_s"] = result["eval_msamples_per_s"]
        result["layers"] = layers
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(path)
        result["trace_file"] = str(path.relative_to(ROOT))

    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        correct=not outcome.problems,
        problems=outcome.problems[:20],
    )
    emit(result)


if __name__ == "__main__":
    main()
