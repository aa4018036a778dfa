"""leobeam benchmark: run one workload (or all four) and report its metrics.

    python3 perfbench/run.py --workload outage-desk --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

Each run starts fresh worker processes (``worker.py``) from the checkout's
``src/``: first ``SETUP_RUNS - 1`` that only build the inputs, then one
that also runs the timed loop.  ``setup_s`` is the median over all of them
of the time from process start to inputs ready.  The timed loop is a closed
loop with one caller: the next operation starts when the previous returns,
until ``--seconds`` have passed (at least one operation).  ``run_s`` is the
median seconds per operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics of the traced repeat of the same operations, and the spans are written to
``perfbench/out/`` as JSONL.  ``--workload all`` runs the four workloads one
after another, each in its own processes so that peak memory is per
workload, and prints one table.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("outage-desk", "avg-full", "mc-eval", "gamma-sweep")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # every run must end within 180 s

# One BLAS thread: a plain single-threaded run.  With OpenBLAS's default of
# one thread per core on a 2-vCPU VM, its spinning worker kept both vCPUs
# busy; hypervisor steal rose five- to tenfold and mc-eval ran about 15%
# slower, and less steadily, than on one thread.
WORKER_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

class BenchError(Exception):
    pass


def worker(args, deadline, setup_only):
    """Start one worker; return (seconds to ready, final result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=WORKER_ENV, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready_line.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    if json.loads(ready_line) != {"ready": True}:
        raise BenchError(f"unexpected worker output {ready_line!r}")
    if setup_only:
        return ready_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return ready_s, json.loads(lines[-1])


def run_workload(args, bench, deadline):
    """Set-up runs plus the measured run of one workload: (metrics, result)."""
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(worker(args, deadline, setup_only=True)[0])
    ready_s, result = worker(args, deadline, setup_only=False)
    setups.append(ready_s)
    if args.trace:
        values, listed = result["layers"], bench["per_layer"]
    else:
        values, listed = dict(result, setup_s=statistics.median(setups)), bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    result["setup_runs_s"] = setups
    return metrics, result


def report_lines(workload, metrics, result):
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"{workload}: {len(result['op_seconds'])} operations, seconds each: "
        + " ".join(f"{s:.4f}" for s in result["op_seconds"]),
        f"{workload}: fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
        f"design/evaluate calls), correct = {result['correct']}",
    ]
    if "setup_s" in metrics:
        lines.append(
            f"{workload}: set-up runs (s): "
            + " ".join(f"{s:.4f}" for s in result["setup_runs_s"])
        )
    if result["eval_msamples_per_s"]:
        lines.append(
            f"{workload}: eval_msamples_per_s = {result['eval_msamples_per_s']:.6g} Msamples/s"
        )
    for name, m in metrics.items():
        lines.append(f"{workload}: {name} = {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        lines.append(f"{workload}: check failed: {problem}")
    if "trace_file" in result:
        lines.append(f"{workload}: spans written to {result['trace_file']}")
    return lines


def machine_info():
    """Cores, CPU model, BLAS build and thread setting, numpy and Python."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(WORKER_ENV["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "leobeam" / "__init__.py", HERE / "reference.json"):
        if not needed.is_file():
            sys.exit(f"benchmark needs {needed.relative_to(ROOT)}, which is missing")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    if args.workload != "all":
        try:
            metrics, result = run_workload(args, bench, time.monotonic() + DEADLINE_S)
        except BenchError as ex:
            sys.exit(f"{args.workload}: {ex}")
        print("\n".join(report_lines(args.workload, metrics, result)))
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }))
        return

    print(f"machine: {json.dumps(machine_info())}")
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        try:
            metrics, result = run_workload(one, bench, time.monotonic() + DEADLINE_S)
        except BenchError as ex:
            sys.exit(f"{name}: {ex}")
        print("\n".join(report_lines(name, metrics, result)), flush=True)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in metrics.items():
            combined["metrics"][f"{name}.{metric}"] = m
        if result["eval_msamples_per_s"] and not args.trace:
            combined["metrics"][f"{name}.eval_msamples_per_s"] = {
                "value": result["eval_msamples_per_s"], "unit": "Msamples/s"}
        combined["metrics"][f"{name}.fail_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
