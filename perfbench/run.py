"""Benchmark of the crosscap3 checker: end-to-end and per-layer metrics per workload.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py                    # all four workloads, untraced

Each pass runs the workload's fixed job list in a fresh single-threaded
child (``workloads.py``).  Passes run one after another until ``--seconds``
is used up, and at least ``MIN_PASSES`` of them.  The run reports the median
over its passes of every end-to-end metric named in ``BENCHMARK.json``; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics instead, plus the tracing overhead.  Every job's output is
checked; the last stdout line is one JSON object (correct, attempted, failed,
metrics), and the exit code is 1 when any job failed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3  # set-up time is a median over at least this many fresh processes
TIME_LIMIT_S = 170.0  # a run must end within 180 s
# One thread per process: the machine has two cores and the parent waits.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"python": platform.python_version(), "numpy": numpy_version, "nproc": os.cpu_count(), "cpu": cpu}


def run_pass(spec: dict, trace: bool, timeout: float) -> dict:
    """Run one pass in a fresh child; return its record or ``{"error": ...}``."""
    spec = {**spec, "trace": trace}
    started = time.perf_counter()
    cmd = [sys.executable, str(HERE / "workloads.py"), repr(time.time()), json.dumps(spec)]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=timeout, env={**os.environ, **THREAD_ENV}, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s", "traced": trace}
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"pass exited {proc.returncode}: {tail}", "traced": trace}
    record = json.loads(lines[-1])
    record["traced"] = trace
    record["elapsed_s"] = time.perf_counter() - started
    return record


def failed_jobs(spec: dict, passes: list[dict]) -> tuple[int, int, list[dict]]:
    """(attempted, failed, witnesses) over all passes of one run.

    A job fails when any output check fails, when it raises, when its pass
    crashes, or when its artifact differs from the same job's artifact in
    an earlier pass of the run.
    """
    jobs = workloads.job_count(spec)
    attempted = failed = 0
    witnesses = []
    first_digest: dict = {}
    for i, rec in enumerate(passes):
        attempted += jobs
        if "error" in rec:
            failed += jobs
            witnesses.append({"pass": i, "job": "*", "check": rec["error"]})
            continue
        found = [{"pass": i, **f} for f in rec["failures"]]
        for job, digest in rec["digests"].items():
            if first_digest.setdefault(job, digest) != digest:
                found.append({"pass": i, "job": job, "check": "artifact_differs_between_passes"})
        failed += len({f["job"] for f in found})
        witnesses += found
    return attempted, failed, witnesses


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict | None = None) -> dict:
    """Run passes of one workload for ``seconds`` and aggregate them."""
    spec = spec or workloads.jobs_for(workload, seed)
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = TIME_LIMIT_S - (time.perf_counter() - start)
        passes.append(run_pass(spec, traced, remaining))
        if "error" in passes[-1]:
            break
        now = time.perf_counter()
        longest = max(p["elapsed_s"] for p in passes)
        if len(passes) >= (2 if trace else MIN_PASSES) and now + longest > start + seconds:
            break
        if now + longest > start + TIME_LIMIT_S:
            break
    attempted, failed, witnesses = failed_jobs(spec, passes)
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    if trace:
        traced = [p for p in good if p["traced"]]
        values = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]} if traced else {}
        if traced and plain:
            values["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
            values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(p["wall_s"] for p in plain)
    else:
        values = {name: statistics.median(p[name] for p in plain) for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")} if plain else {}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "witnesses": witnesses,
        "passes": passes,
    }


def report(result: dict, declared: list[dict], env: dict) -> dict:
    """Print the run's metrics for a reader; return the one-line JSON result."""
    n_pass = len(result["passes"])
    print(
        f"# crosscap3 benchmark: workload={result['workload']} seed={result['seed']} "
        f"trace={int(result['trace'])} passes={n_pass} | python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}, cpu {env['cpu']}"
    )
    metrics = {}
    for m in declared:
        if m["name"] in result["values"]:
            value = result["values"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']:40s} {value:14.6g} {m['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{'fail_frac':40s} {fail_frac:14.6g} ratio ({result['failed']} of {result['attempted']} jobs)")
    for w in result["witnesses"][:20]:
        print(f"FAIL workload={result['workload']} pass={w['pass']} job={w['job']} check={w['check']}", file=sys.stderr)
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "crosscap3" / "__init__.py").is_file():
        print(f"error: no crosscap3 sources at {workloads.SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    declared = bench["per_layer" if args.trace else "end_to_end"]
    env = environment()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        result = measure(name, args.seed, seconds, bool(args.trace))
        line = report(result, declared, env)
        missing = [m["name"] for m in declared if m["name"] not in line["metrics"]]
        if missing and result["correct"]:
            print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
            line["correct"] = False
        workloads.OUT.mkdir(exist_ok=True)
        out = workloads.OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps({**result, "env": env}, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(line))
        all_correct = all_correct and line["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
