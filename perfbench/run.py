"""finslerkit benchmark: one named workload, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition runs in a fresh interpreter (`worker.py`), because every
`finsler verify` or `finsler eval` user pays cold module caches and an empty
point-frame cache. With `--trace 0` the run repeats the workload until
`--seconds` are used and reports the end-to-end metrics over all of them. With
`--trace 1` it runs the workload once untraced and once traced and reports
the per-layer metrics. The last line of standard output is the JSON result;
the lines before it give the machine and code facts and a summary. A fuller
record, and the spans of a traced run, go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0
# A single-process, single-thread client: no BLAS or OpenMP thread pools.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, work_dir: str) -> dict:
    """Run one worker process; return its result with the set-up time seen
    from here, from process start to the worker's "ready" line."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--dir", work_dir]
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(work_dir, f"{mode}.stderr"), "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                cwd=ROOT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise ChildFailed(f"{mode} worker exited with {code}; see {err.name}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def end_to_end(spec, reps, setup_samples) -> dict:
    """Set-up and memory are medians over processes. The timed phases of all
    completed repetitions are measured as one piece of work: on a shared
    host whose speed flips between fast and slow spells lasting several
    repetitions, a median of a few repetitions jumps between the two speeds,
    while the total follows the share of time spent in each."""
    timed = [r for r in reps if r["completed"]] or reps
    seconds = sum(r["run_s"] for r in timed)
    return {
        "setup_s": statistics.median(setup_samples),
        "run_s": seconds / len(timed),
        "points_per_s": spec.points * len(timed) / seconds,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def reference_loop_s() -> float:
    """Wall time of a fixed pure-Python loop. It reads the machine's speed at
    that moment, which shows host contention the load average cannot see."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True)
        commit = proc.stdout.strip() or None
    src_lines = 0
    for base, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_commit": commit, "src_lines": src_lines}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "finslerkit", "__init__.py")):
        print("error: src/finslerkit not found; run from a finslerkit checkout",
              file=sys.stderr)
        return 2
    spec = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".perfbench_out",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "facts": facts(), "loadavg_before": os.getloadavg(),
              "reference_loop_s_before": reference_loop_s()}

    try:
        if args.trace:
            reps = [spawn(args.workload, args.seed, "run", work_dir),
                    spawn(args.workload, args.seed, "trace", work_dir)]
        else:
            reps = []
            t0 = time.perf_counter()
            while True:
                reps.append(spawn(args.workload, args.seed, "run", work_dir))
                elapsed = time.perf_counter() - t0
                if elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                    break
            setup_samples = [r["setup_s"] for r in reps]
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(
                    spawn(args.workload, args.seed, "setup", work_dir)["setup_s"])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = os.getloadavg()
    record["reference_loop_s_after"] = reference_loop_s()
    record["facts"]["numpy"] = reps[0]["numpy"]

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    correct = all(r["correct"] for r in reps)
    failures = sorted({f for r in reps for f in r["failures"]})
    summary = {"reps": len(reps), "attempted": attempted, "failed": failed,
               "failed_ratio": {"value": failed / attempted, "unit": "ratio"}}
    if args.trace:
        untraced, traced = reps
        # tracing must not change what the program computes
        correct = correct and untraced["output_sha256"] == traced["output_sha256"]
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["run_s"] - untraced["run_s"]
        units = workloads.PER_LAYER
        summary["spans_file"] = os.path.join(work_dir, "spans.npz")
    else:
        values = end_to_end(spec, reps, setup_samples)
        units = workloads.END_TO_END
        summary["setup_samples"] = len(setup_samples)
        latencies = [x for r in reps for x in r.get("latencies_ms", ())]
        if latencies:
            cuts = statistics.quantiles(latencies, n=100, method="inclusive")
            summary.update(point_ms_p50={"value": cuts[49], "unit": "ms"},
                           point_ms_p99={"value": cuts[98], "unit": "ms"},
                           point_ms_samples=len(latencies))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record.update(summary=summary, failures=failures, metrics=metrics,
                  reps=[{k: v for k, v in r.items() if k not in ("latencies_ms", "layers")}
                        for r in reps])
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("facts " + json.dumps({k: record[k] for k in
                                 ("facts", "loadavg_before", "loadavg_after",
                                  "reference_loop_s_before", "reference_loop_s_after")}))
    print("summary " + json.dumps(summary))
    for line in failures[:10]:
        print(f"failure {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
