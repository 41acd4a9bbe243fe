"""One benchmark process in a fresh interpreter: set up, then run once.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace --dir D

Set-up imports finslerkit from `src/`, builds the structures and samples the
points, then prints "ready". In `setup` mode the process exits there. In
`run` mode it runs the workload once untraced; in `trace` mode it installs
the span tracer before set-up and writes the spans to D/spans.npz. Either
way it prints one JSON result line last.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def _run_sweep(cli, spec, seed: int, work_dir: str) -> dict:
    out = os.path.join(work_dir, "report.json")
    if os.path.exists(out):
        os.remove(out)
    argv = ["verify", "--metric", spec.metric, "--checks", "all",
            "--points", str(spec.points), "--seed", str(seed), "--out", out]
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            exit_code = cli.main(argv)
    except Exception as exc:  # a raising verify is graded, not fatal
        exit_code, error = None, f"{type(exc).__name__}: {exc}"
    run_s = time.perf_counter() - t0
    text = None
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            text = fh.read()
    grade = oracle.grade_report(spec.metric, text, exit_code)
    if error:
        grade["failures"].append(error)
    grade.update(run_s=run_s, completed=text is not None and error is None,
                 output_sha256=hashlib.sha256((text or "").encode()).hexdigest())
    return grade


def _run_stream(frame, queries) -> dict:
    values, latencies_ns, errors = [], [], []
    clock = time.perf_counter_ns
    t0 = time.perf_counter()
    for _, F, p in queries:
        q0 = clock()
        try:
            value = frame.point_frame(F, p).scalar
        except Exception as exc:  # a raising query is graded, not fatal
            value = None
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies_ns.append(clock() - q0)
        values.append(value)
    run_s = time.perf_counter() - t0
    failures = [f"{name} at {p}: {reason}" for (name, _, p), v in zip(queries, values)
                if (reason := oracle.grade_scalar(name, v)) is not None]
    return {
        "attempted": len(queries), "failed": len(failures), "correct": True,
        "failures": failures[:20] + errors[:5], "run_s": run_s, "completed": True,
        "latencies_ms": [ns / 1e6 for ns in latencies_ns],
        "output_sha256": hashlib.sha256(repr(values).encode()).hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--dir", required=True)
    args = ap.parse_args(argv)
    spec = workloads.WORKLOADS[args.workload]

    import numpy
    from finslerkit import cli, frame, structures

    tracer = None
    if args.mode == "trace":
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer)
    if isinstance(spec, workloads.Sweep):
        structures.by_name(spec.metric).sample(spec.points, args.seed)
    else:
        queries = workloads.tower_queries(structures.by_name, spec, args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    if isinstance(spec, workloads.Sweep):
        result = _run_sweep(cli, spec, args.seed, args.dir)
    else:
        result = _run_stream(frame, queries)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, oracle.CHECK_IDS)
        tracer.save(os.path.join(args.dir, "spans.npz"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
