"""Command line interface: verify, list-checks, eval."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .chart import ChartPoint
from .checks import ANCHORS, FAIL, check_ids, run_checks
from .errors import FinslerError
from .frame import PointFrame
from .structures import by_name, structure_from_spec


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _load_metric(arg: str):
    if arg.endswith(".json") or os.path.sep in arg or os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        return structure_from_spec(spec)
    return by_name(arg)


def _canonical_detail(value):
    if isinstance(value, int):  # a bool too
        return value
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _result_record(res) -> dict:
    rec = {
        "id": res.check_id,
        "anchor": res.anchor,
        "n_points": int(res.n_points),
        "max_residual": _fmt(res.max_residual),
        "threshold": _fmt(res.threshold),
        "verdict": res.verdict,
        "witness": None,
        "details": {k: _canonical_detail(v) for k, v in sorted(res.details.items())},
    }
    if res.witness is not None:
        rec["witness"] = {
            "x": [_fmt(v) for v in res.witness["x"]],
            "y": [_fmt(v) for v in res.witness["y"]],
            "value": _fmt(res.witness["value"]),
        }
    return rec


def cmd_verify(args) -> int:
    if args.points < 1:
        raise ValueError("--points must be at least 1")
    if not (0.0 < args.tol < args.floor):
        raise ValueError("require 0 < tol < floor")
    metric = _load_metric(args.metric)
    if args.checks.strip() == "all":
        ids = check_ids()
    else:
        ids = sorted({c.strip() for c in args.checks.split(",") if c.strip()})
        if not ids:
            raise ValueError("--checks names no check id")
        unknown = [c for c in ids if c not in ANCHORS]
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    results = run_checks(metric, ids, args.points, args.seed, args.tol, args.floor)
    report = {
        "tool_version": __version__,
        "config": {
            "metric": args.metric,
            "metric_name": metric.name,
            "checks": ids,
            "points": int(args.points),
            "seed": int(args.seed),
            "tol": _fmt(args.tol),
            "floor": _fmt(args.floor),
        },
        "checks": [_result_record(r) for r in results],
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    failed = [r for r in results if r.verdict == FAIL]
    for r in results:
        line = f"{r.check_id:24s} {r.verdict:12s} max_residual={_fmt(r.max_residual)}"
        print(line, file=sys.stderr)
    return 1 if failed else 0


def cmd_list_checks(args) -> int:
    width = max(len(c) for c in check_ids())
    for cid in check_ids():
        print(f"{cid:<{width}}  {ANCHORS[cid]}")
    return 0


def _parse_at(text: str, n: int) -> ChartPoint:
    parts = dict()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, _, rest = chunk.partition("=")
        key = key.strip()
        if key in parts:
            raise ValueError(f"--at gives {key!r} twice")
        values = rest.split(",")
        if not all(v.strip() for v in values):
            raise ValueError(f"--at gives an empty component of {key!r}")
        parts[key] = [float(v) for v in values]
        if not np.isfinite(parts[key]).all():
            raise ValueError(f"--at gives a non-finite component of {key!r}")
    if set(parts) != {"x", "y"}:
        raise ValueError('--at must look like "x=0.1,0.2;y=1.0,0.5"')
    if len(parts["x"]) != n or len(parts["y"]) != n:
        raise ValueError(f"--at needs {n} components for x and for y")
    return ChartPoint(tuple(parts["x"]), tuple(parts["y"]))


# --object name -> its value over a frame's points; the keys are the choices
_EVAL_OBJECTS = {
    "g": lambda fr: fr.g,
    "C": lambda fr: fr.C3,
    "G": lambda fr: fr.G,
    "N": lambda fr: fr.N,
    "F": lambda fr: fr.F,
    "R": lambda fr: fr.hcurv,
    "Ric": lambda fr: fr.ricci,
    "Sc": lambda fr: fr.scalar,
}


def cmd_eval(args) -> int:
    metric = _load_metric(args.metric)
    p = _parse_at(args.at, metric.n)
    obj = args.object
    value = np.asarray(_EVAL_OBJECTS[obj](PointFrame(metric, (p,)))[0])
    print(f"{metric.name} at x={list(p.x)} y={list(p.y)}: {obj} =")
    if value.ndim == 0:
        print(_fmt(value))
    else:
        print(np.array2string(value, precision=12, suppress_small=False))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsler",
        description="Numerical verification of Finsler-geometric identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run checks on a metric and emit a JSON report")
    pv.add_argument("--metric", required=True,
                    help="catalog name or path to a JSON metric spec")
    pv.add_argument("--checks", default="all",
                    help='comma-separated check ids, or "all"')
    pv.add_argument("--points", type=int, default=20)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tol", type=float, default=1e-7)
    pv.add_argument("--floor", type=float, default=1e-3)
    pv.add_argument("--out", default=None, help="write the JSON report here")
    pv.set_defaults(fn=cmd_verify)

    pl = sub.add_parser("list-checks", help="print the check registry")
    pl.set_defaults(fn=cmd_list_checks)

    pe = sub.add_parser("eval", help="print one geometric object at one point")
    pe.add_argument("--metric", required=True)
    pe.add_argument("--at", required=True, help='point, e.g. "x=0.1,0.2;y=1.0,0.5"')
    pe.add_argument("--object", required=True, choices=_EVAL_OBJECTS)
    pe.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FinslerError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
