"""Workload definitions, their seeded inputs, and the metric tables.

Each workload is a closed loop with one client: a single process and a
single thread that issues its next operation only after the previous one
returned. The seed is the only input the benchmark chooses; the program
receives the generated points (or, for a sweep, the seed it samples from).
"""

from __future__ import annotations

from dataclasses import dataclass

from oracle import CHECK_IDS


@dataclass(frozen=True)
class Sweep:
    """`finsler verify --metric <metric> --checks all --points <points>`."""

    metric: str
    points: int


@dataclass(frozen=True)
class TowerStream:
    """Independent `point_frame(F, p).scalar` queries, cycling through `metrics`."""

    metrics: tuple
    per_metric: int

    @property
    def points(self) -> int:
        return len(self.metrics) * self.per_metric


CATALOG = ("euclidean2", "euclidean3", "minkowski_quartic2", "minkowski_quartic3",
           "sphere2", "randers_sphere2", "conformal_quartic2")

WORKLOADS = {
    "sweep_sphere2_1000": Sweep("sphere2", 1000),
    "eval_tower": TowerStream(CATALOG, 300),
}


def tower_queries(by_name, spec: TowerStream, seed: int) -> list:
    """(metric name, structure, point) triples; metrics interleave so each
    query is independent of the one before it and every point is distinct."""
    per_metric = []
    for name in spec.metrics:
        F = by_name(name)
        per_metric.append([(name, F, p) for p in F.sample(spec.per_metric, seed)])
    return [q for group in zip(*per_metric) for q in group]


END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# PointFrame rungs in tower order; a rung's metric drops the leading "_".
RUNGS = ("L_jet", "g_jets", "ginv_jets", "G_jets", "N_jets", "_dg_jets",
         "F_jets", "Rhat", "hcurv", "scalar")
# Orders of jet products reported; no order-0 product occurs on any workload.
MUL_ORDERS = (1, 2, 3, 4)
# Modules reported as "<module>.calls" and "<module>.self_s".
CALL_LAYERS = ("picalc", "fields", "connections", "curvature")


def _per_layer() -> dict:
    units = {"jets.created": "count", "jets.mul.calls": "count",
             "jets.add.calls": "count", "jets.partial_jet.calls": "count",
             "jets.jet_eval.calls": "count"}
    for k in MUL_ORDERS:
        units[f"jets.mul.o{k}.calls"] = "count"
    for k in MUL_ORDERS:
        units[f"jets.mul.o{k}.us"] = "us"
    units["jets.self_s"] = "s"
    for rung in RUNGS:
        units[f"frame.{rung.lstrip('_')}.us"] = "us"
    units.update({
        "frame.frames_built": "count", "frame.point_frame.calls": "count",
        "frame.cache.hit_ratio": "ratio", "frame.cache.rebuilds": "count",
        "frame.self_s": "s", "frame.field_jet.calls": "count",
        "frame.field_jet.hit_ratio": "ratio",
    })
    for cid in CHECK_IDS:
        units[f"checks.{cid}.s"] = "s"
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update({"chart.sample.s": "s", "structures.build.s": "s",
                  "cli.report.s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count"})
    return units


PER_LAYER = _per_layer()
