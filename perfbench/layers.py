"""Per-layer metrics from a traced repetition's spans.

Every metric named in ``PER_LAYER`` is reported for every workload; a
layer the workload does not run (say the h1 walk on pipeline-100k, or the
edge-list load on canonical) reports 0.
"""

from __future__ import annotations

import math
from collections import defaultdict

from workloads import METRIC_VARIANTS, metric_label

_SEARCH = (
    ("search.walk_s", "s", "lower"),
    ("search.steps", "count", "lower"),
    ("search.ns_per_step", "ns", "lower"),
    ("search.walk_p50_us", "us", "lower"),
    ("search.walk_p99_us", "us", "lower"),
    ("search.consults", "count", "lower"),
    ("search.found_frac", "ratio", "higher"),
    ("search.materialize_s", "s", "lower"),
    ("search.materialize_p99_us", "us", "lower"),
)

# (name, unit, better), in report order.
PER_LAYER = tuple(
    (f"{name}.{v}", unit, better) for name, unit, better in _SEARCH for v in METRIC_VARIANTS
) + (
    ("graphs.oracle_s", "s", "lower"),
    ("graphs.oracle_calls", "count", "lower"),
    ("graphs.oracle_p99_us", "us", "lower"),
    ("graphs.views_s", "s", "lower"),
    ("topology.load_s", "s", "lower"),
    ("topology.save_s", "s", "lower"),
    ("topology.file_mb", "MiB", "lower"),
    ("generate.s", "s", "lower"),
    ("refine.s", "s", "lower"),
    ("refine.calls", "count", "lower"),
    ("refine.shrink_ratio", "ratio", "lower"),
    ("experiment.sample_s", "s", "lower"),
    ("experiment.emit_s", "s", "lower"),
    ("experiment.self_s", "s", "lower"),
    ("experiment.worker_cpu_s", "s", "lower"),
    ("experiment.parent_cpu_s", "s", "lower"),
    ("experiment.parallel_eff", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans) -> dict[str, float]:
    """Per span name, total duration minus the time its direct children cover."""
    child = defaultdict(float)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += end - start - child[i]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """All ``PER_LAYER`` metrics except ``trace.overhead_s``."""
    dur = defaultdict(list)
    walk = defaultdict(list)
    mat = defaultdict(list)
    steps = defaultdict(int)
    consults = defaultdict(int)
    found = defaultdict(int)
    route_total = refined_total = 0
    attrs_of = defaultdict(list)
    for name, start, end, _, attrs in spans:
        dur[name].append(end - start)
        if attrs is not None:
            attrs_of[name].append(attrs)
        if name == "search.walk":
            v = metric_label(attrs["v"])
            walk[v].append(end - start)
            steps[v] += attrs["steps"]
            consults[v] += attrs["consults"]
            found[v] += attrs["found"]
        elif name == "search.materialize":
            mat[metric_label(attrs["v"])].append(end - start)
        elif name == "refine":
            route_total += attrs["route"]
            refined_total += attrs["refined"]

    m: dict[str, float] = {}
    for v in METRIC_VARIANTS:
        walk_s = sum(walk[v])
        m[f"search.walk_s.{v}"] = walk_s
        m[f"search.steps.{v}"] = steps[v]
        m[f"search.ns_per_step.{v}"] = _ratio(walk_s * 1e9, steps[v])
        m[f"search.walk_p50_us.{v}"] = percentile(walk[v], 0.50) * 1e6
        m[f"search.walk_p99_us.{v}"] = percentile(walk[v], 0.99) * 1e6
        m[f"search.consults.{v}"] = consults[v]
        m[f"search.found_frac.{v}"] = _ratio(found[v], len(walk[v]))
        m[f"search.materialize_s.{v}"] = sum(mat[v])
        m[f"search.materialize_p99_us.{v}"] = percentile(mat[v], 0.99) * 1e6

    selfs = self_times(spans)
    runs = attrs_of["experiment.run"]
    run_wall = sum(dur["experiment.run"])
    worker_cpu = sum(a["worker_cpu"] for a in runs)
    parent_cpu = sum(a["parent_cpu"] for a in runs)
    workers = max((a["workers"] for a in runs), default=1)
    m.update({
        "graphs.oracle_s": sum(dur["graphs.oracle"]),
        "graphs.oracle_calls": len(dur["graphs.oracle"]),
        "graphs.oracle_p99_us": percentile(dur["graphs.oracle"], 0.99) * 1e6,
        "graphs.views_s": sum(dur["graphs.views"]),
        "topology.load_s": sum(dur["topology.load"]),
        "topology.save_s": sum(dur["topology.save"]),
        "topology.file_mb": sum(a["bytes"] for a in attrs_of["topology.save"]) / 2**20,
        "generate.s": sum(dur["generate"]),
        "refine.s": sum(dur["refine"]),
        "refine.calls": len(dur["refine"]),
        "refine.shrink_ratio": _ratio(refined_total, route_total),
        "experiment.sample_s": sum(dur["experiment.sample"]),
        "experiment.emit_s": sum(dur["experiment.emit"]),
        "experiment.self_s": selfs["experiment.run"],
        "experiment.worker_cpu_s": worker_cpu,
        "experiment.parent_cpu_s": parent_cpu,
        # CPU busy across all processes per worker-second of the run.
        "experiment.parallel_eff": _ratio(worker_cpu + parent_cpu, workers * run_wall),
        "cli.self_s": selfs["cli.main"],
    })
    return m


def walk_totals(spans) -> tuple[dict[str, int], dict[str, int]]:
    """Walk steps and found searches per variant label, as the spans saw them."""
    steps = defaultdict(int)
    found = defaultdict(int)
    for name, _, _, _, attrs in spans:
        if name == "search.walk":
            steps[attrs["v"]] += attrs["steps"]
            found[attrs["v"]] += attrs["found"]
    return dict(steps), dict(found)
