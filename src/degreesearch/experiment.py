"""Monte-Carlo experiment harness.

Runs batches of searches over sampled source/target pairs, round by
round, with one or more search variants compared on *identical* pair
sets.  Every random choice derives from the plan's master seed, keyed by
round, pair and variant, so results are reproducible bit for bit no
matter how the work is scheduled.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import product
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .generate import BaConfig, generate_ba
from .graphs import Graph, pair_distance
from .refine import refine_route
from .search import SearchConfig, SearchOutcome, materialize_route, run_search
from .topology import load_edge_list

__all__ = [
    "VariantSpec",
    "ExperimentPlan",
    "SearchRecord",
    "ExperimentSummary",
    "ExperimentResult",
    "sample_pairs",
    "run_experiment",
    "emit_csv",
    "emit_histogram",
]

_MASK64 = (1 << 64) - 1
_STREAM_PAIRS = 1
_STREAM_SEARCH = 2
_CHUNK_PAIRS = 50


def _mix64(x: int) -> int:
    # splitmix64 finalizer; enough to decorrelate structured seed tuples.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _derive_seed(*parts: int) -> int:
    acc = 0
    for p in parts:
        acc = _mix64(acc ^ (p & _MASK64))
    return acc


@dataclass(frozen=True)
class VariantSpec:
    """One search configuration under comparison.

    The per-search RNG seed is filled in by the harness; everything else
    about the search comes from here.  ``label`` defaults to a compact
    name like ``h2c5`` or ``h2+refine``.
    """

    visibility_h: int = 2
    consult_budget_c: int = 0
    refine: bool = False
    step_cap: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        # Validate h/c/cap combinations early, not at search time.
        SearchConfig(self.visibility_h, self.consult_budget_c, self.step_cap, 0)
        if not self.label:
            label = f"h{self.visibility_h}"
            if self.consult_budget_c:
                label += f"c{self.consult_budget_c}"
            if self.refine:
                label += "+refine"
            object.__setattr__(self, "label", label)


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything needed to reproduce one experiment.

    ``topology`` is either a ``BaConfig`` to generate or a path to an
    edge-list file (loaded keeping the giant component only).
    """

    topology: BaConfig | str | Path
    variants: tuple[VariantSpec, ...]
    pairs_per_round: int = 500
    rounds: int = 10
    master_seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.variants:
            raise ConfigError("plan needs at least one variant")
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"variant labels must be unique, got {labels}")
        if self.pairs_per_round < 1:
            raise ConfigError(f"pairs_per_round must be >= 1, got {self.pairs_per_round}")
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


class SearchRecord(NamedTuple):
    """One row of raw experiment output.

    A named tuple: the record is the ``searches.csv`` row as written, its
    field order the column order.
    """

    round: int
    pair_index: int
    s: int
    t: int
    variant: str
    outcome: str
    walk_steps: int
    route_length: int | None
    refined_length: int | None
    consults: int
    oracle_distance: int | None


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregates for one variant.

    Means cover successful searches only; ``oracle_mean_shortest_path``
    averages the exact distances over the same successful pairs so the
    comparison stays matched.  Fields holding means are ``None`` when
    nothing qualified (no successes, or refinement disabled).
    """

    variant: str
    total_searches: int
    successful_searches: int
    success_rate: float
    mean_walk_steps: float | None
    mean_route_length: float | None
    mean_refined_length: float | None
    max_refined_length: int | None
    fraction_under_10: float | None
    mean_consults: float | None
    length_histogram: dict[int, int]
    oracle_mean_shortest_path: float | None


@dataclass(frozen=True)
class ExperimentResult:
    """Per-variant summaries and every search's record.

    Records come in (round, pair, variant) order, and their ``s`` and
    ``t`` are the plan's own sampled pairs.
    """

    summaries: tuple[ExperimentSummary, ...]
    records: tuple[SearchRecord, ...]


def sample_pairs(g: Graph, count: int, rng_seed: int) -> list[tuple[int, int]]:
    """Sample ordered source/target pairs uniformly, s != t.

    Pairs are drawn with replacement across the batch; identical inputs
    give identical batches.

    Raises:
        ConfigError: If the graph has fewer than two nodes.
    """
    if g.node_count < 2:
        raise ConfigError("pair sampling requires at least 2 nodes")
    rng = random.Random(rng_seed)
    n = g.node_count
    pairs: list[tuple[int, int]] = []
    for _ in range(count):
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s:
            t = rng.randrange(n)
        pairs.append((s, t))
    return pairs


def _resolve_topology(topology: BaConfig | str | Path) -> Graph:
    if isinstance(topology, BaConfig):
        return generate_ba(topology)
    graph, _ = load_edge_list(topology, take_giant_component=True)
    return graph


def _run_chunk(
    g: Graph,
    variants: tuple[VariantSpec, ...],
    master_seed: int,
    round_index: int,
    base_index: int,
    pairs: list[tuple[int, int]],
) -> list[tuple]:
    # Per search, in (pair, variant) order, the record's last six fields:
    # the caller holds the round, pairs and labels already.
    results: list[tuple] = []
    for pair_index, (s, t) in enumerate(pairs, base_index):
        oracle = pair_distance(g, s, t)
        # Each variant's seed is _derive_seed(..., pair_index, vi); fold the pair's part once.
        prefix = _derive_seed(master_seed, _STREAM_SEARCH, round_index, pair_index)
        for vi, var in enumerate(variants):
            cfg = SearchConfig(
                visibility_h=var.visibility_h,
                consult_budget_c=var.consult_budget_c,
                step_cap=var.step_cap,
                rng_seed=_mix64(prefix ^ vi),
            )
            trace = run_search(g, s, t, cfg)
            route_length: int | None = None
            refined_length: int | None = None
            if trace.outcome is SearchOutcome.FOUND:
                route = materialize_route(g, trace, t)
                route_length = route.length
                if var.refine:
                    refined_length = refine_route(g, route).refined.length
            outcome = trace.outcome.value
            results.append((outcome, trace.walk_steps, route_length, refined_length, trace.consults, oracle))
    return results


_WORKER_STATE: tuple[Graph, tuple[VariantSpec, ...], int] | None = None


def _init_worker(g: Graph, variants: tuple[VariantSpec, ...], master_seed: int) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (g, variants, master_seed)


def _run_chunk_in_worker(task: tuple[int, int, list[tuple[int, int]]]) -> list[tuple]:
    return _run_chunk(*_WORKER_STATE, *task)


def run_experiment(plan: ExperimentPlan) -> ExperimentResult:
    """Execute a plan and aggregate per-variant summaries.

    All variants are run against the same pairs in every round.  Records
    come back ordered by (round, pair, variant) regardless of the worker
    count.
    """
    g = _resolve_topology(plan.topology)
    tasks: list[tuple[int, int, list[tuple[int, int]]]] = []
    for round_index in range(plan.rounds):
        pair_seed = _derive_seed(plan.master_seed, _STREAM_PAIRS, round_index)
        pairs = sample_pairs(g, plan.pairs_per_round, pair_seed)
        for base in range(0, len(pairs), _CHUNK_PAIRS):
            tasks.append((round_index, base, pairs[base : base + _CHUNK_PAIRS]))
    labels = [v.label for v in plan.variants]
    state = (g, plan.variants, plan.master_seed)
    # The pool starts all its processes up front, so start none without work.
    workers = min(plan.workers, len(tasks))
    if workers > 1:
        # Imported here so that serial runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=state)
        replies = pool.map(_run_chunk_in_worker, tasks)
    else:
        pool = nullcontext()
        replies = (_run_chunk(*state, *task) for task in tasks)
    with pool:
        # Each chunk's records are built as it arrives, from this process's
        # own pairs and labels, walked in the chunk's (pair, variant) order.
        records = tuple(
            SearchRecord(round_index, pair_index, s, t, label, *values)
            for (round_index, base, pairs), reply in zip(tasks, replies)
            for ((pair_index, (s, t)), label), values in zip(
                product(enumerate(pairs, base), labels), reply
            )
        )
    summaries = _summarize(plan.variants, records)
    return ExperimentResult(summaries=summaries, records=records)


def _mean(values) -> float | None:
    values = list(values)
    if not values:
        return None
    return sum(values) / len(values)


def _summarize(
    variants: tuple[VariantSpec, ...], records: tuple[SearchRecord, ...]
) -> tuple[ExperimentSummary, ...]:
    grouped: dict[str, list[SearchRecord]] = {v.label: [] for v in variants}
    for record in records:
        grouped[record.variant].append(record)
    summaries = []
    for var in variants:
        rows = grouped[var.label]
        found = [r for r in rows if r.outcome == SearchOutcome.FOUND.value]
        refined = [r.refined_length for r in found if r.refined_length is not None]
        histogram = Counter(r.walk_steps for r in found)
        summaries.append(
            ExperimentSummary(
                variant=var.label,
                total_searches=len(rows),
                successful_searches=len(found),
                success_rate=len(found) / len(rows),
                mean_walk_steps=_mean(r.walk_steps for r in found),
                mean_route_length=_mean(r.route_length for r in found),
                mean_refined_length=_mean(refined),
                max_refined_length=max(refined) if refined else None,
                fraction_under_10=_mean(r.walk_steps < 10 for r in found),
                mean_consults=_mean(r.consults for r in found),
                length_histogram=dict(sorted(histogram.items())),
                oracle_mean_shortest_path=_mean(r.oracle_distance for r in found),
            )
        )
    return tuple(summaries)


def _write_csv(path, header, rows) -> None:
    # The one CSV dialect of every output; ``csv`` writes None as an empty cell.
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_csv(
    summaries: tuple[ExperimentSummary, ...],
    records: tuple[SearchRecord, ...],
    records_path,
    summary_path,
) -> None:
    """Write per-search rows as CSV and per-variant summaries as JSON.

    Output is byte-identical for identical inputs: ``SearchRecord``'s
    fields as the columns, LF newlines, empty cells for absent values.
    """
    _write_csv(records_path, SearchRecord._fields, records)
    payload = [asdict(s) for s in summaries]
    with open(summary_path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def emit_histogram(
    records: tuple[SearchRecord, ...], bin_width: int, path
) -> None:
    """Write per-variant walk-step histograms of successful searches.

    Rows are ``variant,bin_lower_bound,count`` with bins of the given
    width; counts per variant sum to its number of successful searches.
    """
    if bin_width < 1:
        raise ConfigError(f"bin_width must be >= 1, got {bin_width}")
    # Variants in order of first appearance, each with its own bins.
    bins: dict[str, Counter[int]] = {}
    for r in records:
        if r.variant not in bins:
            bins[r.variant] = Counter()
        if r.outcome == SearchOutcome.FOUND.value:
            bins[r.variant][(r.walk_steps // bin_width) * bin_width] += 1
    rows = (
        (variant, lower, count)
        for variant, per in bins.items()
        for lower, count in sorted(per.items())
    )
    _write_csv(path, ("variant", "bin_lower_bound", "count"), rows)
