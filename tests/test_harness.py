"""Experiment pipeline: pairing, aggregation, emission, reproducibility."""

import concurrent.futures
import csv
import dataclasses
import gc
import hashlib
import json
import random
import tracemalloc
from collections import Counter

import pytest

from degreesearch import (
    BaConfig,
    ConfigError,
    ExperimentPlan,
    ExperimentSummary,
    SearchRecord,
    VariantSpec,
    emit_csv,
    emit_histogram,
    experiment,
    generate_ba,
    run_experiment,
    sample_pairs,
    save_edge_list,
)

from helpers import CANONICAL_VARIANTS, reference_records, summarize_csv_rows

HEADER = (
    "round,pair_index,s,t,variant,outcome,walk_steps,"
    "route_length,refined_length,consults,oracle_distance"
)


def small_plan(**overrides):
    base = dict(
        topology=BaConfig(n=80, m_attach=2, seed_size=3, rng_seed=5),
        variants=(
            VariantSpec(visibility_h=1),
            VariantSpec(visibility_h=2),
            VariantSpec(visibility_h=2, consult_budget_c=2),
            VariantSpec(visibility_h=2, refine=True),
        ),
        pairs_per_round=25,
        rounds=3,
        master_seed=9,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


def read_rows(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


# --- sample_pairs ---


def test_sample_pairs_shape_and_determinism():
    g = generate_ba(BaConfig(n=40, m_attach=2, seed_size=2, rng_seed=0))
    pairs = sample_pairs(g, 200, rng_seed=3)
    assert len(pairs) == 200
    for s, t in pairs:
        assert 0 <= s < 40 and 0 <= t < 40
        assert s != t
    assert pairs == sample_pairs(g, 200, rng_seed=3)
    assert pairs != sample_pairs(g, 200, rng_seed=4)


def test_sample_pairs_rejects_tiny_graph():
    from degreesearch import build_graph

    with pytest.raises(ConfigError):
        sample_pairs(build_graph([], 1), 5, rng_seed=0)


# --- variant and plan validation ---


def test_variant_auto_labels():
    assert VariantSpec(visibility_h=1).label == "h1"
    assert VariantSpec(visibility_h=2).label == "h2"
    assert VariantSpec(visibility_h=2, consult_budget_c=3).label == "h2c3"
    assert VariantSpec(visibility_h=2, refine=True).label == "h2+refine"
    assert VariantSpec(visibility_h=3, label="mine").label == "mine"


def test_variant_validation_mirrors_search_config():
    with pytest.raises(ConfigError):
        VariantSpec(visibility_h=5)
    with pytest.raises(ConfigError):
        VariantSpec(visibility_h=1, consult_budget_c=2)


def test_plan_validation():
    with pytest.raises(ConfigError):
        small_plan(variants=())
    with pytest.raises(ConfigError):
        small_plan(variants=(VariantSpec(), VariantSpec()))
    with pytest.raises(ConfigError):
        small_plan(pairs_per_round=0)
    with pytest.raises(ConfigError):
        small_plan(rounds=0)
    with pytest.raises(ConfigError):
        small_plan(workers=0)


# --- minimal end-to-end plan ---


def test_adjacent_pair_plan():
    # On a two-node graph every pair is adjacent, so an h=1 search ends at
    # the source without a single move.
    plan = ExperimentPlan(
        topology=BaConfig(n=2, m_attach=1, seed_size=1, rng_seed=0),
        variants=(VariantSpec(visibility_h=1, refine=True),),
        pairs_per_round=1,
        rounds=1,
        master_seed=4,
    )
    result = run_experiment(plan)
    assert len(result.records) == 1
    record = result.records[0]
    assert record.outcome == "found"
    assert record.walk_steps == 0
    assert record.route_length == 1
    assert record.oracle_distance == 1
    summary = result.summaries[0]
    assert summary.total_searches == 1
    assert summary.success_rate == 1.0
    assert summary.mean_walk_steps == 0.0
    assert summary.mean_route_length == 1.0
    assert summary.mean_refined_length == 1.0
    assert summary.max_refined_length == 1
    assert summary.fraction_under_10 == 1.0
    assert summary.length_histogram == {0: 1}
    assert summary.oracle_mean_shortest_path == 1.0


# --- pairing and record layout ---


def test_variants_share_pairs_and_records_are_ordered():
    # 25 pairs fit one chunk per round.  73 leave a short chunk behind a
    # full one, and two workers' replies are assembled into records.
    chunked = small_plan(pairs_per_round=73, rounds=2, workers=2, variants=small_plan().variants[:3])
    assert chunked.pairs_per_round % experiment._CHUNK_PAIRS
    for plan in (small_plan(), chunked):
        result = run_experiment(plan)
        g = generate_ba(plan.topology)
        labels = [v.label for v in plan.variants]
        expected = []
        for rnd in range(plan.rounds):
            seed = experiment._derive_seed(plan.master_seed, experiment._STREAM_PAIRS, rnd)
            for pair, (s, t) in enumerate(sample_pairs(g, plan.pairs_per_round, seed)):
                for label in labels:
                    expected.append((rnd, pair, label, s, t))
        actual = [(r.round, r.pair_index, r.variant, r.s, r.t) for r in result.records]
        assert actual == expected


def test_pair_sets_stable_across_variant_choices():
    # Rerunning with a different variant list must not shift the pairs.
    full = run_experiment(small_plan())
    solo = run_experiment(small_plan(variants=(VariantSpec(visibility_h=3),)))
    pick = {(r.round, r.pair_index): (r.s, r.t) for r in full.records}
    for r in solo.records:
        assert pick[(r.round, r.pair_index)] == (r.s, r.t)


def test_conservation_per_variant():
    result = run_experiment(small_plan())
    for summary in result.summaries:
        assert summary.total_searches == 75
        failures = summary.total_searches - summary.successful_searches
        assert summary.successful_searches + failures == 75
        assert sum(summary.length_histogram.values()) == summary.successful_searches


# --- emission ---


def test_emit_csv_single_row(tmp_path):
    plan = ExperimentPlan(
        topology=BaConfig(n=2, m_attach=1, seed_size=1, rng_seed=0),
        variants=(VariantSpec(visibility_h=1),),
        pairs_per_round=1,
        rounds=1,
    )
    result = run_experiment(plan)
    emit_csv(result.summaries, result.records, tmp_path / "r.csv", tmp_path / "s.json")
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 2


def test_emit_csv_empty_inputs(tmp_path):
    emit_csv((), (), tmp_path / "r.csv", tmp_path / "s.json")
    assert (tmp_path / "r.csv").read_text(encoding="utf-8") == HEADER + "\n"
    assert json.loads((tmp_path / "s.json").read_text(encoding="utf-8")) == []


def test_csv_reload_reproduces_summaries(tmp_path):
    result = run_experiment(small_plan())
    emit_csv(result.summaries, result.records, tmp_path / "r.csv", tmp_path / "s.json")
    recomputed = summarize_csv_rows(read_rows(tmp_path / "r.csv"))
    stored = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    assert len(stored) == len(recomputed) == 4
    for entry in stored:
        label = entry.pop("variant")
        entry["length_histogram"] = {
            int(k): v for k, v in entry["length_histogram"].items()
        }
        assert entry == recomputed[label], label


def test_emit_none_fields_serialize_as_blank_and_null(tmp_path):
    record = SearchRecord(
        round=0,
        pair_index=0,
        s=1,
        t=2,
        variant="h1",
        outcome="step_cap_exhausted",
        walk_steps=1,
        route_length=None,
        refined_length=None,
        consults=0,
        oracle_distance=None,
    )
    summary = ExperimentSummary(
        variant="h1",
        total_searches=1,
        successful_searches=0,
        success_rate=0.0,
        mean_walk_steps=None,
        mean_route_length=None,
        mean_refined_length=None,
        max_refined_length=None,
        fraction_under_10=None,
        mean_consults=None,
        length_histogram={},
        oracle_mean_shortest_path=None,
    )
    emit_csv((summary,), (record,), tmp_path / "r.csv", tmp_path / "s.json")
    lines = (tmp_path / "r.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "0,0,1,2,h1,step_cap_exhausted,1,,,0,"
    stored = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    assert stored[0]["mean_walk_steps"] is None
    assert stored[0]["length_histogram"] == {}


def test_histogram_binning(tmp_path):
    def rec(steps, outcome="found", variant="h2"):
        return SearchRecord(
            round=0,
            pair_index=steps,
            s=0,
            t=1,
            variant=variant,
            outcome=outcome,
            walk_steps=steps,
            route_length=None,
            refined_length=None,
            consults=0,
            oracle_distance=None,
        )

    records = (rec(0), rec(0), rec(5), rec(12), rec(99, "step_cap_exhausted"))
    emit_histogram(records, 10, tmp_path / "h.csv")
    text = (tmp_path / "h.csv").read_text(encoding="utf-8")
    assert text == "variant,bin_lower_bound,count\nh2,0,3\nh2,10,1\n"

    # Variants come out in first-appearance order, not sorted; one with no
    # successful search emits no rows.
    records = (
        rec(3, variant="h3"),
        rec(1, variant="h1"),
        rec(50, "step_cap_exhausted", variant="h2"),
        rec(14, variant="h3"),
        rec(2, variant="h1"),
        rec(7, variant="h3"),
    )
    emit_histogram(records, 10, tmp_path / "h.csv")
    text = (tmp_path / "h.csv").read_text(encoding="utf-8")
    assert text == "variant,bin_lower_bound,count\nh3,0,2\nh3,10,1\nh1,0,2\n"


def test_histogram_single_bin_and_validation(tmp_path):
    def rec(i):
        return SearchRecord(
            round=0,
            pair_index=i,
            s=0,
            t=1,
            variant="h1",
            outcome="found",
            walk_steps=7,
            route_length=None,
            refined_length=None,
            consults=0,
            oracle_distance=None,
        )

    records = tuple(rec(i) for i in range(4))
    emit_histogram(records, 5, tmp_path / "h.csv")
    lines = (tmp_path / "h.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1:] == ["h1,5,4"]
    with pytest.raises(ConfigError):
        emit_histogram(records, 0, tmp_path / "h2.csv")


def test_histogram_conservation_on_real_run(tmp_path):
    result = run_experiment(small_plan(variants=(VariantSpec(visibility_h=1),)))
    emit_histogram(result.records, 4, tmp_path / "h.csv")
    counts = {}
    for row in read_rows(tmp_path / "h.csv"):
        counts[row["variant"]] = counts.get(row["variant"], 0) + int(row["count"])
    assert counts.get("h1", 0) == result.summaries[0].successful_searches


# --- reproducibility ---


def test_rerun_is_byte_identical(tmp_path):
    for tag in ("a", "b"):
        result = run_experiment(small_plan())
        emit_csv(
            result.summaries,
            result.records,
            tmp_path / f"r{tag}.csv",
            tmp_path / f"s{tag}.json",
        )
    assert (tmp_path / "ra.csv").read_bytes() == (tmp_path / "rb.csv").read_bytes()
    assert (tmp_path / "sa.json").read_bytes() == (tmp_path / "sb.json").read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    plan1 = small_plan(pairs_per_round=60, rounds=2)
    plan2 = small_plan(pairs_per_round=60, rounds=2, workers=2)
    r1 = run_experiment(plan1)
    r2 = run_experiment(plan2)
    # A named tuple equals a bare tuple, so == alone would pass plain rows.
    assert all(type(r) is SearchRecord for r in r1.records + r2.records)
    assert r1.records == r2.records
    assert r1.summaries == r2.summaries
    emit_csv(r1.summaries, r1.records, tmp_path / "w1.csv", tmp_path / "w1.json")
    emit_csv(r2.summaries, r2.records, tmp_path / "w2.csv", tmp_path / "w2.json")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


def test_pooled_records_cost_no_more_than_serial_ones():
    # Pooled records must share the parent's s, t and pair_index objects:
    # records carrying unpickled copies of them retain about 302 B each,
    # against about 185 B for dataclass records and 153 B for named tuples.
    plan = small_plan(
        topology=BaConfig(n=2000, m_attach=3, seed_size=3, rng_seed=0),
        variants=CANONICAL_VARIANTS,
        pairs_per_round=300,
        rounds=2,
    )
    # The first pool in a process imports its modules; keep that out of the count.
    run_experiment(small_plan(pairs_per_round=100, rounds=1, workers=2))

    def bytes_per_record(workers):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            records = run_experiment(dataclasses.replace(plan, workers=workers)).records
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(records) == 4200
        return retained / len(records)

    serial, pooled = bytes_per_record(1), bytes_per_record(2)
    assert pooled <= 1.1 * serial, (pooled, serial)
    assert pooled < 200, pooled


def test_pool_starts_no_more_workers_than_chunks(monkeypatch):
    # An in-process stand-in for the pool: a real one forks every worker
    # up front, whether or not a chunk is left for it.  ``run_experiment``
    # imports the pool class when it needs one, so patch it at its source.
    built = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            built.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(experiment, "_WORKER_STATE", None)
    run_experiment(small_plan(pairs_per_round=25, rounds=1, workers=8))
    assert built == []
    plan = small_plan(pairs_per_round=50, rounds=3, workers=8)
    records = run_experiment(plan).records
    assert built == [3]
    assert all(type(r) is SearchRecord for r in records)
    assert records == run_experiment(dataclasses.replace(plan, workers=1)).records


def test_walk_layers_are_called_by_module_level_name(monkeypatch):
    # perfbench attributes time to each layer by wrapping these names in
    # ``experiment``; a walk that bypassed them would go unmeasured.
    calls = Counter()

    def count(name):
        inner = getattr(experiment, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)

    for name in ("pair_distance", "run_search", "materialize_route", "refine_route"):
        count(name)
    plan = small_plan(workers=1)
    records = run_experiment(plan).records
    pairs = plan.pairs_per_round * plan.rounds
    found = [r for r in records if r.outcome == "found"]
    refine_labels = {v.label for v in plan.variants if v.refine}
    refined = [r for r in found if r.variant in refine_labels]
    assert refined
    assert calls == {
        "pair_distance": pairs,
        "run_search": pairs * len(plan.variants),
        "materialize_route": len(found),
        "refine_route": len(refined),
    }


def test_route_layers_build_no_neighbor_sets():
    # The walk builds none (test_searches_build_views_only_where_they_look
    # in test_search); h2 tails and refinement bisect sorted adjacency
    # rows, so a chunk of h2 searches leaves the whole cache unbuilt.
    g = generate_ba(BaConfig(n=2_000, m_attach=3, rng_seed=0))
    variants = tuple(
        VariantSpec(visibility_h=2, consult_budget_c=c, refine=refine)
        for refine in (False, True)
        for c in (0, 5)
    )
    pairs = sample_pairs(g, 200, 0)
    results = experiment._run_chunk(g, variants, 0, 0, 0, pairs)
    assert g.neighbor_sets == [None] * g.node_count
    # (outcome, walk_steps, route_length, refined_length, consults, oracle)
    refined = [(r[2], r[3]) for r in results if r[3] is not None]
    assert len(refined) > 200 and any(b < a for a, b in refined)


def test_topology_file_is_loaded_by_module_level_name(tmp_path, monkeypatch):
    # perfbench marks the end of set-up, and times the load, by wrapping
    # ``experiment.load_edge_list``, and takes the graph from the first
    # item of its result.
    path = tmp_path / "g.txt"
    save_edge_list(generate_ba(BaConfig(n=80, m_attach=2, rng_seed=5)), path)
    loads, searched = [], set()
    load, search = experiment.load_edge_list, experiment.run_search

    def spy_load(*args, **kwargs):
        loads.append(load(*args, **kwargs))
        return loads[-1]

    def spy_search(g, *args):
        searched.add(id(g))
        return search(g, *args)

    monkeypatch.setattr(experiment, "load_edge_list", spy_load)
    monkeypatch.setattr(experiment, "run_search", spy_search)
    run_experiment(small_plan(topology=path, workers=1))
    assert len(loads) == 1
    assert type(loads[0]) is tuple
    assert searched == {id(loads[0][0])}


def test_per_pair_seed_prefix_matches_the_full_fold():
    rng = random.Random(21)
    masters = [0, 1, -1, 2**63 - 1, -(2**63), 2**64 - 1, 2**64 + 7, -(2**70)]
    masters += [rng.getrandbits(64) - 2**63 for _ in range(40)]
    for master in masters:
        for stream in (1, 2):
            r, p = rng.randrange(100), rng.randrange(10**6)
            prefix = experiment._derive_seed(master, stream, r, p)
            for vi in range(9):
                full = experiment._derive_seed(master, stream, r, p, vi)
                assert experiment._mix64(prefix ^ vi) == full


def test_master_seed_changes_pairs():
    a = run_experiment(small_plan(variants=(VariantSpec(visibility_h=1),)))
    b = run_experiment(
        small_plan(variants=(VariantSpec(visibility_h=1),), master_seed=10)
    )
    assert [(r.s, r.t) for r in a.records] != [(r.s, r.t) for r in b.records]


def test_step_cap_failures_recorded(tmp_path):
    plan = small_plan(
        variants=(VariantSpec(visibility_h=1, step_cap=1, label="capped"),)
    )
    result = run_experiment(plan)
    outcomes = {r.outcome for r in result.records}
    assert "step_cap_exhausted" in outcomes
    for r in result.records:
        assert r.walk_steps <= 1
        if r.outcome != "found":
            assert r.route_length is None and r.refined_length is None


# --- pinned output bytes ---

# sha256 of each output file of a small seven-variant plan (the canonical
# variants on BA n=2000, m=3), so any change to the bytes a run emits shows
# up here.  The plan reaches route tails of 1, 2 and 3 hops and
# consultation-found tails.
PINNED_DIGESTS = {
    "searches.csv": "e0eb9645d60022704af709f3521deb841e294f5628ed77ceed0f115805cac0e5",
    "summary.json": "05bcc537ae0a55c6bf0c78250eab95625684cc42f17e4cc85169a5fb768f1299",
    "histogram.csv": "7a04fa14c9776903ff765ebe27c3d556a798bde57cc9b5bcc587238b2c0497a0",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_canonical_variants_output_bytes_pinned(tmp_path, workers):
    plan = ExperimentPlan(
        topology=BaConfig(n=2000, m_attach=3, seed_size=3, rng_seed=0),
        variants=CANONICAL_VARIANTS,
        pairs_per_round=100,
        rounds=2,
        master_seed=0,
        workers=workers,
    )
    result = run_experiment(plan)
    emit_csv(result.summaries, result.records, tmp_path / "searches.csv", tmp_path / "summary.json")
    emit_histogram(result.records, 10, tmp_path / "histogram.csv")
    for name, digest in PINNED_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# --- records against the plain definitions ---

# The canonical variants plus h3 with refinement and tight movement caps.
REFERENCE_VARIANTS = CANONICAL_VARIANTS + (
    VariantSpec(visibility_h=3, refine=True),
    VariantSpec(visibility_h=2, consult_budget_c=1, step_cap=10, refine=True, label="h2c1cap10"),
    VariantSpec(visibility_h=1, step_cap=3, label="h1cap3"),
)


def write_three_components(path):
    # The giant component has numeric labels and another string ones, so
    # the file orders its labels by string and the giant by number.
    lines = []
    for n, m, label in ((300, 2, "{}"), (40, 1, "x{}"), (12, 3, "{}000")):
        g = generate_ba(BaConfig(n=n, m_attach=m, seed_size=3, rng_seed=n))
        for u in range(n):
            for v in g.adjacency[u]:
                if u < v:
                    lines.append(f"{label.format(u + 7)} {label.format(v + 7)}\n")
    random.Random(1).shuffle(lines)
    path.write_text("".join(lines), encoding="utf-8")


def test_records_match_the_reference_harness(tmp_path):
    graph_file = tmp_path / "three.txt"
    write_three_components(graph_file)
    topologies = [
        BaConfig(n=n, m_attach=m, rng_seed=m)
        for n, m in ((200, 1), (300, 2), (250, 3), (200, 4))
    ]
    # reference_generate_ba takes the seed clique from the config it is
    # given, so the default the configs carry is checked here.
    assert [cfg.seed_size for cfg in topologies] == [3, 3, 3, 4]
    for topology in [*topologies, str(graph_file)]:
        plan = ExperimentPlan(
            topology=topology,
            variants=REFERENCE_VARIANTS,
            pairs_per_round=60,
            rounds=2,
            master_seed=3,
        )
        expected = reference_records(plan)
        for workers in (1, 2):
            got = run_experiment(dataclasses.replace(plan, workers=workers)).records
            assert len(got) == len(expected)
            for record, reference in zip(got, expected):
                assert record == reference, workers
