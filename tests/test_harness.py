"""Experiment pipeline: pairing, aggregation, emission, reproducibility."""

import csv
import hashlib
import json
import random

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
    generate_ba,
    run_experiment,
    sample_pairs,
)

from helpers import summarize_csv_rows

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
    result = run_experiment(small_plan())
    labels = [v.label for v in result.plan.variants]
    expected_keys = []
    for rnd in range(3):
        for pair in range(25):
            for label in labels:
                expected_keys.append((rnd, pair, label))
    actual_keys = [(r.round, r.pair_index, r.variant) for r in result.records]
    assert actual_keys == expected_keys
    by_pair = {}
    for r in result.records:
        by_pair.setdefault((r.round, r.pair_index), set()).add((r.s, r.t))
    assert all(len(ends) == 1 for ends in by_pair.values())


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
    def rec(steps, outcome="found"):
        return SearchRecord(
            round=0,
            pair_index=steps,
            s=0,
            t=1,
            variant="h2",
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
    assert r1.records == r2.records
    assert r1.summaries == r2.summaries
    emit_csv(r1.summaries, r1.records, tmp_path / "w1.csv", tmp_path / "w1.json")
    emit_csv(r2.summaries, r2.records, tmp_path / "w2.csv", tmp_path / "w2.json")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


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
        variants=(
            VariantSpec(visibility_h=1),
            VariantSpec(visibility_h=2),
            VariantSpec(visibility_h=3),
            VariantSpec(visibility_h=2, consult_budget_c=2),
            VariantSpec(visibility_h=2, consult_budget_c=3),
            VariantSpec(visibility_h=2, consult_budget_c=5),
            VariantSpec(visibility_h=2, refine=True),
        ),
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
