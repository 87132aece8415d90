"""End-to-end acceptance: full-size experiment plus always-on property suites.

The main fixture runs the complete seven-variant experiment on a 10,000
node preferential-attachment graph (500 pairs x 10 rounds).  Each
criterion below prints one pass/fail line; run with ``pytest -s`` to see
them as they complete.
"""

import csv
import os
import random
import statistics
import time

import pytest

from degreesearch import (
    BaConfig,
    ExperimentPlan,
    Route,
    SearchConfig,
    SearchOutcome,
    VariantSpec,
    bfs_distances,
    degree_stats,
    emit_csv,
    generate_ba,
    load_edge_list,
    pair_distance,
    refine_route,
    run_experiment,
    run_search,
    save_edge_list,
    shortest_path,
)

from helpers import (
    CANONICAL_VARIANTS,
    config_model,
    floyd_warshall,
    pivot_indices,
    random_graph,
    random_simple_path,
    reference_load_edge_list,
)

NODES = 10_000
M_ATTACH = 3
PAIRS = 500
ROUNDS = 10
MASTER_SEED = 0

# Reference means the full-size run is held to, within a factor of 3.
REFERENCE_WALK_STEPS = {"h1": 1004.14, "h2": 78.03, "h3": 7.64}


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {name}: {status} ({detail})")
    assert ok, f"criterion {name}: {detail}"


@pytest.fixture(scope="module")
def full_run():
    plan = ExperimentPlan(
        topology=BaConfig(n=NODES, m_attach=M_ATTACH, seed_size=3, rng_seed=0),
        variants=CANONICAL_VARIANTS,
        pairs_per_round=PAIRS,
        rounds=ROUNDS,
        master_seed=MASTER_SEED,
        workers=2,
    )
    start = time.perf_counter()
    result = run_experiment(plan)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def ba_graph():
    return generate_ba(BaConfig(n=NODES, m_attach=M_ATTACH, seed_size=3, rng_seed=0))


def by_label(result):
    return {s.variant: s for s in result.summaries}


def test_criterion_1_visibility_scaling(full_run):
    result, elapsed = full_run
    means = {k: by_label(result)[k].mean_walk_steps for k in ("h1", "h2", "h3")}
    problems = []
    if not (means["h1"] > 5 * means["h2"] and means["h2"] > 5 * means["h3"]):
        problems.append(
            "ordering h1 > 5*h2 > 5*h3 violated: "
            f"{means['h1']:.2f} / {means['h2']:.2f} / {means['h3']:.2f}"
        )
    for label, ref in REFERENCE_WALK_STEPS.items():
        lo, hi = ref / 3, ref * 3
        if not lo <= means[label] <= hi:
            problems.append(f"{label} mean {means[label]:.2f} outside [{lo:.2f}, {hi:.2f}]")
    if elapsed >= 300:
        problems.append(f"runtime {elapsed:.0f}s over 300s budget")
    detail = "; ".join(problems) if problems else (
        f"means h1={means['h1']:.1f} h2={means['h2']:.2f} h3={means['h3']:.2f}, "
        f"runtime {elapsed:.0f}s"
    )
    _report("1 (visibility scaling)", not problems, detail)


def test_criterion_2_fraction_under_10(full_run):
    result, _ = full_run
    fracs = {k: by_label(result)[k].fraction_under_10 for k in ("h1", "h2", "h3")}
    ok = (
        fracs["h1"] < fracs["h2"] < fracs["h3"]
        and fracs["h3"] >= 0.85
        and fracs["h1"] <= 0.25
    )
    _report(
        "2 (fraction under 10 hops)",
        ok,
        f"h1={fracs['h1']:.3f} h2={fracs['h2']:.3f} h3={fracs['h3']:.3f}",
    )


def test_criterion_3_consultation_interpolates(full_run):
    result, _ = full_run
    summaries = by_label(result)
    ladder = [
        summaries[k].mean_walk_steps for k in ("h2", "h2c2", "h2c3", "h2c5")
    ]
    h3 = summaries["h3"].mean_walk_steps
    between = h3 < ladder[-1] < ladder[0]
    monotone = all(a >= b for a, b in zip(ladder, ladder[1:]))
    _report(
        "3 (consultation interpolates)",
        between and monotone,
        f"c ladder {', '.join(f'{m:.2f}' for m in ladder)}; h3 mean {h3:.2f}",
    )


def test_criterion_4_refinement_near_optimal(full_run):
    result, _ = full_run
    summary = by_label(result)["h2+refine"]
    refined = [
        r.refined_length
        for r in result.records
        if r.variant == "h2+refine" and r.refined_length is not None
    ]
    share_short = sum(1 for n in refined if n <= 10) / len(refined)
    ratio = summary.mean_refined_length / summary.oracle_mean_shortest_path
    ok = ratio <= 1.3 and share_short >= 0.99
    _report(
        "4 (refinement near-optimal)",
        ok,
        f"mean refined {summary.mean_refined_length:.3f} vs oracle "
        f"{summary.oracle_mean_shortest_path:.3f} (ratio {ratio:.3f}), "
        f"{100 * share_short:.1f}% of routes <= 10 hops (max {summary.max_refined_length})",
    )


def test_criterion_5a_bfs_matches_brute_force():
    checked = 0
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(2, 65)
        g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.25]))
        matrix = floyd_warshall(g)
        for s in range(n):
            assert bfs_distances(g, s) == matrix[s]
        for _ in range(30):
            s, t = rng.randrange(n), rng.randrange(n)
            want = matrix[s][t]
            route = shortest_path(g, s, t)
            if want is None:
                assert route is None
                assert pair_distance(g, s, t) is None
            else:
                assert route.length == want
                assert pair_distance(g, s, t) == want
        checked += 1
    _report("5a (oracle vs brute force)", checked == 200, f"{checked} graphs checked")


def test_criterion_5b_refinement_properties():
    instances = 0
    for seed in range(200):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(2, 45), 0.12, ensure_connected=True)
        for _ in range(50):
            nodes = tuple(random_simple_path(rng, g))
            result = refine_route(g, Route(nodes))
            refined = result.refined.nodes
            assert refined[0] == nodes[0] and refined[-1] == nodes[-1]
            assert len(set(refined)) == len(refined)
            for a, b in zip(refined, refined[1:]):
                assert g.has_edge(a, b)
            assert result.refined.length <= result.original.length
            assert result.refined.length >= pair_distance(g, nodes[0], nodes[-1])
            if len(nodes) > 1:
                pivots = pivot_indices(result)
                assert pivots[-1] == 0
                assert all(a > b for a, b in zip(pivots, pivots[1:]))
            assert refine_route(g, result.refined).refined == result.refined
            instances += 1
    _report(
        "5b (refinement properties)", instances >= 10_000, f"{instances} instances"
    )


def test_criterion_5c_identical_plans_identical_bytes(tmp_path):
    plan = ExperimentPlan(
        topology=BaConfig(n=300, m_attach=2, seed_size=3, rng_seed=2),
        variants=(VariantSpec(visibility_h=2), VariantSpec(visibility_h=2, refine=True)),
        pairs_per_round=50,
        rounds=2,
        master_seed=6,
    )
    outputs = []
    for tag in ("x", "y"):
        result = run_experiment(plan)
        records = tmp_path / f"{tag}.csv"
        emit_csv(result.summaries, result.records, records, tmp_path / f"{tag}.json")
        outputs.append(records.read_bytes())
    _report(
        "5c (deterministic emission)",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes, identical across reruns",
    )


def test_criterion_5d_every_search_halts_within_cap(full_run):
    result, _ = full_run
    over = [r for r in result.records if r.walk_steps > NODES]
    small_ok = True
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        g = random_graph(rng, n, 0.1)
        cap = rng.randrange(1, 2 * n)
        trace = run_search(
            g,
            rng.randrange(n),
            rng.randrange(n),
            SearchConfig(visibility_h=rng.choice([1, 2, 3]), step_cap=cap, rng_seed=seed),
        )
        small_ok = small_ok and trace.walk_steps <= cap
        if trace.outcome is SearchOutcome.STEP_CAP_EXHAUSTED:
            small_ok = small_ok and trace.walk_steps == cap
    _report(
        "5d (halting within cap)",
        not over and small_ok,
        f"{len(result.records)} full-run records capped at {NODES}; 50 random caps held",
    )


def test_criterion_5e_generator_shape(ba_graph):
    g = ba_graph
    expected_edges = 3 + M_ATTACH * (NODES - 3)
    connected = all(d is not None for d in bfs_distances(g, 0))
    alpha = degree_stats(g).fitted_exponent
    ok = g.edge_count == expected_edges and connected and 2.5 <= alpha <= 3.5
    _report(
        "5e (generator shape)",
        ok,
        f"{g.edge_count} edges (want {expected_edges}), connected={connected}, "
        f"fitted exponent {alpha:.2f}",
    )


def test_criterion_5f_topology_round_trip(tmp_path):
    trips = 0
    for seed in range(100):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(2, 60), 0.1, ensure_connected=True)
        path = tmp_path / f"g{seed}.txt"
        save_edge_list(g, path)
        loaded, _ = load_edge_list(path, take_giant_component=False)
        assert loaded == g
        trips += 1
    _report("5f (save/load round-trip)", trips == 100, f"{trips} graphs round-tripped")


def test_criterion_6_real_topology_ordering():
    path = os.environ.get("DEGREESEARCH_TOPOLOGY")
    if not path:
        print(
            "criterion 6: SKIP (set DEGREESEARCH_TOPOLOGY to an edge-list file "
            "with >= 5000 nodes to run the real-topology check)"
        )
        pytest.skip("DEGREESEARCH_TOPOLOGY not set")
    g, _ = load_edge_list(path)
    assert g.node_count >= 5000, f"topology has only {g.node_count} nodes"
    _report_topology_ordering("6 (real-topology ordering)", path, g)


def test_criterion_6_twin_heavy_tailed_ordering(tmp_path):
    # Criterion 6, always on, over an erased configuration model with the
    # exponent of Adamic et al., "Search in power-law networks" (PRE 64,
    # 046135, 2001).  N = 10,000, tau = 2.1, k_min = 1 and the seed were
    # fixed before the first run.  With k_min = 1 the graph has many small
    # components, so the load takes the giant component.
    path = tmp_path / "config-model.txt"
    save_edge_list(config_model(10_000, 2.1, 1, MASTER_SEED), path)
    for flag in (False, True):
        g, id_map = load_edge_list(path, flag)
        assert (g, id_map) == reference_load_edge_list(path, flag), flag
    _report_topology_ordering("6 twin (heavy-tailed ordering)", path, g)


def test_criterion_6_twin_replicates_over_graph_seeds(tmp_path):
    # The twin passes h2 > 5 * h3 by 3.7%, and a few long h3 walks set its
    # mean.  The same plan over graph seeds 0-9, all ten, none dropped or
    # picked by result, so no single thin margin decides.  Per variant each
    # line gives the mean, the median and the mean without the largest walk.
    failed = []
    for seed in range(10):
        path = tmp_path / f"config-model-{seed}.txt"
        save_edge_list(config_model(10_000, 2.1, 1, seed), path)
        result = _run_topology_ordering(path)
        ok, means = _ordering_holds(result)
        detail = []
        for v in means:
            found = [r for r in result.records if r.variant == v and r.outcome == "found"]
            w = sorted(r.walk_steps for r in found)
            trimmed = sum(w[:-1]) / (len(w) - 1)
            detail.append(f"{v} {means[v]:.2f} / {statistics.median(w):g} / {trimmed:.2f}")
        status = "PASS" if ok else "FAIL"
        print(f"criterion 6 replicate, graph seed {seed}: {status} ({'; '.join(detail)})")
        if not ok:
            failed.append(seed)
    assert not failed, f"criterion 6 replicates fail on graph seeds {failed}"


def _run_topology_ordering(path):
    plan = ExperimentPlan(
        topology=path,
        variants=(
            VariantSpec(visibility_h=1),
            VariantSpec(visibility_h=2),
            VariantSpec(visibility_h=3),
        ),
        pairs_per_round=150,
        rounds=3,
        master_seed=MASTER_SEED,
        workers=2,
    )
    return run_experiment(plan)


def _ordering_holds(result):
    means = {s.variant: s.mean_walk_steps for s in result.summaries}
    return means["h1"] > 5 * means["h2"] and means["h2"] > 5 * means["h3"], means


def _report_topology_ordering(name, path, g):
    ok, means = _ordering_holds(_run_topology_ordering(path))
    _report(
        name,
        ok,
        f"{g.node_count} nodes; means h1={means['h1']:.1f} "
        f"h2={means['h2']:.2f} h3={means['h3']:.2f}",
    )
