"""Decentralized degree-greedy search: traces, consultation, materialization."""

import random

import pytest

from degreesearch import (
    ConfigError,
    NodeIdError,
    RouteError,
    SearchConfig,
    SearchOutcome,
    WalkTrace,
    bfs_distances,
    build_graph,
    generate_ba,
    BaConfig,
    khop_contains,
    materialize_route,
    pair_distance,
    run_search,
    shortest_path,
    walk_node_list,
)

from helpers import random_graph


# Every (visibility_h, consult_budget_c) walk configuration the harness runs.
WALK_CONFIGS = ((1, 0), (2, 0), (3, 0), (2, 2), (2, 3), (2, 5))


def star5():
    return build_graph([(0, i) for i in range(1, 5)], 5)


def replay(g, s, t, cfg, trace):
    """Re-simulate a finished walk and assert every rule independently.

    The only information taken from the trace is the order in which new
    nodes were occupied (the random tie choices); everything else, the
    forward-or-deflect decision, degree maximality, deflection targets,
    the first-hit rule, every consultation and the final outcome
    condition, is recomputed from scratch with ``khop_contains``.
    """
    seq = trace.occupied_sequence
    assert seq[0] == s
    assert len(seq) == trace.walk_steps + 1
    h = cfg.visibility_h
    cap = cfg.step_cap if cfg.step_cap is not None else g.node_count
    assert trace.walk_steps <= cap
    occupied = {s}
    asked = {s}  # occupied nodes already answered for themselves
    entry = {s: None}
    forwards = deflections = consults = 0

    def consult(pos):
        # Highest degree first, ties by ID, never the same node twice, a
        # fresh budget at every arrival; stops at the first positive answer.
        nonlocal consults
        ranked = sorted(g.neighbors(pos), key=lambda w: (-g.degree(w), w))
        for w in [w for w in ranked if w not in asked][: cfg.consult_budget_c]:
            asked.add(w)
            consults += 1
            if khop_contains(g, w, t, 2):
                return w
        return None

    for pos, nxt in zip(seq, seq[1:]):
        # First-hit rule: nobody at an earlier arrival saw the target.
        assert not khop_contains(g, pos, t, h)
        assert consult(pos) is None
        fresh = [w for w in g.neighbors(pos) if w not in occupied]
        if fresh:
            assert nxt in fresh
            top = max(g.degree(w) for w in fresh)
            assert g.degree(nxt) == top
            entry[nxt] = pos
            occupied.add(nxt)
            asked.add(nxt)
            forwards += 1
        else:
            assert entry[pos] is not None
            assert nxt == entry[pos]
            deflections += 1
    pos = seq[-1]
    assert forwards == trace.forwards
    assert deflections == trace.deflections
    if trace.outcome is SearchOutcome.FOUND and trace.found_via == pos:
        assert khop_contains(g, pos, t, h)
    else:
        assert not khop_contains(g, pos, t, h)
        answered = consult(pos)
        if trace.outcome is SearchOutcome.FOUND:
            assert cfg.consult_budget_c > 0
            assert answered == trace.found_via
        else:
            assert answered is None
            assert trace.found_via is None
        if trace.outcome is SearchOutcome.STEP_CAP_EXHAUSTED:
            assert trace.walk_steps == cap
        elif trace.outcome is SearchOutcome.STUCK_AT_SOURCE:
            assert pos == s
            assert all(w in occupied for w in g.neighbors(s))
    assert consults == trace.consults


# --- khop_contains ---


def test_khop_center_is_target():
    g = star5()
    for h in (1, 2, 5):
        assert khop_contains(g, 2, 2, h)


def test_khop_path_examples():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    assert not khop_contains(g, 0, 3, 2)
    assert khop_contains(g, 0, 3, 3)


def test_khop_agrees_with_bfs():
    rng = random.Random(0)
    g = random_graph(rng, 50, 0.08)
    for u in range(50):
        d = bfs_distances(g, u)
        for v in range(50):
            for h in (1, 2, 3, 4):
                expected = d[v] is not None and d[v] <= h
                assert khop_contains(g, u, v, h) == expected


def test_khop_validation():
    g = star5()
    with pytest.raises(ConfigError):
        khop_contains(g, 0, 1, 0)
    with pytest.raises(NodeIdError):
        khop_contains(g, 0, 9, 1)
    with pytest.raises(NodeIdError):
        khop_contains(g, -1, 0, 1)


# --- SearchConfig validation ---


def test_config_validation():
    SearchConfig(visibility_h=2, consult_budget_c=3, step_cap=None)
    with pytest.raises(ConfigError):
        SearchConfig(visibility_h=0)
    with pytest.raises(ConfigError):
        SearchConfig(visibility_h=4)
    with pytest.raises(ConfigError):
        SearchConfig(consult_budget_c=-1)
    with pytest.raises(ConfigError):
        SearchConfig(visibility_h=1, consult_budget_c=1)
    with pytest.raises(ConfigError):
        SearchConfig(visibility_h=3, consult_budget_c=1)
    with pytest.raises(ConfigError):
        SearchConfig(step_cap=0)


# --- run_search hand-traced cases ---


def test_source_equals_target():
    trace = run_search(star5(), 2, 2, SearchConfig(visibility_h=1))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.occupied_sequence == (2,)
    assert trace.forwards == 0 and trace.deflections == 0
    assert trace.found_via == 2
    assert trace.walk_steps == 0


def test_star_one_hop_walk():
    trace = run_search(star5(), 1, 3, SearchConfig(visibility_h=1))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.occupied_sequence == (1, 0)
    assert trace.forwards == 1
    assert trace.found_via == 0


def test_arrival_check_precedes_cap_check():
    g = build_graph([(0, 1), (1, 2)], 3)
    trace = run_search(g, 0, 2, SearchConfig(visibility_h=1, step_cap=1))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.forwards == 1
    assert trace.occupied_sequence == (0, 1)
    assert trace.found_via == 1


def test_two_hop_visibility_stops_early():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    trace = run_search(g, 0, 3, SearchConfig(visibility_h=2))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.occupied_sequence == (0, 1)
    assert trace.found_via == 1


def test_stuck_at_source():
    # Path 0-1-2 plus isolated target 3: walk out, deflect home, give up.
    g = build_graph([(0, 1), (1, 2)], 4)
    cfg = SearchConfig(visibility_h=2, consult_budget_c=2, step_cap=10)
    trace = run_search(g, 0, 3, cfg)
    assert trace.outcome is SearchOutcome.STUCK_AT_SOURCE
    assert trace.occupied_sequence == (0, 1, 2, 1, 0)
    assert trace.forwards == 2
    assert trace.deflections == 2
    assert trace.consults == 2
    assert trace.found_via is None


def test_cap_fires_before_stuck_when_exact():
    # Same walk with the default cap (N = 4): the four moves spend the cap
    # right as the request returns home, so exhaustion wins over stuck.
    g = build_graph([(0, 1), (1, 2)], 4)
    trace = run_search(g, 0, 3, SearchConfig(visibility_h=2))
    assert trace.outcome is SearchOutcome.STEP_CAP_EXHAUSTED
    assert trace.walk_steps == 4


def test_invalid_ids_rejected():
    g = star5()
    with pytest.raises(NodeIdError):
        run_search(g, 0, 5, SearchConfig())
    with pytest.raises(NodeIdError):
        run_search(g, -1, 0, SearchConfig())


# --- consultation ---


def test_consult_fires_beyond_own_visibility():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
    trace = run_search(g, 0, 4, SearchConfig(visibility_h=2, consult_budget_c=1))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.occupied_sequence == (0, 1)
    assert trace.forwards == 1
    assert trace.consults == 2
    assert trace.found_via == 2
    route = materialize_route(g, trace, 4)
    assert route.nodes == (0, 1, 2, 3, 4)


def test_consult_tie_prefers_smaller_id():
    # 1 and 2 both have degree 2 and both see the target; budget one.
    g = build_graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 5)], 6)
    trace = run_search(g, 0, 5, SearchConfig(visibility_h=2, consult_budget_c=1))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.found_via == 1
    assert trace.consults == 1
    assert trace.forwards == 0


def test_consult_ranked_by_degree_and_stops_on_hit():
    # Neighbors of 0 ranked 1 (deg 3), 2 (deg 2), 3 (deg 1); only 2 sees
    # the target, so exactly two consultations happen and 3 is never asked.
    g = build_graph([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (6, 7)], 8)
    trace = run_search(g, 0, 7, SearchConfig(visibility_h=2, consult_budget_c=3))
    assert trace.outcome is SearchOutcome.FOUND
    assert trace.found_via == 2
    assert trace.consults == 2
    assert trace.forwards == 0
    assert trace.occupied_sequence == (0,)
    route = materialize_route(g, trace, 7)
    assert route.nodes == (0, 2, 6, 7)


def test_consult_budget_renews_per_node_and_ignores_cap():
    # Two occupied nodes, two consultations each; the movement cap of one
    # is spent on the single forward, yet the second node still consults.
    g = build_graph(
        [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (3, 6), (4, 7), (7, 8)], 9
    )
    trace = run_search(
        g, 0, 8, SearchConfig(visibility_h=2, consult_budget_c=2, step_cap=1)
    )
    assert trace.outcome is SearchOutcome.STEP_CAP_EXHAUSTED
    assert trace.occupied_sequence == (0, 3)
    assert trace.forwards == 1
    assert trace.deflections == 0
    assert trace.consults == 4


def test_consulted_set_never_reasked():
    # A deflecting walk re-enters node 1; its neighbors must not be asked
    # again on the second visit.
    g = build_graph([(0, 1), (1, 2)], 4)
    trace = run_search(g, 0, 3, SearchConfig(visibility_h=2, consult_budget_c=5))
    assert trace.consults == 2


# --- replay-based verification on random instances ---


def test_replay_random_graphs():
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        g = random_graph(rng, n, rng.choice([0.05, 0.1, 0.3]))
        s = rng.randrange(n)
        t = rng.randrange(n)
        cfg = SearchConfig(
            visibility_h=rng.choice([1, 2, 3]),
            step_cap=rng.choice([None, 1, 3, 4 * n]),
            rng_seed=seed,
        )
        trace = run_search(g, s, t, cfg)
        replay(g, s, t, cfg, trace)


def test_replay_with_consultation():
    for seed in range(25):
        rng = random.Random(1000 + seed)
        n = rng.randrange(4, 50)
        g = random_graph(rng, n, 0.12)
        s, t = rng.randrange(n), rng.randrange(n)
        cfg = SearchConfig(
            visibility_h=2, consult_budget_c=rng.choice([1, 2, 5]), rng_seed=seed
        )
        trace = run_search(g, s, t, cfg)
        replay(g, s, t, cfg, trace)


def test_replay_ba_graphs_all_walk_configs():
    # Preferential attachment gives hubs and many degree ties, so the
    # ranking, tie and consultation rules all get exercised.
    for m in (1, 2, 3):
        for seed in range(6):
            rng = random.Random(600 + 10 * m + seed)
            n = rng.randrange(20, 120)
            g = generate_ba(BaConfig(n=n, m_attach=m, seed_size=3, rng_seed=seed))
            for _ in range(4):
                s, t = rng.randrange(n), rng.randrange(n)
                step_cap = rng.choice([None, 3, 4 * n])
                for h, c in WALK_CONFIGS:
                    cfg = SearchConfig(
                        visibility_h=h, consult_budget_c=c, step_cap=step_cap, rng_seed=seed
                    )
                    replay(g, s, t, cfg, run_search(g, s, t, cfg))


# --- determinism and ordering properties ---


def test_determinism():
    g = generate_ba(BaConfig(n=200, m_attach=2, seed_size=3, rng_seed=1))
    cfg = SearchConfig(visibility_h=1, rng_seed=99)
    first = run_search(g, 5, 180, cfg)
    for _ in range(3):
        assert run_search(g, 5, 180, cfg) == first


def test_seed_changes_tie_choices():
    # On a 6-cycle both neighbors of the source tie at degree 2, so the
    # first hop is a coin flip decided by the seed.
    c6 = build_graph([(i, (i + 1) % 6) for i in range(6)], 6)
    first_hops = {
        run_search(c6, 0, 3, SearchConfig(visibility_h=1, rng_seed=s)).occupied_sequence[1]
        for s in range(30)
    }
    assert first_hops == {1, 5}


def test_monotone_visibility_prefix():
    for seed in range(15):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(5, 60), 0.1, ensure_connected=True)
        n = g.node_count
        s, t = rng.randrange(n), rng.randrange(n)
        traces = {
            h: run_search(g, s, t, SearchConfig(visibility_h=h, rng_seed=7))
            for h in (1, 2, 3)
        }
        for lo, hi in [(1, 2), (2, 3)]:
            a, b = traces[lo], traces[hi]
            assert b.walk_steps <= a.walk_steps
            assert a.occupied_sequence[: len(b.occupied_sequence)] == b.occupied_sequence


def test_consultation_never_worsens_prefix():
    for seed in range(15):
        rng = random.Random(50 + seed)
        g = random_graph(rng, rng.randrange(5, 60), 0.1, ensure_connected=True)
        n = g.node_count
        s, t = rng.randrange(n), rng.randrange(n)
        plain = run_search(g, s, t, SearchConfig(visibility_h=2, rng_seed=3))
        helped = run_search(
            g, s, t, SearchConfig(visibility_h=2, consult_budget_c=3, rng_seed=3)
        )
        assert helped.forwards <= plain.forwards
        assert plain.occupied_sequence[: len(helped.occupied_sequence)] == (
            helped.occupied_sequence
        )


def test_walk_steps_never_exceed_cap():
    for seed in range(20):
        rng = random.Random(200 + seed)
        n = rng.randrange(2, 40)
        g = random_graph(rng, n, 0.1)
        cap = rng.randrange(1, 8)
        trace = run_search(
            g,
            rng.randrange(n),
            rng.randrange(n),
            SearchConfig(visibility_h=1, step_cap=cap, rng_seed=seed),
        )
        assert trace.walk_steps <= cap


def test_generous_cap_always_finds_on_connected_graphs():
    for seed in range(15):
        rng = random.Random(300 + seed)
        n = rng.randrange(2, 50)
        g = random_graph(rng, n, 0.08, ensure_connected=True)
        cfg = SearchConfig(visibility_h=1, step_cap=4 * n, rng_seed=seed)
        trace = run_search(g, rng.randrange(n), rng.randrange(n), cfg)
        assert trace.outcome is SearchOutcome.FOUND
        assert trace.walk_steps <= 2 * n


def test_default_cap_equals_node_count():
    for seed in range(10):
        rng = random.Random(400 + seed)
        n = rng.randrange(2, 40)
        g = random_graph(rng, n, 0.1)
        s, t = rng.randrange(n), rng.randrange(n)
        a = run_search(g, s, t, SearchConfig(visibility_h=1, rng_seed=seed))
        b = run_search(
            g, s, t, SearchConfig(visibility_h=1, step_cap=n, rng_seed=seed)
        )
        assert a == b


# --- materialize_route ---


def test_materialize_star_trace():
    g = star5()
    trace = run_search(g, 1, 3, SearchConfig(visibility_h=1))
    route = materialize_route(g, trace, 3)
    assert route.nodes == (1, 0, 3)
    assert route.length == 2


def test_materialize_appends_adjacent_target():
    g = build_graph([(0, 1), (1, 2)], 3)
    trace = run_search(g, 0, 2, SearchConfig(visibility_h=1))
    route = materialize_route(g, trace, 2)
    assert route.nodes == trace.occupied_sequence + (2,)


def test_materialize_truncates_at_first_target_occurrence():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    trace = WalkTrace(
        occupied_sequence=(0, 1, 2, 3),
        forwards=3,
        deflections=0,
        consults=0,
        outcome=SearchOutcome.FOUND,
        found_via=3,
    )
    route = materialize_route(g, trace, 2)
    assert route.nodes == (0, 1, 2)


def test_materialize_rejects_failed_trace():
    g = build_graph([(0, 1), (1, 2)], 4)
    trace = run_search(g, 0, 3, SearchConfig(visibility_h=1))
    assert trace.outcome is not SearchOutcome.FOUND
    with pytest.raises(RouteError):
        materialize_route(g, trace, 3)


def test_materialized_routes_are_valid_and_bounded_below():
    for seed in range(20):
        rng = random.Random(500 + seed)
        n = rng.randrange(2, 60)
        g = random_graph(rng, n, 0.1, ensure_connected=True)
        s, t = rng.randrange(n), rng.randrange(n)
        h = rng.choice([1, 2])
        budget = 3 if h == 2 and rng.random() < 0.5 else 0
        cfg = SearchConfig(
            visibility_h=h, consult_budget_c=budget, step_cap=4 * n, rng_seed=seed
        )
        trace = run_search(g, s, t, cfg)
        assert trace.outcome is SearchOutcome.FOUND
        route = materialize_route(g, trace, t)
        assert route.nodes[0] == s and route.nodes[-1] == t
        assert len(set(route.nodes)) == len(route.nodes)
        for a, b in zip(route.nodes, route.nodes[1:]):
            assert g.has_edge(a, b)
        assert route.length >= pair_distance(g, s, t)


# --- walk_node_list tails against the shortest_path oracle ---


def test_walk_node_list_tail_matches_shortest_path():
    graphs = [
        generate_ba(BaConfig(n=n, m_attach=m, seed_size=3, rng_seed=m + n))
        for m in (1, 2, 3)
        for n in (40, 300)
    ]
    rng = random.Random(77)
    graphs += [random_graph(rng, rng.randrange(10, 80), 0.06) for _ in range(6)]
    tail_lengths = set()
    consult_found = 0
    for g in graphs:
        n = g.node_count
        for i in range(25):
            s, t = rng.randrange(n), rng.randrange(n)
            for h, c in WALK_CONFIGS:
                cfg = SearchConfig(visibility_h=h, consult_budget_c=c, rng_seed=i)
                trace = run_search(g, s, t, cfg)
                if trace.outcome is not SearchOutcome.FOUND:
                    continue
                via = trace.found_via
                expected = list(trace.occupied_sequence)
                if via != expected[-1]:
                    expected.append(via)
                    consult_found += 1
                oracle = shortest_path(g, via, t).nodes
                expected.extend(oracle[1:])
                assert walk_node_list(g, trace, t) == tuple(expected)
                tail_lengths.add(len(oracle) - 1)
    assert tail_lengths == {0, 1, 2, 3}
    assert consult_found > 0


def found_trace(sequence, via):
    return WalkTrace(
        occupied_sequence=sequence,
        forwards=len(sequence) - 1,
        deflections=0,
        consults=0,
        outcome=SearchOutcome.FOUND,
        found_via=via,
    )


def test_walk_node_list_three_hop_tail_takes_smallest_ids():
    # Two 3-hop paths from 0 to 9, 0-2-3-9 and 0-1-4-9: walking back from
    # 9, node 3 is its smallest neighbor two hops from 0, and 2 the
    # smallest neighbor of 3 adjacent to 0.
    g = build_graph([(0, 1), (0, 2), (1, 4), (2, 3), (3, 9), (4, 9)], 10)
    assert walk_node_list(g, found_trace((0,), 0), 9) == (0, 2, 3, 9)
    assert shortest_path(g, 0, 9).nodes == (0, 2, 3, 9)


def test_walk_node_list_rejects_via_four_hops_from_target():
    g = build_graph([(i, i + 1) for i in range(4)], 5)
    with pytest.raises(RouteError):
        walk_node_list(g, found_trace((0,), 0), 4)
    with pytest.raises(RouteError):
        materialize_route(g, found_trace((1, 0), 0), 4)


def test_walk_node_list_rejects_via_in_other_component():
    g = build_graph([(0, 1), (2, 3)], 4)
    with pytest.raises(RouteError):
        walk_node_list(g, found_trace((0, 1), 1), 3)
