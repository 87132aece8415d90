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
    Graph,
    khop_contains,
    materialize_route,
    pair_distance,
    run_search,
    shortest_path,
)

from degreesearch.graphs import components
from helpers import CANONICAL_VARIANTS, loop_erase, random_graph, star5


# Every (visibility_h, consult_budget_c) walk configuration the canonical plan runs.
WALK_CONFIGS = tuple(
    dict.fromkeys((v.visibility_h, v.consult_budget_c) for v in CANONICAL_VARIANTS)
)


def replay(g, s, t, cfg, trace):
    """Re-simulate a finished walk and assert every rule independently.

    The only information taken from the trace is the order in which new
    nodes were occupied (the random tie choices); everything else, the
    forward-or-deflect decision, degree maximality, deflection targets,
    the first-hit rule, every consultation and the final outcome
    condition, is recomputed from scratch with ``khop_contains``.  The
    carried ``path`` must be the plain loop erasure of the walk.
    """
    seq = trace.occupied_sequence
    assert seq[0] == s
    assert trace.path == loop_erase(seq)
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
    # Nothing is within any h hops of the target, so its ball is empty and
    # every walk configuration takes the same walk; those that consult ask
    # each of the other two nodes once.
    g = build_graph([(0, 1), (1, 2)], 4)
    for h, c in WALK_CONFIGS:
        cfg = SearchConfig(visibility_h=h, consult_budget_c=c, step_cap=10)
        trace = run_search(g, 0, 3, cfg)
        assert trace.outcome is SearchOutcome.STUCK_AT_SOURCE
        assert trace.occupied_sequence == (0, 1, 2, 1, 0)
        assert trace.forwards == 2
        assert trace.deflections == 2
        assert trace.consults == (2 if c else 0)
        assert trace.found_via is None


def test_cap_fires_before_stuck_when_exact():
    # Same walks with the default cap (N = 4): the four moves spend the cap
    # right as the request returns home, so exhaustion wins over stuck.
    g = build_graph([(0, 1), (1, 2)], 4)
    for h, c in WALK_CONFIGS:
        trace = run_search(g, 0, 3, SearchConfig(visibility_h=h, consult_budget_c=c))
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


def test_replay_visibility_extremes():
    # Where the walk's target balls are least typical: hubs as targets (the
    # largest balls) and as sources, degree-1 targets, targets that are
    # isolated (an empty ball) or in a small component, and long walks,
    # under every walk configuration.
    cases = []
    for m in (1, 2, 3):
        ba = generate_ba(BaConfig(n=120, m_attach=m, seed_size=3, rng_seed=m))
        n = ba.node_count
        hubs = sorted(range(n), key=lambda u: (-ba.degree(u), u))[:5]
        # Pendants on two hubs, and a 70-node path from a low-degree node,
        # give degree-1 targets at every m and walks of 70 forced steps.
        low = min(range(n), key=lambda u: (ba.degree(u), u))
        far = n + 71
        extra = [(hubs[0], n), (hubs[4], n + 1), (low, n + 2)]
        extra += [(u, u + 1) for u in range(n + 2, far)]
        g = build_graph([(u, v) for u in range(n) for v in ba.neighbors(u)] + extra, far + 1)
        leaves = [u for u in range(g.node_count) if g.degree(u) == 1]
        assert {n, n + 1, far} <= set(leaves)
        for t in hubs + leaves[:4]:
            for s in hubs[:2] + [low]:
                cases.append((g, s, t))
        cases += [(g, far, hubs[0]), (g, far, n), (g, hubs[0], far)]
    rng = random.Random(90)
    sparse = random_graph(rng, 70, 0.025)
    by_size = {}
    for component in components(sparse):
        by_size.setdefault(len(component), []).append(component)
    small = [u for size in sorted(by_size)[:3] for comp in by_size[size] for u in comp]
    big = max(components(sparse), key=len)
    assert sparse.degree(small[0]) == 0 and len(big) > 20
    for t in small[:10]:
        for s in big[:3] + small[:2]:
            cases.append((sparse, s, t))
    for seed, (g, s, t) in enumerate(cases):
        for h, c in WALK_CONFIGS:
            cfg = SearchConfig(visibility_h=h, consult_budget_c=c, rng_seed=seed)
            replay(g, s, t, cfg, run_search(g, s, t, cfg))


def test_rng_built_only_when_a_tie_is_broken(monkeypatch):
    path = build_graph([(i, i + 1) for i in range(9)], 10)
    # Star center 0 with four tied leaves and an unreachable target: the
    # walk breaks a tie on each of its first three departures from 0.
    star = build_graph([(0, i) for i in range(1, 5)], 6)
    cfg = SearchConfig(visibility_h=1, step_cap=20, rng_seed=11)
    expected = run_search(star, 0, 5, cfg)
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    trace = run_search(path, 0, 9, SearchConfig(visibility_h=1, rng_seed=3))
    assert trace.outcome is SearchOutcome.FOUND and trace.forwards == 8
    assert built == []
    trace = run_search(star, 0, 5, cfg)
    assert trace == expected and trace.outcome is SearchOutcome.STUCK_AT_SOURCE
    assert built == [(11,)]


def test_searches_build_views_only_where_they_look():
    # The walk ranks only the nodes it occupies and builds no neighbor
    # set: its visibility checks read one ball around each search's
    # target, built from adjacency rows, and meet it with the rows of the
    # nodes it occupies.
    adjacency = generate_ba(BaConfig(n=20_000, m_attach=3, seed_size=3, rng_seed=5)).adjacency
    for h, c in ((1, 0), (2, 5), (3, 0)):
        g = Graph(len(adjacency), adjacency)
        rng = random.Random(5)
        occupied = set()
        for seed in range(50):
            s, t = rng.randrange(g.node_count), rng.randrange(g.node_count)
            cfg = SearchConfig(visibility_h=h, consult_budget_c=c, rng_seed=seed)
            occupied.update(run_search(g, s, t, cfg).occupied_sequence)
        ranked = {u for u, entry in enumerate(g.neighbors_by_degree) if entry is not None}
        assert ranked and ranked <= occupied
        assert g.neighbor_sets == [None] * g.node_count


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
        path=(0, 1, 2, 3),
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


def test_materialize_rejects_found_trace_without_via():
    g = build_graph([(0, 1), (1, 2)], 3)
    trace = WalkTrace(
        occupied_sequence=(0, 1),
        path=(0, 1),
        forwards=1,
        deflections=0,
        consults=0,
        outcome=SearchOutcome.FOUND,
        found_via=None,
    )
    with pytest.raises(RouteError):
        materialize_route(g, trace, 2)


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


# --- delivered-route tails against the shortest_path oracle ---


def test_materialize_tail_matches_shortest_path():
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
                walk = list(trace.occupied_sequence)
                if via != walk[-1]:
                    walk.append(via)
                    consult_found += 1
                oracle = shortest_path(g, via, t).nodes
                expected = loop_erase(walk + list(oracle[1:]))
                assert materialize_route(g, trace, t).nodes == expected
                tail_lengths.add(len(oracle) - 1)
    assert tail_lengths == {0, 1, 2, 3}
    assert consult_found > 0


def test_tail_asks_for_a_neighbor_set_only_on_three_hops(monkeypatch):
    # The walk asks for no neighbor set.  One- and two-hop tails bisect the
    # sorted row of ``via``; only a three-hop tail asks for a set, that of
    # ``via`` alone, and meets it with adjacency rows.
    asked = []
    neighbor_set = Graph.neighbor_set

    def recording(self, node):
        asked.append(node)
        return neighbor_set(self, node)

    monkeypatch.setattr(Graph, "neighbor_set", recording)
    three_hop = 0
    for m in (1, 2, 3):
        g = generate_ba(BaConfig(n=1000, m_attach=m, seed_size=3, rng_seed=m))
        rng = random.Random(m)
        for i in range(40):
            s, t = rng.randrange(g.node_count), rng.randrange(g.node_count)
            for h, c in WALK_CONFIGS:
                cfg = SearchConfig(visibility_h=h, consult_budget_c=c, rng_seed=i)
                trace = run_search(g, s, t, cfg)
                assert asked == []
                if trace.outcome is not SearchOutcome.FOUND:
                    continue
                materialize_route(g, trace, t)
                via = trace.found_via
                hops = pair_distance(g, via, t)
                three_hop += hops == 3
                assert asked == ([via] if hops == 3 else [])
                asked.clear()
    assert three_hop > 0


def found_trace(sequence, via):
    # A walk without deflections: its loop erasure is the walk itself.
    return WalkTrace(
        occupied_sequence=sequence,
        path=sequence,
        forwards=len(sequence) - 1,
        deflections=0,
        consults=0,
        outcome=SearchOutcome.FOUND,
        found_via=via,
    )


def test_materialize_two_hop_tail_takes_smallest_id():
    # 0 and 9 share the common neighbours 3 and 5: the tail goes through 3.
    g = build_graph([(0, 5), (0, 3), (5, 9), (3, 9)], 10)
    assert materialize_route(g, found_trace((0,), 0), 9).nodes == (0, 3, 9)
    assert shortest_path(g, 0, 9).nodes == (0, 3, 9)


def test_materialize_three_hop_tail_takes_smallest_ids():
    # Two 3-hop paths from 0 to 9, 0-2-3-9 and 0-1-4-9: walking back from
    # 9, node 3 is its smallest neighbor two hops from 0, and 2 the
    # smallest neighbor of 3 adjacent to 0.
    g = build_graph([(0, 1), (0, 2), (1, 4), (2, 3), (3, 9), (4, 9)], 10)
    assert materialize_route(g, found_trace((0,), 0), 9).nodes == (0, 2, 3, 9)
    assert shortest_path(g, 0, 9).nodes == (0, 2, 3, 9)


@pytest.mark.parametrize(
    "edges, via, target",
    [
        # The target lies above every entry of the row of ``via``, 0: (1, 2).
        ([(0, 1), (0, 2), (2, 9)], 0, 9),
        # Below it: the row of 5 is (6, 7) and the target is 0.
        ([(5, 6), (5, 7), (7, 0)], 5, 0),
        # A probed neighbor of the target, 1, lies below the row (6, 7).
        ([(5, 6), (5, 7), (9, 1), (9, 7)], 5, 9),
        # The target's one neighbor, 5, lies above the row (1, 2): three hops.
        ([(0, 1), (0, 2), (2, 5), (5, 9)], 0, 9),
    ],
)
def test_materialize_tail_at_the_ends_of_the_row_of_via(edges, via, target):
    g = build_graph(edges, 10)
    expected = shortest_path(g, via, target).nodes
    assert materialize_route(g, found_trace((via,), via), target).nodes == expected


def test_materialize_rejects_via_four_hops_from_target():
    g = build_graph([(i, i + 1) for i in range(4)], 5)
    with pytest.raises(RouteError):
        materialize_route(g, found_trace((0,), 0), 4)
    with pytest.raises(RouteError):
        materialize_route(g, found_trace((1, 0), 0), 4)


def test_materialize_rejects_via_in_other_component():
    g = build_graph([(0, 1), (2, 3)], 4)
    with pytest.raises(RouteError):
        materialize_route(g, found_trace((0, 1), 1), 3)
