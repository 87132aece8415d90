"""Graph construction, BFS oracles, and degree statistics."""

import gc
import pickle
import random

import pytest

from degreesearch import (
    BaConfig,
    ConfigError,
    EdgeError,
    Graph,
    NodeIdError,
    bfs_distances,
    build_graph,
    degree_stats,
    generate_ba,
    load_edge_list,
    pair_distance,
    save_edge_list,
    shortest_path,
)
from degreesearch.graphs import _fit_exponent, components

from helpers import check_graph_invariants, floyd_warshall, path, random_graph, star5


def built(cache):
    return [u for u, entry in enumerate(cache) if entry is not None]


# --- build_graph ---


def test_build_drops_duplicates_and_self_loops():
    g = build_graph([(0, 1), (1, 0), (1, 1)], 2)
    assert g.adjacency == ((1,), (0,))
    assert g.degrees == (1, 1)
    assert g.edge_count == 1


def test_build_no_edges():
    g = build_graph([], 3)
    assert g.node_count == 3
    assert g.degrees == (0, 0, 0)
    assert g.edge_count == 0


def test_build_star_degrees():
    assert star5().degrees == (4, 1, 1, 1, 1)


def test_build_rejects_out_of_range_edge():
    with pytest.raises(EdgeError) as exc:
        build_graph([(0, 1), (0, 5)], 3)
    assert exc.value.edge == (0, 5)
    with pytest.raises(EdgeError):
        build_graph([(-1, 0)], 3)
    # The first bad edge in iteration order, even a self-loop or one that
    # repeats an edge already seen.
    with pytest.raises(EdgeError) as exc:
        build_graph([(0, 1), (1, 1), (1, 0), (4, 4), (2, 9)], 3)
    assert exc.value.edge == (4, 4)


def test_build_rejects_negative_node_count():
    with pytest.raises(ConfigError):
        build_graph([], -1)


def test_build_idempotent_under_permutation_and_duplication():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randrange(2, 25)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        base = build_graph(edges, n)
        shuffled = edges * 2 + [(v, u) for u, v in edges]
        rng.shuffle(shuffled)
        assert build_graph(shuffled, n) == base


def test_build_invariants_on_random_graphs():
    for seed in range(30):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(1, 40), rng.random() * 0.5)
        check_graph_invariants(g)


def test_built_rows_are_left_untracked_by_the_cycle_collector(tmp_path):
    # A tuple of ints leaves the collector's lists at the first collection
    # that sees it.  Building a graph runs that collection itself, so the
    # first one inside a search, or in each forked worker, does not walk
    # every row.
    g = generate_ba(BaConfig(n=3000, m_attach=3, seed_size=3, rng_seed=1))
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    edges = [(u, v) for u, row in enumerate(g.adjacency) for v in row]
    for built_graph in (g, build_graph(edges, g.node_count), load_edge_list(path)[0]):
        assert not any(map(gc.is_tracked, built_graph.adjacency))


def test_has_edge_and_neighbor_set():
    g = star5()
    assert g.has_edge(0, 3) and g.has_edge(3, 0)
    assert not g.has_edge(1, 2)
    # Each call builds only its first node's set.
    assert built(g.neighbor_sets) == [0, 1, 3]
    assert built(g.neighbors_by_degree) == []
    assert g.neighbor_set(0) == {1, 2, 3, 4}
    assert g.neighbor_set(2) == {0}


def test_neighbors_by_degree_matches_definition():
    # BA trees (m = 1) and sparse G(n, p) graphs have many equal degrees.
    rng = random.Random(11)
    graphs = [random_graph(rng, rng.randrange(2, 60), 0.08) for _ in range(30)]
    graphs += [
        generate_ba(BaConfig(n=400, m_attach=1, seed_size=1, rng_seed=s)) for s in range(5)
    ]
    ties = 0
    for g in graphs:
        deg = g.degrees
        for u, nbrs in enumerate(g.adjacency):
            expected = tuple(sorted(nbrs, key=lambda w: (-deg[w], w)))
            assert (g.neighbors_by_degree[u] or g._fill_ranking(u)) == expected
            ties += len({deg[w] for w in nbrs}) < len(nbrs)
    assert ties > 100


def test_views_fill_per_node_in_any_order():
    # Each lookup builds its own node's entry and no other, by the plain
    # definition, and later lookups return the cached entry.
    rng = random.Random(12)
    graphs = [random_graph(rng, rng.randrange(1, 60), rng.random() * 0.3) for _ in range(30)]
    graphs += [
        generate_ba(BaConfig(n=300, m_attach=1, seed_size=1, rng_seed=s)) for s in range(3)
    ]
    for g in graphs:
        assert built(g.neighbor_sets) == built(g.neighbors_by_degree) == []
        deg = g.degrees
        order = list(range(g.node_count))
        rng.shuffle(order)
        for k, u in enumerate(order):
            nbrs = g.adjacency[u]
            assert g.neighbor_set(u) == frozenset(nbrs)
            ranking = g.neighbors_by_degree[u] or g._fill_ranking(u)
            assert ranking == tuple(sorted(nbrs, key=lambda w: (-deg[w], w)))
            assert built(g.neighbor_sets) == built(g.neighbors_by_degree) == sorted(order[: k + 1])
            assert g.neighbor_set(u) is g.neighbor_sets[u]
            assert (g.neighbors_by_degree[u] or g._fill_ranking(u)) is ranking


def test_isolated_node_has_empty_views():
    g = build_graph([(0, 1), (1, 3)], 4)
    assert g.degrees[2] == 0
    for _ in range(3):
        assert g.neighbor_set(2) == frozenset()
        assert (g.neighbors_by_degree[2] or g._fill_ranking(2)) == ()
        for v in range(4):
            assert not g.has_edge(2, v) and not g.has_edge(v, 2)
    assert g.neighbor_sets[2] == frozenset() and g.neighbors_by_degree[2] == ()
    # The empty set is cached too, not rebuilt on each call.
    assert g.neighbor_set(2) is g.neighbor_set(2) is g.neighbor_sets[2]


def test_pickle_keeps_partly_built_views_equivalent():
    # A pool started with ``spawn`` pickles the graph with whatever views
    # the parent has built; the copy must answer every lookup the same way.
    g = generate_ba(BaConfig(n=200, m_attach=2, seed_size=3, rng_seed=4))
    rng = random.Random(4)
    for u in rng.sample(range(200), 40):
        g.neighbor_set(u)
    for u in rng.sample(range(200), 25):
        g._fill_ranking(u)
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    fresh = build_graph([(u, v) for u in range(200) for v in g.adjacency[u]], 200)
    assert fresh == g and hash(fresh) == hash(g)
    for u in range(200):
        assert copy.neighbor_set(u) == g.neighbor_set(u) == fresh.neighbor_set(u)
        ranking = copy.neighbors_by_degree[u] or copy._fill_ranking(u)
        assert ranking == g._fill_ranking(u) == fresh._fill_ranking(u)


# --- bfs_distances ---


def test_bfs_star_from_leaf():
    assert bfs_distances(star5(), 1) == [1, 0, 2, 2, 2]


def test_bfs_path_from_end():
    assert bfs_distances(path(4), 0) == [0, 1, 2, 3]


def test_bfs_unreachable_is_none():
    g = build_graph([(0, 1), (2, 3)], 4)
    assert bfs_distances(g, 0) == [0, 1, None, None]


def test_bfs_source_out_of_range():
    with pytest.raises(NodeIdError):
        bfs_distances(path(4), 4)
    with pytest.raises(NodeIdError):
        bfs_distances(path(4), -1)


def test_bfs_matches_brute_force_on_random_graphs():
    for seed in range(15):
        rng = random.Random(seed)
        n = rng.randrange(2, 50)
        g = random_graph(rng, n, 0.15, ensure_connected=seed % 2 == 0)
        dist = floyd_warshall(g)
        for s in range(n):
            assert list(bfs_distances(g, s)) == dist[s]


def test_bfs_edge_triangle_property():
    for seed in range(10):
        rng = random.Random(100 + seed)
        g = random_graph(rng, 30, 0.1)
        for s in range(g.node_count):
            d = bfs_distances(g, s)
            for u in range(g.node_count):
                for v in g.neighbors(u):
                    if d[u] is not None and d[v] is not None:
                        assert abs(d[u] - d[v]) <= 1


# --- components ---


def test_components_ordered_by_smallest_member():
    g = build_graph([(5, 3), (6, 2), (4, 0), (1, 4)], 7)
    assert components(g) == [[0, 1, 4], [2, 6], [3, 5]]


def test_components_isolated_nodes_are_singletons():
    assert components(build_graph([(3, 1)], 5)) == [[0], [1, 3], [2], [4]]


def test_components_empty_graph():
    assert components(build_graph([], 0)) == []


def test_components_match_brute_force_reachability():
    for seed in range(15):
        rng = random.Random(200 + seed)
        n = rng.randrange(1, 40)
        g = random_graph(rng, n, rng.choice([0.02, 0.05, 0.1]))
        dist = floyd_warshall(g)
        found = components(g)
        assert sorted(u for c in found for u in c) == list(range(n))
        assert [c[0] for c in found] == sorted(c[0] for c in found)
        for c in found:
            assert c == [v for v in range(n) if dist[c[0]][v] is not None]


# --- shortest_path ---


def test_shortest_path_source_equals_target():
    route = shortest_path(path(4), 2, 2)
    assert route.nodes == (2,)
    assert route.length == 0


def test_shortest_path_star():
    route = shortest_path(star5(), 1, 3)
    assert route.nodes == (1, 0, 3)
    assert route.length == 2


def test_shortest_path_disconnected_absent():
    g = build_graph([(0, 1), (2, 3)], 4)
    assert shortest_path(g, 0, 3) is None


def test_shortest_path_prefers_smallest_predecessor():
    # Square 0-1-3-2-0: both 1 and 2 sit one hop before 3; pick 1.
    g = build_graph([(0, 1), (0, 2), (1, 3), (2, 3)], 4)
    assert shortest_path(g, 0, 3).nodes == (0, 1, 3)


def test_shortest_path_length_matches_bfs():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randrange(2, 45)
        g = random_graph(rng, n, 0.12)
        for s in range(n):
            d = bfs_distances(g, s)
            for t in range(n):
                route = shortest_path(g, s, t)
                if d[t] is None:
                    assert route is None
                else:
                    assert route.length == d[t]
                    assert route.nodes[0] == s and route.nodes[-1] == t
                    for a, b in zip(route.nodes, route.nodes[1:]):
                        assert g.has_edge(a, b)


# --- pair_distance ---


def test_pair_distance_agrees_with_bfs():
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randrange(2, 45)
        g = random_graph(rng, n, 0.12, ensure_connected=seed % 3 == 0)
        for s in range(n):
            d = bfs_distances(g, s)
            for t in range(n):
                assert pair_distance(g, s, t) == d[t]
    # Sparse enough to fall apart into many components: None pairs.
    sparse = random_graph(random.Random(12), 80, 0.02)
    assert len(components(sparse)) > 10
    # A 40-leaf star whose hub starts a 40-node path: the two ends' levels
    # differ widely in size, so the search switches sides as it goes.
    star = [(0, leaf) for leaf in range(1, 41)]
    star_path = build_graph(star + [(0, 41)] + [(v, v + 1) for v in range(41, 80)], 81)
    for g in (sparse, star_path):
        for s in range(g.node_count):
            d = bfs_distances(g, s)
            for t in range(g.node_count):
                assert pair_distance(g, s, t) == d[t]
    for m in (1, 2, 3):
        g = generate_ba(BaConfig(n=1500, m_attach=m, rng_seed=m))
        for s in random.Random(m).sample(range(g.node_count), 3):
            d = bfs_distances(g, s)
            for t in range(g.node_count):
                assert pair_distance(g, s, t) == d[t]
    # Hub-heavy: from each of the three largest hubs the first level is
    # large, so the search keeps growing the other side.
    for m in (1, 2, 3):
        g = generate_ba(BaConfig(n=2000, m_attach=m, rng_seed=10 + m))
        hubs = sorted(range(g.node_count), key=g.degrees.__getitem__)[-3:]
        for s in hubs:
            d = bfs_distances(g, s)
            for t in range(g.node_count):
                assert pair_distance(g, s, t) == d[t] == pair_distance(g, t, s)


class CountingRows(tuple):
    """Adjacency rows that count how many times a row is read."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_pair_distance_stops_at_first_meeting():
    # Five disjoint 3-hop paths s-a_i-b_i-t: s = 0, t = 1, a_i = 2..6, b_i = 7..11.
    edges = [(0, a) for a in range(2, 7)] + [(a, a + 5) for a in range(2, 7)]
    edges += [(b, 1) for b in range(7, 12)]
    rows = CountingRows(build_graph(edges, 12).adjacency)
    g = Graph(12, adjacency=rows)
    # Rows s and t, then the first b_i row: its a_i is already in s's ball.
    assert pair_distance(g, 0, 1) == 3
    assert rows.reads == 3
    rows.reads = 0
    assert pair_distance(g, 0, 2) == 1
    assert rows.reads == 1
    rows.reads = 0
    assert pair_distance(g, 0, 7) == 2
    assert rows.reads <= 2
    assert not built(g.neighbor_sets) and not built(g.neighbors_by_degree)


def test_pair_distance_small_cases():
    g = path(4)
    assert pair_distance(g, 1, 1) == 0
    assert pair_distance(g, 0, 1) == 1
    assert pair_distance(g, 0, 3) == 3


# --- degree_stats ---


def test_degree_stats_star():
    stats = degree_stats(star5())
    assert stats.histogram == {1: 4, 4: 1}
    assert stats.min_degree == 1
    assert stats.max_degree == 4
    assert stats.fitted_exponent is None


def test_degree_stats_complete_graph():
    k5 = build_graph([(u, v) for u in range(5) for v in range(u + 1, 5)], 5)
    stats = degree_stats(k5)
    assert stats.histogram == {4: 5}
    assert stats.fitted_exponent is None


def test_degree_stats_counts_sum_to_node_count():
    for seed in range(10):
        rng = random.Random(seed)
        n = rng.randrange(2, 60)
        stats = degree_stats(random_graph(rng, n, 0.2))
        assert sum(stats.histogram.values()) == n
        assert stats.min_degree <= stats.max_degree


def test_degree_stats_rejects_tiny_graph():
    with pytest.raises(ConfigError):
        degree_stats(build_graph([], 1))


def test_exponent_fit_recovers_exact_power_law():
    # counts 40, 20, 10 at degrees 1, 2, 4 lie exactly on slope -1.
    fitted = _fit_exponent({1: 40, 2: 20, 4: 10})
    assert fitted == pytest.approx(1.0, abs=1e-9)


def test_exponent_fit_ignores_sparse_bins():
    # The count-3 bin would bend the line; it must be excluded.
    fitted = _fit_exponent({1: 40, 2: 20, 4: 10, 50: 3})
    assert fitted == pytest.approx(1.0, abs=1e-9)
