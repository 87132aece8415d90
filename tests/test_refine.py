"""Route shortcutting: hand traces, random properties, locality."""

import random

import pytest

from degreesearch import (
    BaConfig,
    Graph,
    NodeIdError,
    Route,
    RouteError,
    SearchConfig,
    SearchOutcome,
    build_graph,
    generate_ba,
    materialize_route,
    refine_route,
    run_search,
)

from helpers import (
    check_refinement_laws,
    path,
    pivot_indices,
    random_graph,
    random_simple_path,
    reference_refined_length,
)


def cycle(n):
    return build_graph([(i, (i + 1) % n) for i in range(n)], n)


def test_two_node_route_unchanged():
    g = path(2)
    result = refine_route(g, Route((0, 1)))
    assert result.refined.nodes == (0, 1)
    assert pivot_indices(result) == (0,)


def test_single_node_route_unchanged():
    g = path(2)
    result = refine_route(g, Route((0,)))
    assert result.refined.nodes == (0,)
    assert pivot_indices(result) == ()


def test_cycle_shortcut_jumps_to_source():
    result = refine_route(cycle(5), Route((0, 1, 2, 3, 4)))
    assert result.refined.nodes == (0, 4)
    assert result.refined.length == 1
    assert pivot_indices(result) == (0,)
    assert result.original.nodes == (0, 1, 2, 3, 4)


def test_chordless_path_unchanged():
    result = refine_route(path(4), Route((0, 1, 2, 3)))
    assert result.refined.nodes == (0, 1, 2, 3)
    assert pivot_indices(result) == (2, 1, 0)


def test_single_chord_shortcut():
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)], 5)
    result = refine_route(g, Route((0, 1, 2, 3, 4)))
    assert result.refined.nodes == (0, 1, 4)
    assert pivot_indices(result) == (1, 0)


def test_rejects_bad_routes():
    g = path(3)
    with pytest.raises(RouteError):
        refine_route(g, Route(()))
    with pytest.raises(RouteError):
        refine_route(g, Route((0, 2)))
    with pytest.raises(RouteError):
        refine_route(g, Route((0, 1, 0)))
    with pytest.raises(NodeIdError):
        refine_route(g, Route((0, 9)))
    # An isolated node has an empty adjacency row.
    with pytest.raises(RouteError):
        refine_route(build_graph([(0, 1)], 3), Route((2, 0)))


def test_random_routes_properties():
    for seed in range(60):
        rng = random.Random(seed)
        g = random_graph(rng, rng.randrange(2, 50), 0.15, ensure_connected=True)
        nodes = random_simple_path(rng, g)
        check_refinement_laws(g, refine_route(g, Route(tuple(nodes))))


class RecordingRows:
    """Adjacency rows that record which nodes' rows were read."""

    def __init__(self, rows, asked):
        self._rows = rows
        self._asked = asked

    def __getitem__(self, u):
        self._asked.add(u)
        return self._rows[u]


class RecordingGraph:
    """Adjacency wrapper that records which nodes were inspected."""

    def __init__(self, g):
        self.node_count = g.node_count
        self.asked = set()
        self.adjacency = RecordingRows(g.adjacency, self.asked)


def test_refinement_only_reads_route_adjacency():
    rng = random.Random(4)
    g = random_graph(rng, 80, 0.08, ensure_connected=True)
    nodes = random_simple_path(rng, g)
    recorder = RecordingGraph(g)
    refine_route(recorder, Route(tuple(nodes)))
    assert recorder.asked <= set(nodes)


def test_refinement_builds_no_neighbor_sets():
    # The hop check and the greedy scan both bisect adjacency rows, so no
    # neighbor set is built.  (At m = 1 the graph is a tree plus the seed
    # clique, so routes have nothing to shortcut.)
    for m in (2, 3):
        adjacency = generate_ba(BaConfig(n=2_000, m_attach=m, rng_seed=m)).adjacency
        g = Graph(len(adjacency), adjacency)
        rng = random.Random(m)
        routes = []
        for seed in range(40):
            s, t = rng.randrange(g.node_count), rng.randrange(g.node_count)
            trace = run_search(g, s, t, SearchConfig(visibility_h=2, rng_seed=seed))
            if trace.outcome is SearchOutcome.FOUND:
                routes.append(materialize_route(g, trace, t))
        g = Graph(len(adjacency), adjacency)
        shortened = 0
        for route in routes:
            shortened += refine_route(g, route).refined.length < route.length
        assert g.neighbor_sets == [None] * g.node_count
        assert shortened > 0, m


@pytest.mark.parametrize(
    "nodes, chords, expected",
    [
        # The source, 9, lies above the target's row (2,); no shortcut.
        ((9, 1, 2, 3), [], (9, 1, 2, 3)),
        # The source, 0, lies below the target's row (6,); no shortcut.
        ((0, 5, 6, 7), [], (0, 5, 6, 7)),
        # 9 and 1 miss the target's row (2, 3) above and below it; 2 is in it.
        ((9, 1, 2, 3, 4), [(2, 4)], (9, 1, 2, 4)),
    ],
)
def test_refinement_probes_past_the_ends_of_a_row(nodes, chords, expected):
    g = build_graph(list(zip(nodes, nodes[1:])) + chords, 10)
    refined = refine_route(g, Route(nodes)).refined.nodes
    assert refined == expected
    assert len(refined) - 1 == reference_refined_length(g, nodes)
