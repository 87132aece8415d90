"""Immutable undirected simple graph plus the exact shortest-path oracle.

Everything downstream (generation, search, refinement, experiments) works
against this representation: dense integer node IDs in ``[0, N)`` and a
sorted adjacency tuple per node.  A search reads the neighborhoods of the
few nodes it passes through, so each node's neighbor set and degree
ranking are built the first time something asks for them, never for the
whole graph up front.
"""

from __future__ import annotations

import gc
import math
import operator
from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .errors import ConfigError, EdgeError, NodeIdError

__all__ = [
    "Graph",
    "Route",
    "DegreeStats",
    "build_graph",
    "bfs_distances",
    "components",
    "shortest_path",
    "pair_distance",
    "degree_stats",
]

# Bins need at least this many samples to enter the log-log degree fit.
_FIT_MIN_COUNT = 5


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with dense node IDs.

    Attributes:
        node_count: Number of nodes; IDs are exactly ``0 .. node_count - 1``.
        adjacency: Per-node tuple of neighbor IDs, sorted ascending.
            Symmetric, free of self-loops and duplicates.

    ``neighbors_by_degree`` and ``neighbor_sets`` are per-node caches,
    ``None`` until their node's entry is first asked for.  The walk reads
    a ranking as ``ranked[u] or fill(u)``, the cache first and
    ``_fill_ranking`` on a miss.  ``neighbor_sets`` backs ``neighbor_set``,
    the one accessor that fills it, which serves ``has_edge`` and the
    tests only (the route layers use ``_first_in_row``).  Like ``degrees``
    they derive from the two fields: equality and hashing ignore them, and
    a pickled copy answers every lookup the same whatever had been built.
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    @cached_property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def neighbor_sets(self) -> list[frozenset[int] | None]:
        return [None] * self.node_count

    @cached_property
    def neighbors_by_degree(self) -> list[tuple[int, ...] | None]:
        """Neighbors of each node sorted by descending degree, ties by ID."""
        return [None] * self.node_count

    def _fill_ranking(self, node: int) -> tuple[int, ...]:
        # The sort is stable even when reversed, so equal degrees keep the
        # ascending ID order of the adjacency tuple.
        ranked = self.neighbors_by_degree[node] = tuple(
            sorted(self.adjacency[node], key=self.degrees.__getitem__, reverse=True)
        )
        return ranked

    def degree(self, node: int) -> int:
        _check_node(self, node)
        return len(self.adjacency[node])

    def neighbors(self, node: int) -> tuple[int, ...]:
        _check_node(self, node)
        return self.adjacency[node]

    def neighbor_set(self, node: int) -> frozenset[int]:
        _check_node(self, node)
        nbrs = self.neighbor_sets[node]
        if nbrs is None:  # not ``or``: an isolated node's set is empty
            nbrs = self.neighbor_sets[node] = frozenset(self.adjacency[node])
        return nbrs

    def has_edge(self, u: int, v: int) -> bool:
        _check_node(self, v)
        return v in self.neighbor_set(u)


@dataclass(frozen=True)
class Route:
    """A walk through the graph recorded as a node sequence.

    ``length`` is the hop count, i.e. one less than the number of nodes.
    Routes produced by the search and refinement layers are simple paths;
    the container itself does not enforce that.
    """

    nodes: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.nodes) - 1


@dataclass(frozen=True)
class DegreeStats:
    """Degree distribution summary for one graph.

    ``fitted_exponent`` is the power-law exponent estimated by least squares
    on the log-log degree histogram, restricted to bins with at least five
    samples; ``None`` when the distribution is too degenerate to fit.
    """

    histogram: dict[int, int]
    min_degree: int
    max_degree: int
    fitted_exponent: float | None


def _check_node(g: Graph, node: int, role: str = "node") -> None:
    if not 0 <= node < g.node_count:
        raise NodeIdError(node, g.node_count, role)


def _first_in_row(row: Sequence[int], probes: Iterable[int]) -> int:
    """Index of the first of ``probes`` in the sorted ``row``, or -1; builds no set."""
    n = len(row)
    for i, x in enumerate(probes):
        j = bisect_left(row, x)
        if j < n and row[j] == x:
            return i
    return -1


def build_graph(edges: Iterable[Sequence[int]], node_count: int) -> Graph:
    """Build a graph from an edge list.

    Duplicate edges (in either orientation) and self-loops are dropped.

    Args:
        edges: Iterable of ``(u, v)`` node-ID pairs.
        node_count: Declared number of nodes; every ID must fall in
            ``[0, node_count)``.

    Returns:
        The normalized immutable graph.

    Raises:
        ConfigError: If ``node_count`` is negative.
        EdgeError: If an edge references an ID outside the range.
    """
    if node_count < 0:
        raise ConfigError(f"node_count must be >= 0, got {node_count}")
    # Lists, not sets: a set per node would take several times the memory.
    rows: list[list[int]] = [[] for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise EdgeError((u, v), node_count)
        if u != v:
            rows[u].append(v)
            rows[v].append(u)
    return _graph_from_rows(rows)


def _sorted_unique(row: list[int]) -> tuple[int, ...]:
    row.sort()
    # A repeated edge leaves equal neighbors side by side in a sorted row.
    return tuple(dict.fromkeys(row)) if any(map(operator.eq, row, row[1:])) else tuple(row)


def _graph_from_rows(
    rows: list, finish: Callable[[list[int]], tuple[int, ...]] = _sorted_unique
) -> Graph:
    """The graph whose node ``u`` has the neighbors listed in ``rows[u]``.

    ``finish`` turns one row into its adjacency tuple; by default it sorts
    the row and drops repeated neighbors.  Each tuple takes the place of
    its list in ``rows`` at once, so the lists and the tuples of the whole
    graph are never all alive together.  The rows must already be
    symmetric and free of self-loops.
    """
    for u, row in enumerate(rows):
        rows[u] = finish(row)
    # Each tuple is made as a list dies, so the count that triggers the
    # cycle collector never rises and every tuple is still tracked.  One
    # young-generation pass untracks them all (they hold only ints): run it
    # here, in set-up, not at the first collection inside a search or in
    # each forked worker.
    gc.collect(0)
    return Graph(node_count=len(rows), adjacency=tuple(rows))


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Hop distances from ``source`` to every node.

    Args:
        g: Graph to traverse.
        source: Start node.

    Returns:
        A list indexed by node ID; unreachable nodes get ``None``.

    Raises:
        NodeIdError: If ``source`` is out of range.
    """
    _check_node(g, source, "source")
    dist: list[int | None] = [None] * g.node_count
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] is None:
                dist[v] = du
                queue.append(v)
    return dist


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted node-ID lists, ordered by smallest member."""
    seen = [False] * g.node_count
    result: list[list[int]] = []
    for start in range(g.node_count):
        if not seen[start]:
            seen[start] = True
            component = [start]
            for u in component:  # the list grows while it is read: a BFS queue
                for v in g.adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        component.append(v)
            component.sort()
            result.append(component)
    return result


def shortest_path(g: Graph, source: int, target: int) -> Route | None:
    """One shortest path from ``source`` to ``target``, or ``None``.

    The reference oracle for routes: a full ``bfs_distances`` from the
    source, then a walk back from the target in which each predecessor is
    the smallest-ID neighbor one BFS level closer to the source.

    Args:
        g: Graph to traverse.
        source: Start node.
        target: End node.

    Returns:
        A ``Route`` whose length equals the BFS distance, or ``None`` when
        the two nodes are in different components.

    Raises:
        NodeIdError: If either endpoint is out of range.
    """
    dist = bfs_distances(g, source)
    _check_node(g, target, "target")
    if dist[target] is None:
        return None
    path = [target]
    v = target
    while v != source:
        want = dist[v] - 1
        for u in g.adjacency[v]:  # ascending IDs, first hit is the smallest
            if dist[u] == want:
                v = u
                break
        path.append(v)
    path.reverse()
    return Route(tuple(path))


def pair_distance(g: Graph, source: int, target: int) -> int | None:
    """Hop distance between two nodes via bidirectional BFS.

    Equivalent to ``bfs_distances(g, source)[target]`` but grows a ball
    around each end, one BFS level of the side with the smaller outer level
    at a time, and stops at the first node the two balls share.  That is
    much cheaper than one full traversal on small-world graphs.  ``None``
    when the nodes are disconnected.
    """
    _check_node(g, source, "source")
    _check_node(g, target, "target")
    if source == target:
        return 0
    adjacency = g.adjacency
    ball, far_ball = {source}, {target}
    level, far_level = [source], [target]
    dist = 0
    while level and far_level:
        if len(level) > len(far_level):
            ball, far_ball, level, far_level = far_ball, ball, far_level, level
        dist += 1
        nxt: set[int] = set()
        for u in level:
            row = adjacency[u]
            if not far_ball.isdisjoint(row):
                # The balls were disjoint until now, so the distance
                # exceeds the sum of their radii, dist - 1; a node of this
                # row closes a path of exactly dist hops.
                return dist
            nxt.update(row)
        nxt -= ball
        ball |= nxt
        level = nxt
    return None


def degree_stats(g: Graph) -> DegreeStats:
    """Degree histogram and power-law exponent estimate.

    Args:
        g: Graph with at least two nodes.

    Returns:
        A ``DegreeStats`` with the exact histogram and, when enough distinct
        degrees exist, the fitted exponent ``alpha`` of ``P(k) ~ k**-alpha``.

    Raises:
        ConfigError: If the graph has fewer than two nodes.
    """
    if g.node_count < 2:
        raise ConfigError("degree statistics require at least 2 nodes")
    histogram = dict(sorted(Counter(g.degrees).items()))
    return DegreeStats(
        histogram=histogram,
        min_degree=min(histogram),
        max_degree=max(histogram),
        fitted_exponent=_fit_exponent(histogram),
    )


def _fit_exponent(histogram: dict[int, int]) -> float | None:
    # Degree-zero bins have no log coordinate; thin bins are noise.
    points = [
        (math.log(d), math.log(c))
        for d, c in histogram.items()
        if d >= 1 and c >= _FIT_MIN_COUNT
    ]
    if len(histogram) < 3 or len(points) < 2:
        return None
    n = len(points)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    if denom == 0.0:
        return None
    slope = (n * sxy - sx * sy) / denom
    return -slope
