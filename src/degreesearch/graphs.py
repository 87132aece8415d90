"""Immutable undirected simple graph plus the exact shortest-path oracle.

Everything downstream (generation, search, refinement, experiments) works
against this representation: dense integer node IDs in ``[0, N)`` and a
sorted adjacency tuple per node.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
    """

    node_count: int
    adjacency: tuple[tuple[int, ...], ...]

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @cached_property
    def edge_count(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adjacency)

    @cached_property
    def neighbors_by_degree(self) -> tuple[tuple[int, ...], ...]:
        """Neighbors of each node sorted by descending degree, ties by ID."""
        deg = self.degrees
        return tuple(
            tuple(sorted(nbrs, key=lambda w: (-deg[w], w)))
            for nbrs in self.adjacency
        )

    def degree(self, node: int) -> int:
        _check_node(self, node)
        return len(self.adjacency[node])

    def neighbors(self, node: int) -> tuple[int, ...]:
        _check_node(self, node)
        return self.adjacency[node]

    def neighbor_set(self, node: int) -> frozenset[int]:
        _check_node(self, node)
        return self.neighbor_sets[node]

    def has_edge(self, u: int, v: int) -> bool:
        _check_node(self, u)
        _check_node(self, v)
        return v in self.neighbor_sets[u]


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
    neighbor_sets: list[set[int]] = [set() for _ in range(node_count)]
    for edge in edges:
        u, v = edge
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise EdgeError((u, v), node_count)
        if u == v:
            continue
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    return Graph(node_count=node_count, adjacency=adjacency)


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
            result.append(sorted(component))
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

    Equivalent to ``bfs_distances(g, source)[target]`` but expands two
    half-depth balls instead of one full traversal, which is much cheaper
    on small-world graphs.  ``None`` when the nodes are disconnected.
    """
    _check_node(g, source, "source")
    _check_node(g, target, "target")
    if source == target:
        return 0
    adjacency = g.adjacency
    dist_s: dict[int, int] = {source: 0}
    dist_t: dict[int, int] = {target: 0}
    frontier_s = [source]
    frontier_t = [target]
    radius_s = radius_t = 0
    while frontier_s and frontier_t:
        # Expanding the smaller frontier keeps the explored volume balanced.
        if len(frontier_s) <= len(frontier_t):
            frontier, dist_near, dist_far = frontier_s, dist_s, dist_t
            radius_s += 1
            radius = radius_s
        else:
            frontier, dist_near, dist_far = frontier_t, dist_t, dist_s
            radius_t += 1
            radius = radius_t
        nxt: list[int] = []
        best: int | None = None
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist_near:
                    dist_near[v] = radius
                    nxt.append(v)
                    other = dist_far.get(v)
                    if other is not None:
                        total = radius + other
                        if best is None or total < best:
                            best = total
        if best is not None:
            # The first level at which the balls touch realizes the
            # true distance; any meeting node gives a valid path and the
            # minimum over this level's meetings is exact.
            return best
        if frontier is frontier_s:
            frontier_s = nxt
        else:
            frontier_t = nxt
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
    histogram: dict[int, int] = {}
    for d in g.degrees:
        histogram[d] = histogram.get(d, 0) + 1
    histogram = dict(sorted(histogram.items()))
    min_degree = min(histogram)
    max_degree = max(histogram)
    exponent = _fit_exponent(histogram)
    return DegreeStats(
        histogram=histogram,
        min_degree=min_degree,
        max_degree=max_degree,
        fitted_exponent=exponent,
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
