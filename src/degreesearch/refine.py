"""Greedy shortcutting of delivered routes.

A found route tends to wander through hubs.  Each node on it, however,
knows its own neighbors, so the endpoints can squeeze the route after the
fact without any extra network knowledge: starting from the target, find
the earliest listed node adjacent to it, jump there, and repeat until the
source is reached.  The kept nodes form a much shorter simple path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import RouteError
from .graphs import Graph, Route, _check_node

__all__ = ["RefinementResult", "refine_route"]


@dataclass(frozen=True)
class RefinementResult:
    """Outcome of refining one route: the input and its shortcut."""

    original: Route
    refined: Route


def refine_route(g: Graph, route: Route) -> RefinementResult:
    """Shortcut a simple delivered route.

    The result is again a simple path over the same endpoints, never
    longer than the input, and refining it a second time changes nothing.

    Raises:
        RouteError: If ``route`` is empty, revisits a node, or has
            non-adjacent consecutive nodes.
        NodeIdError: If a route node is outside ``[0, g.node_count)``.
    """
    nodes = route.nodes
    if not nodes:
        raise RouteError("route has no nodes")
    for node in nodes:
        _check_node(g, node)
    # The hops, and the scan below, bisect the sorted adjacency rows: no
    # neighbor set is built.
    adjacency = g.adjacency
    for a, b in zip(nodes, nodes[1:]):
        row = adjacency[a]
        i = bisect_left(row, b)
        if i == len(row) or row[i] != b:
            raise RouteError(f"route nodes {a} and {b} are not adjacent")
    if len(set(nodes)) != len(nodes):
        raise RouteError("route revisits a node")
    kept = [nodes[-1]]
    current = len(nodes) - 1
    while current > 0:
        row = adjacency[nodes[current]]
        # The node right before `current` is adjacent by construction, so
        # this always stops at an index < current.
        for i, x in enumerate(nodes):
            j = bisect_left(row, x)
            if j < len(row) and row[j] == x:
                break
        kept.append(x)
        current = i
    return RefinementResult(original=route, refined=Route(tuple(reversed(kept))))
