"""Greedy shortcutting of delivered routes.

A found route tends to wander through hubs.  Each node on it, however,
knows its own neighbors, so the endpoints can squeeze the route after the
fact without any extra network knowledge: starting from the target, find
the earliest listed node adjacent to it, jump there, and repeat until the
source is reached.  The kept nodes form a much shorter simple path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RouteError
from .graphs import Graph, Route, _check_node, _first_in_row

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
    # The hops and the scan below probe sorted rows: no neighbor set is built.
    adjacency = g.adjacency
    for a, b in zip(nodes, nodes[1:]):
        if _first_in_row(adjacency[a], (b,)) < 0:
            raise RouteError(f"route nodes {a} and {b} are not adjacent")
    if len(set(nodes)) != len(nodes):
        raise RouteError("route revisits a node")
    kept = [nodes[-1]]
    current = len(nodes) - 1
    while current > 0:
        # The node right before `current` is adjacent by construction, so
        # this always stops at an index < current.
        current = _first_in_row(adjacency[nodes[current]], nodes)
        kept.append(nodes[current])
    return RefinementResult(original=route, refined=Route(tuple(reversed(kept))))
