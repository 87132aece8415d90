"""Degree-greedy decentralized search with bounded local visibility.

A request starts at a source node and tries to locate a target using only
information available near its current position:

* Arrival check: a node "sees" the target when the target lies within
  ``visibility_h`` hops of it (h in {1, 2, 3}).  The search stops the
  moment the current node sees the target.
* Consultation (optional, only with h = 2): before moving on, the current
  node may ask up to ``consult_budget_c`` of its highest-degree neighbors
  that were never asked before in this search whether the target is within
  *their* two-hop horizon.  A positive answer also stops the search.
  Consultations are control messages; they are tallied separately and do
  not count against the movement cap.
* Forward: otherwise the request moves to the neighbor with the largest
  degree among those it has never occupied, breaking ties uniformly at
  random.
* Deflect: with no fresh neighbor available, the request falls back to the
  node it first arrived from, depth-first style.

The request gives up once forwards plus deflections reach ``step_cap``
(default: the node count), or when it would have to deflect out of the
source with nowhere left to go.

Every run is fully determined by the graph, the endpoints, and the config,
including its RNG seed.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from .errors import ConfigError, RouteError
from .graphs import Graph, Route, _check_node, bfs_distances

__all__ = [
    "SearchConfig",
    "SearchOutcome",
    "WalkTrace",
    "khop_contains",
    "run_search",
    "materialize_route",
    "walk_node_list",
]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one search run.

    Attributes:
        visibility_h: Hop radius of each node's own knowledge (1, 2 or 3).
        consult_budget_c: Max neighbors consulted per arrival; 0 disables
            consultation.  Only valid together with ``visibility_h == 2``.
        step_cap: Movement budget (forwards + deflections); ``None`` means
            the graph's node count.
        rng_seed: Seed for the walk's tie-breaking RNG.
    """

    visibility_h: int = 2
    consult_budget_c: int = 0
    step_cap: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.visibility_h not in (1, 2, 3):
            raise ConfigError(f"visibility_h must be 1, 2 or 3, got {self.visibility_h}")
        if self.consult_budget_c < 0:
            raise ConfigError(f"consult_budget_c must be >= 0, got {self.consult_budget_c}")
        if self.consult_budget_c > 0 and self.visibility_h != 2:
            raise ConfigError(
                "consultation extends two-hop knowledge: consult_budget_c > 0 "
                f"requires visibility_h = 2, got visibility_h = {self.visibility_h}"
            )
        if self.step_cap is not None and self.step_cap < 1:
            raise ConfigError(f"step_cap must be >= 1, got {self.step_cap}")


class SearchOutcome(enum.Enum):
    FOUND = "found"
    STEP_CAP_EXHAUSTED = "step_cap_exhausted"
    STUCK_AT_SOURCE = "stuck_at_source"


@dataclass(frozen=True)
class WalkTrace:
    """Complete record of one search run.

    ``occupied_sequence`` lists every position the request held, in order;
    deflections re-append the node fallen back to, so consecutive entries
    are always adjacent in the graph.  ``found_via`` is the node whose
    knowledge located the target (the final position, or the consulted
    neighbor that answered), ``None`` unless the outcome is ``FOUND``.
    """

    occupied_sequence: tuple[int, ...]
    forwards: int
    deflections: int
    consults: int
    outcome: SearchOutcome
    found_via: int | None

    @property
    def walk_steps(self) -> int:
        return self.forwards + self.deflections


def khop_contains(g: Graph, center: int, target: int, h: int) -> bool:
    """Whether ``target`` lies within ``h`` hops of ``center``.

    The plain definition over ``bfs_distances``, kept as the reference the
    search's own visibility checks are tested against.
    """
    _check_node(g, center, "center")
    _check_node(g, target, "target")
    if h < 1:
        raise ConfigError(f"h must be >= 1, got {h}")
    d = bfs_distances(g, center)[target]
    return d is not None and d <= h


def _ball(g: Graph, center: int, h: int) -> set[int]:
    """All nodes within ``h`` hops of ``center``, including it."""
    adjacency = g.adjacency
    ball = {center}
    frontier = [center]
    for _ in range(h):
        nxt: list[int] = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in ball:
                    ball.add(v)
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    return ball


def run_search(g: Graph, source: int, target: int, cfg: SearchConfig) -> WalkTrace:
    """Run one decentralized search and return its full trace.

    The procedure at each occupied node: arrival check first, then
    consultations, and only then the movement-cap check, so a request that
    reaches a node always gets to look around; the cap limits movement
    only.  Forwarding prefers the highest-degree never-occupied neighbor
    (ties resolved uniformly at random from the seeded RNG); with none
    left the request deflects to the node it was first entered from.

    Raises:
        NodeIdError: If an endpoint is out of range.
        ConfigError: Propagated from an invalid ``SearchConfig``.
    """
    _check_node(g, source, "source")
    _check_node(g, target, "target")
    h = cfg.visibility_h
    budget = cfg.consult_budget_c
    step_cap = cfg.step_cap if cfg.step_cap is not None else g.node_count
    rng = random.Random(cfg.rng_seed)

    degrees = g.degrees
    ranked = g.neighbors_by_degree
    neighbor_sets = g.neighbor_sets
    # The walk only ever needs "is the target within h hops of here".
    # Distance is symmetric, so precompute the target's ball once: radius
    # h for h <= 2, and for h = 3 the radius-2 ball plus one adjacency
    # probe per arrival (the radius-3 ball itself can cover most of a
    # scale-free graph, the probe is far cheaper).
    ball = _ball(g, target, min(h, 2))

    occupied = {source}
    sequence = [source]
    entry_stack: list[int] = []
    scan_from: dict[int, int] = {}
    consulted: set[int] = {source}
    forwards = 0
    deflections = 0
    consults = 0
    found_via: int | None = None
    outcome: SearchOutcome | None = None
    current = source

    while True:
        # (0) arrival check
        if current in ball or (h == 3 and not ball.isdisjoint(neighbor_sets[current])):
            outcome = SearchOutcome.FOUND
            found_via = current
            break
        # (0b) consultation, highest degree first, never the same node twice
        if budget:
            asked = 0
            positive: int | None = None
            for w in ranked[current]:
                if asked == budget:
                    break
                if w in consulted:
                    continue
                consulted.add(w)
                consults += 1
                asked += 1
                if w in ball:
                    positive = w
                    break
            if positive is not None:
                outcome = SearchOutcome.FOUND
                found_via = positive
                break
        if forwards + deflections >= step_cap:
            outcome = SearchOutcome.STEP_CAP_EXHAUSTED
            break
        # (1) forward: highest-degree neighbor never occupied before.
        # Occupation is permanent within a run, so each node's scan
        # position only ever moves right.
        nbrs = ranked[current]
        n = len(nbrs)
        i = scan_from.get(current, 0)
        while i < n and nbrs[i] in occupied:
            i += 1
        scan_from[current] = i
        if i < n:
            best = nbrs[i]
            top = degrees[best]
            tied = [best]
            j = i + 1
            while j < n:
                w = nbrs[j]
                if degrees[w] != top:
                    break
                if w not in occupied:
                    tied.append(w)
                j += 1
            chosen = tied[0] if len(tied) == 1 else tied[rng.randrange(len(tied))]
            entry_stack.append(current)
            current = chosen
            occupied.add(chosen)
            consulted.add(chosen)
            sequence.append(chosen)
            forwards += 1
        else:
            # (2) deflect to the node this one was first entered from
            if not entry_stack:
                outcome = SearchOutcome.STUCK_AT_SOURCE
                break
            current = entry_stack.pop()
            sequence.append(current)
            deflections += 1

    return WalkTrace(
        occupied_sequence=tuple(sequence),
        forwards=forwards,
        deflections=deflections,
        consults=consults,
        outcome=outcome,
        found_via=found_via,
    )


def _tail(g: Graph, via: int, target: int) -> list[int]:
    """The nodes after ``via`` on the reference shortest path to ``target``.

    The search stops only once ``via`` sees the target, so the distance is
    at most 3 and neighbor-set lookups replace a BFS.  Walking back from
    the target, each step takes the smallest-ID neighbor one hop closer to
    ``via``: the same rule as the BFS oracle in ``graphs``.

    Raises:
        RouteError: If the target is more than 3 hops from ``via``.
    """
    if via == target:
        return []
    adjacency = g.adjacency
    neighbor_sets = g.neighbor_sets
    near = neighbor_sets[via]
    if target in near:
        return [target]
    for m in adjacency[target]:
        if m in near:
            return [m, target]
    for b in adjacency[target]:
        if not near.isdisjoint(neighbor_sets[b]):
            a = next(a for a in adjacency[b] if a in near)
            return [a, b, target]
    raise RouteError(
        f"trace claims the target was seen from {via}, but {target} is more than 3 hops away"
    )


def walk_node_list(g: Graph, trace: WalkTrace, target: int) -> tuple[int, ...]:
    """Full delivered node list of a successful search, repeats included.

    The occupied sequence, extended through the consulted neighbor when
    one answered, then along a shortest path to the target inside the
    three-hop neighborhood the search saw.  Consecutive entries are
    adjacent; nodes may repeat wherever the walk deflected or the tail
    re-enters walked ground.
    """
    if trace.outcome is not SearchOutcome.FOUND:
        raise RouteError(
            f"cannot materialize a route from outcome {trace.outcome.value}"
        )
    _check_node(g, target, "target")
    via = trace.found_via
    _check_node(g, via, "found_via")
    nodes = list(trace.occupied_sequence)
    if via != nodes[-1]:
        # Found through a consulted neighbor: route detours over it.
        nodes.append(via)
    nodes.extend(_tail(g, via, target))
    return tuple(nodes)


def materialize_route(g: Graph, trace: WalkTrace, target: int) -> Route:
    """Turn a successful trace into a simple source-to-target path.

    The delivered node list (see ``walk_node_list``) is loop-erased: while
    scanning it, meeting an already-collected node truncates the partial
    route back to that node's first occurrence.

    Raises:
        RouteError: If the trace did not find the target.
    """
    full = walk_node_list(g, trace, target)
    position: dict[int, int] = {}
    out: list[int] = []
    for node in full:
        at = position.get(node)
        if at is None:
            position[node] = len(out)
            out.append(node)
        else:
            for dropped in out[at + 1 :]:
                del position[dropped]
            del out[at + 1 :]
    return Route(tuple(out))
