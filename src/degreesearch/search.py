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
from bisect import bisect_left
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
    are always adjacent in the graph.  ``path`` is the loop erasure of
    ``occupied_sequence``: scanning it, a node met again truncates the
    partial path back to its first occurrence.  The walk holds exactly that
    as its depth-first stack of entry points plus the final position,
    because a forward only enters a node never occupied before and a
    deflection falls back to the node's entry point, where the erasure
    cuts.  ``found_via`` is the node whose knowledge located the target
    (the final position, or the consulted neighbor that answered), ``None``
    unless the outcome is ``FOUND``.

    The counts: ``forwards`` is the number of distinct nodes entered after
    the source, ``deflections`` the remaining moves of
    ``occupied_sequence``, and ``consults`` the number of distinct nodes
    asked by consultation.
    """

    occupied_sequence: tuple[int, ...]
    path: tuple[int, ...]
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
    rng: random.Random | None = None  # built at the first tie, few walks meet one

    adjacency, degrees = g.adjacency, g.degrees
    # The degree ranking of each occupied node, built on first use.
    ranked, fill = g.neighbors_by_degree, g._fill_ranking
    # "Is the target within h hops of x" from one set per search: ``ball``
    # is every node within min(h, 2) hops of the target, and x is within
    # three hops when a neighbor of x is in it.  A walk meets the target
    # itself only at the source: it enters nodes from neighbors that see it.
    near = adjacency[target]
    ball = set(near).union(*map(adjacency.__getitem__, near)) if h > 1 else set(near)

    occupied = {source}
    sequence = [source]
    entry_stack: list[int] = []  # the DFS stack of entry points
    asked: set[int] = set()  # by consultation; occupied nodes answer for themselves
    found_via: int | None = source if source == target else None
    outcome = SearchOutcome.FOUND  # unless a failure below says otherwise
    current = source

    while found_via is None:
        # (0) arrival check
        if current in ball or (h == 3 and not ball.isdisjoint(adjacency[current])):
            found_via = current
            break
        nbrs = ranked[current] or fill(current)
        # (0b) consultation, highest degree first, never the same node twice
        if budget:
            quota = budget
            for w in nbrs:
                if w in occupied or w in asked:
                    continue
                asked.add(w)
                if w in ball:
                    found_via = w
                    break
                quota -= 1
                if not quota:
                    break
            if found_via is not None:
                break
        if len(sequence) > step_cap:  # the moves, len(sequence) - 1, reach the cap
            outcome = SearchOutcome.STEP_CAP_EXHAUSTED
            break
        # (1) forward: highest-degree neighbor never occupied before.  The
        # scan restarts at 0: occupation is permanent, so a node the walk
        # falls back to only passes again the occupied prefix it passed before.
        n = len(nbrs)
        i = 0
        while i < n and nbrs[i] in occupied:
            i += 1
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
            if len(tied) > 1:
                rng = rng or random.Random(cfg.rng_seed)
                best = tied[rng.randrange(len(tied))]
            entry_stack.append(current)
            current = best
            occupied.add(best)
            sequence.append(best)
        else:
            # (2) deflect to the node this one was first entered from
            if not entry_stack:
                outcome = SearchOutcome.STUCK_AT_SOURCE
                break
            current = entry_stack.pop()
            sequence.append(current)

    # A forward enters a node never occupied before; other moves deflect.
    return WalkTrace(
        occupied_sequence=tuple(sequence),
        path=(*entry_stack, current),
        forwards=len(occupied) - 1,
        deflections=len(sequence) - len(occupied),
        consults=len(asked),
        outcome=outcome,
        found_via=found_via,
    )


def _tail(g: Graph, via: int, target: int) -> list[int]:
    """The nodes after ``via`` on the reference shortest path to ``target``.

    The search stops only once ``via`` sees the target, so the distance is
    at most 3 and a few adjacency rows replace a BFS: one and two hops
    bisect the sorted row of ``via``, and only a three-hop tail asks for
    its neighbor set.  Walking back from the target, each step takes the
    smallest-ID neighbor one hop closer to ``via``: the same rule as the
    BFS oracle in ``graphs``.

    Raises:
        RouteError: If the target is more than 3 hops from ``via``.
    """
    if via == target:
        return []
    adjacency = g.adjacency
    row = adjacency[via]
    i = bisect_left(row, target)
    if i < len(row) and row[i] == target:
        return [target]
    for m in adjacency[target]:
        i = bisect_left(row, m)
        if i < len(row) and row[i] == m:
            return [m, target]
    near = g.neighbor_set(via)
    for b in adjacency[target]:
        if not near.isdisjoint(adjacency[b]):
            a = next(a for a in adjacency[b] if a in near)
            return [a, b, target]
    raise RouteError(
        f"trace claims the target was seen from {via}, but {target} is more than 3 hops away"
    )


def materialize_route(g: Graph, trace: WalkTrace, target: int) -> Route:
    """Turn a successful trace into a simple source-to-target path.

    The trace's loop-erased walk (``WalkTrace.path``), extended through the
    consulted neighbor when one answered, then along a shortest path to the
    target inside the three-hop neighborhood the search saw.  An appended
    node already on the route truncates it back to that node, so the
    result is the loop erasure of the whole delivered walk.

    Raises:
        RouteError: If the trace did not find the target, names no
            ``found_via``, or its ``found_via`` is more than 3 hops from
            the target.
        NodeIdError: If ``target`` or ``found_via`` is outside
            ``[0, g.node_count)``.
    """
    via = trace.found_via
    if trace.outcome is not SearchOutcome.FOUND or via is None:
        raise RouteError(
            f"cannot materialize a route from outcome {trace.outcome.value}, found_via {via}"
        )
    _check_node(g, target, "target")
    _check_node(g, via, "found_via")
    nodes = list(trace.path)
    # Found through a consulted neighbor: the route detours over it.
    leg = [via] if via != nodes[-1] else []
    for node in leg + _tail(g, via, target):
        if node in nodes:
            del nodes[nodes.index(node) + 1 :]
        else:
            nodes.append(node)
    return Route(tuple(nodes))
