"""Scale-free graph generation by preferential attachment."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigError
from .graphs import Graph, build_graph

__all__ = ["BaConfig", "generate_ba"]


@dataclass(frozen=True)
class BaConfig:
    """Parameters for the Barabasi-Albert generator.

    Attributes:
        n: Total number of nodes.
        m_attach: Edges each newcomer attaches to existing nodes.
        seed_size: Size of the initial complete clique.
        rng_seed: Seed for the generator's private RNG.
    """

    n: int
    m_attach: int = 3
    seed_size: int = 3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.m_attach <= self.seed_size < self.n:
            raise ConfigError(
                "require 1 <= m_attach <= seed_size < n, got "
                f"m_attach={self.m_attach}, seed_size={self.seed_size}, n={self.n}"
            )


def generate_ba(cfg: BaConfig) -> Graph:
    """Grow a Barabasi-Albert graph.

    Starts from a complete clique on ``seed_size`` nodes; every later node
    attaches ``m_attach`` edges to distinct existing nodes, chosen with
    probability proportional to current degree.  Degree-proportional
    sampling uses an urn holding each edge's two endpoints, with duplicate
    targets rejected and redrawn.

    The same ``BaConfig`` always yields the same graph, and for a fixed
    ``rng_seed`` the graph at ``n`` nodes is a subgraph of the graph at any
    larger ``n``.

    Args:
        cfg: Generation parameters.

    Returns:
        A connected graph with ``C(seed_size, 2) + m_attach * (n - seed_size)``
        edges.
    """
    rng = random.Random(cfg.rng_seed)
    # Edge k is (urn[2k], urn[2k + 1]): the urn is also the edge list.
    urn: list[int] = []
    for i in range(cfg.seed_size):
        for j in range(i + 1, cfg.seed_size):
            urn.append(i)
            urn.append(j)
    for v in range(cfg.seed_size, cfg.n):
        chosen: set[int] = set()
        while len(chosen) < cfg.m_attach:
            if urn:
                candidate = urn[rng.randrange(len(urn))]
            else:
                # Only reachable with seed_size == 1: no edge exists yet, so
                # fall back to a uniform pick among existing nodes.
                candidate = rng.randrange(v)
            if candidate not in chosen:
                chosen.add(candidate)
        for target in sorted(chosen):
            urn.append(target)
            urn.append(v)
    ends = iter(urn)
    return build_graph(zip(ends, ends), cfg.n)
