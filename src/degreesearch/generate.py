"""Scale-free graph generation by preferential attachment."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ConfigError
from .graphs import Graph, _graph_from_rows

__all__ = ["BaConfig", "generate_ba"]


@dataclass(frozen=True)
class BaConfig:
    """Parameters for the Barabasi-Albert generator.

    Attributes:
        n: Total number of nodes.
        m_attach: Edges each newcomer attaches to existing nodes.
        seed_size: Size of the initial complete clique; ``None`` means
            ``max(3, m_attach)``.
        rng_seed: Seed for the generator's private RNG.
    """

    n: int
    m_attach: int = 3
    seed_size: int | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.seed_size is None:
            object.__setattr__(self, "seed_size", max(3, self.m_attach))
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
    targets rejected and redrawn; the urn is empty only for a one-node
    seed's first newcomer, which draws from the existing nodes.  One draw,
    ``pool[randrange(len(pool))]`` taken straight from ``getrandbits`` by
    CPython's rejection rule, serves both; the tests pin its values and RNG
    state.  Adjacency rows are filled as edges are made, sorted and unique.

    The same ``BaConfig`` always yields the same graph, and for a fixed
    ``rng_seed`` the graph at ``n`` nodes is a subgraph of the graph at any
    larger ``n``.

    Args:
        cfg: Generation parameters.

    Returns:
        A connected graph with ``C(seed_size, 2) + m_attach * (n - seed_size)``
        edges.
    """
    getrandbits = random.Random(cfg.rng_seed).getrandbits
    m_attach = cfg.m_attach
    rows: list[list[int]] = [[] for _ in range(cfg.seed_size)]
    # Every edge drops both endpoints in the urn, so each node is in it once
    # per unit of degree.
    urn: list[int] = []
    for i in range(cfg.seed_size):
        for j in range(i + 1, cfg.seed_size):
            rows[i].append(j)
            rows[j].append(i)
            urn.append(i)
            urn.append(j)
    for v in range(cfg.seed_size, cfg.n):
        chosen: set[int] = set()
        # The urn is empty only for the first newcomer of a one-node seed,
        # which then picks uniformly among the existing nodes.
        pool = urn or range(v)
        # pool[randrange(size)], drawn as CPython's _randbelow does: take
        # size.bit_length() random bits and redraw when they reach size.
        size = len(pool)
        k = size.bit_length()
        while len(chosen) < m_attach:
            r = getrandbits(k)
            if r < size:
                chosen.add(pool[r])
        # Targets are distinct and in ascending order, and every later
        # append to a row is a newer, larger ID: rows stay sorted and free
        # of repeats.
        row = sorted(chosen)
        rows.append(row)
        for target in row:
            rows[target].append(v)
            urn.append(target)
            urn.append(v)
    del urn
    return _graph_from_rows(rows, tuple)
