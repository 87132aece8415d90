"""Preferential-attachment generator behavior."""

import random

import pytest

from degreesearch import BaConfig, ConfigError, bfs_distances, generate_ba

from helpers import check_graph_invariants, reference_generate_ba, traced


def edge_set(g):
    return {(u, v) for u in range(g.node_count) for v in g.neighbors(u) if u < v}


def test_forced_complete_graph():
    g = generate_ba(BaConfig(n=4, m_attach=3, seed_size=3, rng_seed=7))
    assert edge_set(g) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_edge_count_formula():
    for n, m, m0 in [(50, 3, 3), (500, 3, 3), (200, 2, 4), (120, 5, 5)]:
        g = generate_ba(BaConfig(n=n, m_attach=m, seed_size=m0, rng_seed=1))
        clique = m0 * (m0 - 1) // 2
        assert g.edge_count == clique + m * (n - m0)


def test_determinism():
    cfg = BaConfig(n=300, m_attach=3, seed_size=3, rng_seed=42)
    assert generate_ba(cfg) == generate_ba(cfg)
    other = generate_ba(BaConfig(n=300, m_attach=3, seed_size=3, rng_seed=43))
    assert generate_ba(cfg) != other


def test_connected_and_valid():
    for seed in range(8):
        rng = random.Random(seed)
        n = rng.randrange(10, 200)
        m0 = rng.randrange(1, 6)
        m = rng.randrange(1, m0 + 1)
        g = generate_ba(BaConfig(n=n, m_attach=m, seed_size=m0, rng_seed=seed))
        check_graph_invariants(g)
        assert all(d is not None for d in bfs_distances(g, 0))


def test_min_degree_bound():
    g = generate_ba(BaConfig(n=400, m_attach=3, seed_size=3, rng_seed=5))
    assert min(g.degrees) >= 3


def test_growth_is_prefix_stable():
    # Same seed, growing n: earlier attachments never change, so each
    # smaller graph's edges are a subset and the top degree only grows.
    sizes = [20, 40, 80, 160]
    graphs = [
        generate_ba(BaConfig(n=n, m_attach=3, seed_size=3, rng_seed=11)) for n in sizes
    ]
    for small, big in zip(graphs, graphs[1:]):
        assert edge_set(small) <= edge_set(big)
    peaks = [max(g.degrees) for g in graphs]
    assert peaks == sorted(peaks)


def test_single_seed_node_builds_tree():
    g = generate_ba(BaConfig(n=10, m_attach=1, seed_size=1, rng_seed=3))
    assert g.edge_count == 9
    assert all(d is not None for d in bfs_distances(g, 0))


@pytest.mark.parametrize(
    "n, m, seed_size",
    [
        (2, 1, 1),
        (30, 1, 1),
        (200, 1, 1),
        (1100, 1, 1),
        (50, 2, 2),
        (300, 3, 3),
        (3000, 3, 3),
        (120, 3, 5),
        (80, 5, 5),
        (400, 40, 40),
    ],
)
def test_matches_reference_generator(n, m, seed_size):
    for seed in range(4):
        cfg = BaConfig(n=n, m_attach=m, seed_size=seed_size, rng_seed=seed)
        assert generate_ba(cfg) == reference_generate_ba(cfg)


def test_rejection_draw_matches_randrange():
    # generate_ba's single draw takes urn indices, and the first newcomer of
    # a one-node seed its n = 1 node index, as getrandbits(n.bit_length()),
    # redrawn while >= n; that must be the very draw randrange(n) makes,
    # leaving the RNG in the very same state.
    for seed in range(3):
        ours, theirs = random.Random(seed), random.Random(seed)
        for n in range(1, 4098):
            k = n.bit_length()
            r = ours.getrandbits(k)
            while r >= n:
                r = ours.getrandbits(k)
            expected = theirs.randrange(n)
            assert r == expected and ours.getstate() == theirs.getstate(), (
                f"generate_ba's draw below {n} gave {r}, randrange gave "
                f"{expected} (seed {seed}): this Python's randrange differs, "
                "and generate_ba's single draw, the n = 1 draw of a one-node "
                "seed included, depends on it"
            )


def test_generate_peak_memory_is_a_small_multiple_of_the_result():
    # Passing the urn's edges to build_graph peaked at 2.4x the memory of
    # the returned graph; filling the rows directly and turning each into
    # its tuple in place peaks at 1.6x.
    g, peak, retained = traced(
        lambda: generate_ba(BaConfig(n=20_000, m_attach=3, seed_size=3, rng_seed=5))
    )
    assert g.node_count == 20_000
    assert peak < 2 * retained, (peak, retained)


def test_config_validation():
    with pytest.raises(ConfigError):
        BaConfig(n=10, m_attach=4, seed_size=3)
    with pytest.raises(ConfigError):
        BaConfig(n=3, m_attach=3, seed_size=3)
    with pytest.raises(ConfigError):
        BaConfig(n=10, m_attach=0, seed_size=3)
    with pytest.raises(ConfigError):
        BaConfig(n=0, m_attach=1, seed_size=1)


def test_config_seed_clique_defaults_to_max_of_3_and_m():
    assert BaConfig(60).seed_size == 3
    assert BaConfig(60, 2).seed_size == 3
    assert BaConfig(60, 5) == BaConfig(60, 5, 5)


def test_hubs_attract_attachment():
    # Degree-proportional choice must leave early nodes far above the floor.
    g = generate_ba(BaConfig(n=2000, m_attach=3, seed_size=3, rng_seed=9))
    assert max(g.degrees) > 20
    assert max(g.degrees[:10]) > max(g.degrees[1000:])
