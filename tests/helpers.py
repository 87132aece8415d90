"""Shared fixtures-in-spirit for the test suite: random graphs and oracles."""

import gc
import random
import tracemalloc

from degreesearch import (
    BaConfig,
    EdgeListError,
    Graph,
    IdMap,
    SearchRecord,
    VariantSpec,
    bfs_distances,
    build_graph,
    pair_distance,
    refine_route,
    shortest_path,
)
from degreesearch.graphs import components

# The seven variants of the canonical acceptance plan.
CANONICAL_VARIANTS = (
    VariantSpec(visibility_h=1),
    VariantSpec(visibility_h=2),
    VariantSpec(visibility_h=3),
    VariantSpec(visibility_h=2, consult_budget_c=2),
    VariantSpec(visibility_h=2, consult_budget_c=3),
    VariantSpec(visibility_h=2, consult_budget_c=5),
    VariantSpec(visibility_h=2, refine=True),
)


def star5():
    """Hub 0 joined to leaves 1..4."""
    return build_graph([(0, i) for i in range(1, 5)], 5)


def path(n):
    """The path 0 - 1 - ... - (n - 1)."""
    return build_graph([(i, i + 1) for i in range(n - 1)], n)


def random_graph(rng, n, p, ensure_connected=False):
    """Erdos-Renyi style G(n, p) graph, optionally stitched connected."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    if ensure_connected:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            edges.append((a, b))
    return build_graph(edges, n)


def traced(fn):
    """``(fn(), peak, retained)``: the peak and the retained memory that
    tracemalloc sees during the call, above what came before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, retained - base


def config_model(n, tau, k_min, seed):
    """Erased configuration model: each node draws a degree ``k`` with
    probability proportional to ``k ** -tau`` for ``k_min <= k < n``, the
    stubs are paired at random (an odd one out is dropped), and
    ``build_graph`` erases the self-loops and repeated edges."""
    rng = random.Random(seed)
    ks = range(k_min, n)
    degrees = rng.choices(ks, [k**-tau for k in ks], k=n)
    stubs = [u for u, k in enumerate(degrees) for _ in range(k)]
    rng.shuffle(stubs)
    return build_graph(zip(stubs[0::2], stubs[1::2]), n)


def random_simple_path(rng, g, max_len=30):
    """Random walk without node revisits; always a valid simple route."""
    start = rng.randrange(g.node_count)
    nodes = [start]
    seen = {start}
    while len(nodes) <= max_len:
        fresh = [w for w in g.neighbors(nodes[-1]) if w not in seen]
        if not fresh:
            break
        nxt = fresh[rng.randrange(len(fresh))]
        nodes.append(nxt)
        seen.add(nxt)
    return nodes


def loop_erase(nodes):
    """The plain loop erasure of a walk: a node met again truncates the
    partial path back to its first occurrence."""
    position = {}
    out = []
    for node in nodes:
        at = position.get(node)
        if at is None:
            position[node] = len(out)
            out.append(node)
        else:
            for dropped in out[at + 1 :]:
                del position[dropped]
            del out[at + 1 :]
    return tuple(out)


def pivot_indices(result):
    """Positions in ``result.original`` of the refined route's nodes but the
    last, from the target back: the order refinement picks them, which is
    descending when it only ever jumps backwards."""
    position = {node: i for i, node in enumerate(result.original.nodes)}
    return tuple(position[node] for node in reversed(result.refined.nodes[:-1]))


def check_refinement_laws(g, result):
    """Assert the laws of one ``refine_route`` result: it keeps the
    endpoints, it is a simple path of adjacent hops, no longer than the
    original and no shorter than the distance, its pivots descend to 0,
    and refining it again changes nothing."""
    nodes, refined = result.original.nodes, result.refined.nodes
    assert refined[0] == nodes[0] and refined[-1] == nodes[-1]
    assert len(set(refined)) == len(refined)
    for a, b in zip(refined, refined[1:]):
        assert g.has_edge(a, b)
    assert result.refined.length <= result.original.length
    assert result.refined.length >= pair_distance(g, nodes[0], nodes[-1])
    if len(nodes) > 1:
        pivots = pivot_indices(result)
        assert pivots[-1] == 0
        assert all(a > b for a, b in zip(pivots, pivots[1:]))
    assert refine_route(g, result.refined).refined == result.refined


def floyd_warshall(g):
    """Brute-force all-pairs distances; None where unreachable."""
    n = g.node_count
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for u in range(n):
        dist[u][u] = 0
        for v in g.neighbors(u):
            dist[u][v] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return [[None if d == inf else int(d) for d in row] for row in dist]


def reference_load_edge_list(path, take_giant_component=True):
    """The plain definition of ``load_edge_list``: a set of string pairs.

    Every non-blank, non-``#`` line holds two labels; self-loops and
    repeated edges in either orientation are dropped; the labels of the
    surviving pairs are ordered by integer value then string, or by string
    when one is not an integer; the giant component is the largest, ties
    to the one holding the smallest ID, with its labels ordered afresh.
    """
    pairs = set()
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 2:
                raise EdgeListError(
                    f"expected two tokens, got {len(tokens)}", path=path, line_no=line_no
                )
            a, b = tokens
            if a == b:
                continue
            pairs.add((a, b) if a < b else (b, a))
    if not pairs:
        raise EdgeListError("no usable edges in file", path=path)
    g, id_map = _reference_indexed(pairs)
    if take_giant_component:
        giant = max(components(g), key=len)
        names = id_map.internal_to_external
        g, id_map = _reference_indexed(
            {(names[u], names[v]) for u in giant for v in g.adjacency[u] if u < v}
        )
    return g, id_map


def _reference_indexed(pairs):
    labels = {label for pair in pairs for label in pair}
    try:
        ordered = sorted(labels, key=lambda s: (int(s), s))
    except ValueError:
        ordered = sorted(labels)
    index = {label: i for i, label in enumerate(ordered)}
    g = build_graph([(index[a], index[b]) for a, b in pairs], len(ordered))
    return g, IdMap(index, ordered)


def reference_generate_ba(cfg):
    """The plain definition of ``generate_ba``: an explicit edge list.

    The seed clique's edges, then each newcomer's ``m_attach`` distinct
    targets in ascending order, drawn from an urn holding each edge's two
    endpoints (uniform over existing nodes while the urn is empty) with
    repeated targets redrawn.
    """
    rng = random.Random(cfg.rng_seed)
    edges = []
    urn = []
    for i in range(cfg.seed_size):
        for j in range(i + 1, cfg.seed_size):
            edges.append((i, j))
            urn.append(i)
            urn.append(j)
    for v in range(cfg.seed_size, cfg.n):
        chosen = set()
        while len(chosen) < cfg.m_attach:
            if urn:
                candidate = urn[rng.randrange(len(urn))]
            else:
                candidate = rng.randrange(v)
            chosen.add(candidate)
        for target in sorted(chosen):
            edges.append((target, v))
            urn.append(target)
            urn.append(v)
    return build_graph(edges, cfg.n)


def check_graph_invariants(g):
    assert isinstance(g, Graph)
    assert g.node_count == len(g.adjacency)
    for u, row in enumerate(g.adjacency):
        assert list(row) == sorted(set(row)), f"adjacency of {u} not sorted unique"
        assert u not in row, f"self-loop at {u}"
        assert g.degree(u) == len(row)
        for v in row:
            assert 0 <= v < g.node_count
            assert u in g.adjacency[v], f"edge {u}-{v} not symmetric"
    assert g.edge_count == sum(g.degrees) // 2


def summarize_csv_rows(rows):
    """Recompute per-variant summary statistics from parsed CSV rows.

    Mirrors the documented summary definitions so the pipeline output can
    be cross-checked from its own records file.  Returns a dict keyed by
    variant label with plain-dict summaries (histogram keys as ints).
    """
    order = []
    grouped = {}
    for row in rows:
        label = row["variant"]
        if label not in grouped:
            grouped[label] = []
            order.append(label)
        grouped[label].append(row)
    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else None

    out = {}
    for label in order:
        rows_v = grouped[label]
        ok = [r for r in rows_v if r["outcome"] == "found"]
        walks = [int(r["walk_steps"]) for r in ok]
        refined = [int(r["refined_length"]) for r in ok if r["refined_length"] != ""]
        hist = {}
        for n in walks:
            hist[n] = hist.get(n, 0) + 1
        out[label] = {
            "total_searches": len(rows_v),
            "successful_searches": len(ok),
            "success_rate": len(ok) / len(rows_v) if rows_v else 0.0,
            "mean_walk_steps": mean(walks),
            "mean_route_length": mean(int(r["route_length"]) for r in ok),
            "mean_refined_length": mean(refined),
            "max_refined_length": max(refined) if refined else None,
            "fraction_under_10": (
                sum(1 for n in walks if n < 10) / len(walks) if walks else None
            ),
            "mean_consults": mean(int(r["consults"]) for r in ok),
            "length_histogram": dict(sorted(hist.items())),
            "oracle_mean_shortest_path": mean(
                int(r["oracle_distance"]) for r in ok if r["oracle_distance"] != ""
            ),
        }
    return out


def _fold(*parts):
    """splitmix64 over the parts in turn: the seed of one pair stream or search."""
    mask = (1 << 64) - 1
    acc = 0
    for part in parts:
        x = ((acc ^ (part & mask)) + 0x9E3779B97F4A7C15) & mask
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
        acc = x ^ (x >> 31)
    return acc


def reference_walk(g, s, t, variant, seed):
    """The plain definition of one search: ``(outcome, walk, via, consults)``.

    At each position: stop if the target is within ``h`` hops; else ask up
    to ``c`` neighbors never occupied nor asked before, highest degree
    first then lowest ID, and stop at the first that has the target within
    two hops; else give up once the moves reach the cap; else enter the
    highest-degree neighbor never occupied (a uniform ``randrange`` pick
    among several tied, by ascending ID); else fall back to the node this
    one was first entered from, or give up at the source.
    """
    # The graph is undirected, so distances from the target answer each
    # ``khop_contains(g, x, t, h)`` with one BFS per search.
    to_target = bfs_distances(g, t)

    def sees(x, h):
        return to_target[x] is not None and to_target[x] <= h

    cap = g.node_count if variant.step_cap is None else variant.step_cap
    rng = random.Random(seed)
    walk = [s]
    entered_from = {s: None}
    asked = set()
    while True:
        pos = walk[-1]
        if sees(pos, variant.visibility_h):
            return "found", walk, pos, len(asked)
        ranked = sorted(g.neighbors(pos), key=lambda w: (-g.degree(w), w))
        fresh = [w for w in ranked if w not in entered_from]
        for w in [w for w in fresh if w not in asked][: variant.consult_budget_c]:
            asked.add(w)
            if sees(w, 2):
                return "found", walk, w, len(asked)
        if len(walk) - 1 >= cap:
            return "step_cap_exhausted", walk, None, len(asked)
        if fresh:
            tied = [w for w in fresh if g.degree(w) == g.degree(fresh[0])]
            nxt = tied[rng.randrange(len(tied))] if len(tied) > 1 else tied[0]
            entered_from[nxt] = pos
        elif entered_from[pos] is not None:
            nxt = entered_from[pos]
        else:
            return "stuck_at_source", walk, None, len(asked)
        walk.append(nxt)


def reference_refined_length(g, nodes):
    """Hops after refinement: from the target back, jump to the earliest
    route node adjacent to the current one, until the source."""
    kept = [len(nodes) - 1]
    while kept[-1] > 0:
        kept.append(next(i for i in range(kept[-1]) if g.has_edge(nodes[i], nodes[kept[-1]])))
    return len(kept) - 1


def reference_records(plan):
    """The plain definition of ``run_experiment(plan).records``.

    Each round samples its pairs from seed ``fold(master, 1, round)``:
    ``s`` then ``t`` uniform, ``t`` redrawn while it equals ``s``.  Each
    (pair, variant) search runs ``reference_walk`` seeded with
    ``fold(master, 2, round, pair, variant index)``.  A found route is the
    loop erasure of the walk, the node that answered and the
    ``shortest_path`` tail from it; the oracle is ``bfs_distances``.
    """
    if isinstance(plan.topology, BaConfig):
        g = reference_generate_ba(plan.topology)
    else:
        g = reference_load_edge_list(plan.topology)[0]
    records = []
    for round_index in range(plan.rounds):
        rng = random.Random(_fold(plan.master_seed, 1, round_index))
        for pair_index in range(plan.pairs_per_round):
            s = rng.randrange(g.node_count)
            t = rng.randrange(g.node_count)
            while t == s:
                t = rng.randrange(g.node_count)
            oracle = bfs_distances(g, s)[t]
            for vi, var in enumerate(plan.variants):
                seed = _fold(plan.master_seed, 2, round_index, pair_index, vi)
                outcome, walk, via, consults = reference_walk(g, s, t, var, seed)
                route_length = refined_length = None
                if outcome == "found":
                    route = loop_erase([*walk, *shortest_path(g, via, t).nodes])
                    route_length = len(route) - 1
                    if var.refine:
                        refined_length = reference_refined_length(g, route)
                records.append(
                    SearchRecord(
                        round_index, pair_index, s, t, var.label, outcome,
                        len(walk) - 1, route_length, refined_length, consults, oracle,
                    )
                )
    return records
