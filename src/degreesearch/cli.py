"""Command-line entry points: generate, run, stats."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, DegreeSearchError
from .experiment import ExperimentPlan, VariantSpec, emit_csv, emit_histogram, run_experiment, sample_pairs
from .generate import BaConfig, generate_ba
from .graphs import components, degree_stats, pair_distance
from .topology import giant_component, load_edge_list, save_edge_list


def _parse_ba(text: str) -> tuple[int, int]:
    try:
        n_text, m_text = text.split(",")
        return int(n_text), int(m_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NODES,M_ATTACH (e.g. 10000,3), got {text!r}"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degreesearch",
        description="Simulate degree-greedy decentralized search on scale-free networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a preferential-attachment graph")
    gen.add_argument("--nodes", type=int, required=True, help="number of nodes")
    gen.add_argument("--m-attach", type=int, default=3, help="edges per new node (default 3)")
    gen.add_argument(
        "--seed-size",
        type=int,
        default=None,
        help="initial clique size (default: max(3, m-attach))",
    )
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument("--out", required=True, help="edge-list file to write")

    run = sub.add_parser("run", help="run a search experiment")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--topology", help="edge-list file (giant component is used)")
    source.add_argument(
        "--ba",
        type=_parse_ba,
        metavar="NODES,M",
        help="generate a preferential-attachment graph instead",
    )
    run.add_argument("--h", type=int, default=2, choices=(1, 2, 3), help="visibility radius (default 2)")
    run.add_argument("--consult", type=int, default=0, help="consultations per arrival (default 0, needs --h 2)")
    run.add_argument("--refine", action="store_true", help="also refine delivered routes")
    run.add_argument("--pairs", type=int, default=500, help="pairs per round (default 500)")
    run.add_argument("--rounds", type=int, default=10, help="rounds (default 10)")
    run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    run.add_argument("--step-cap", type=int, default=None, help="movement cap (default: node count)")
    run.add_argument("--workers", type=int, default=1, help="parallel workers (default 1)")
    run.add_argument("--bin-width", type=int, default=10, help="histogram bin width (default 10)")
    run.add_argument("--out-dir", required=True, help="directory for result files")

    stats = sub.add_parser("stats", help="summarize a topology file")
    stats.add_argument("--topology", required=True, help="edge-list file")
    stats.add_argument("--pairs", type=int, default=500, help="pairs sampled for the mean shortest path (default 500)")
    stats.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    seed_size = args.seed_size if args.seed_size is not None else max(3, args.m_attach)
    cfg = BaConfig(
        n=args.nodes,
        m_attach=args.m_attach,
        seed_size=seed_size,
        rng_seed=args.seed,
    )
    g = generate_ba(cfg)
    save_edge_list(g, args.out)
    print(f"wrote {g.node_count} nodes, {g.edge_count} edges to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.ba is not None:
        n, m = args.ba
        topology: BaConfig | str = BaConfig(
            n=n, m_attach=m, seed_size=max(3, m), rng_seed=args.seed
        )
    else:
        topology = args.topology
    variant = VariantSpec(
        visibility_h=args.h,
        consult_budget_c=args.consult,
        refine=args.refine,
        step_cap=args.step_cap,
    )
    plan = ExperimentPlan(
        topology=topology,
        variants=(variant,),
        pairs_per_round=args.pairs,
        rounds=args.rounds,
        master_seed=args.seed,
        workers=args.workers,
    )
    if args.bin_width < 1:
        raise ConfigError(f"--bin-width must be >= 1, got {args.bin_width}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(plan)
    emit_csv(
        result.summaries,
        result.records,
        out_dir / "searches.csv",
        out_dir / "summary.json",
    )
    emit_histogram(result.records, args.bin_width, out_dir / "histogram.csv")
    for summary in result.summaries:
        mean_steps = summary.mean_walk_steps
        steps_text = "n/a" if mean_steps is None else f"{mean_steps:.2f}"
        line = (
            f"{summary.variant}: {summary.successful_searches}/{summary.total_searches} found, "
            f"mean walk steps {steps_text}"
        )
        if summary.mean_refined_length is not None:
            line += f", mean refined length {summary.mean_refined_length:.2f}"
        print(line)
    print(f"results in {out_dir}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    full, id_map = load_edge_list(args.topology, take_giant_component=False)
    stats = degree_stats(full)
    sizes = [len(component) for component in components(full)]
    giant = max(sizes)
    print(f"nodes: {full.node_count}")
    print(f"edges: {full.edge_count}")
    print(f"min degree: {stats.min_degree}")
    print(f"max degree: {stats.max_degree}")
    if stats.fitted_exponent is None:
        print("fitted exponent: undefined")
    else:
        print(f"fitted exponent: {stats.fitted_exponent:.3f}")
    print(
        f"giant component: {giant} nodes ({100.0 * giant / full.node_count:.1f}%), "
        f"{len(sizes)} component(s)"
    )
    if args.pairs > 0:
        giant_graph, _ = giant_component(full, id_map)
        if giant_graph.node_count >= 2:
            pairs = sample_pairs(giant_graph, args.pairs, args.seed)
            distances = [pair_distance(giant_graph, s, t) for s, t in pairs]
            mean = sum(distances) / len(distances)
            print(f"mean shortest path ({len(pairs)} sampled pairs): {mean:.3f}")
    print("degree histogram:")
    for degree, count in stats.histogram.items():
        print(f"  {degree} {count}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "stats": _cmd_stats,
    }
    try:
        return handlers[args.command](args)
    except (DegreeSearchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
