"""One repetition of one workload, in a fresh process.

Usage: python3 perfbench/rep.py --workload NAME --seed N --trace 0|1
       --out DIR [--setup-only] [--nodes N --pairs P --rounds R]

Runs the workload through the package's public API, writes its outputs
into DIR and, in DIR/result.json, the repetition's timings and peak RSS.
With --trace 1 every layer boundary is recorded, the spans go to
DIR/spans.json and their per-layer metrics into result.json.  --setup-only stops once the topology is ready for the
walk and reports only setup_s.  The overrides resize the plan for the
scaling report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import degreesearch  # noqa: E402
from degreesearch import cli, experiment  # noqa: E402
from layers import layer_metrics, walk_totals  # noqa: E402
from tracer import Tracer, build_views  # noqa: E402
from workloads import SEED_SIZE, WORKLOADS  # noqa: E402

BIN_WIDTH = 10


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _install_setup_mark(marks: dict, views, serial: bool) -> None:
    """Mark the moment the topology is ready for the walk.

    That is right after the harness built or loaded the graph, plus the
    first build of its views when this process runs the searches.  With a
    pool the views are built in each worker, as the harness would anyway.
    """

    def ready(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if serial:
                views(result[0] if isinstance(result, tuple) else result)
            marks["setup"] = perf_counter()
            return result

        return wrapper

    experiment.generate_ba = ready(experiment.generate_ba)
    experiment.load_edge_list = ready(experiment.load_edge_list)


def _traced_run_experiment(tracer: Tracer, fn):
    def run(plan):
        self0, children0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        i = tracer.open("experiment.run")
        try:
            result = fn(plan)
        finally:
            tracer.close(i)
        tracer.spans[i][4] = {
            "parent_cpu": _cpu(resource.RUSAGE_SELF) - self0,
            "worker_cpu": _cpu(resource.RUSAGE_CHILDREN) - children0,
            "workers": plan.workers,
        }
        return result

    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--rounds", type=int)
    args = parser.parse_args(argv)
    if not Path(degreesearch.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"degreesearch imported from {degreesearch.__file__}, not from {SRC}")

    spec = WORKLOADS[args.workload]
    overrides = {k: getattr(args, k) for k in ("nodes", "pairs", "rounds") if getattr(args, k)}
    spec = dataclasses.replace(spec, **overrides)
    out = Path(args.out)
    seed = args.seed
    serial = spec.workers == 1

    run_experiment, emit_csv, emit_histogram = (
        degreesearch.run_experiment,
        degreesearch.emit_csv,
        degreesearch.emit_histogram,
    )
    main_cli = cli.main
    tracer = None
    views = build_views
    if args.trace:
        tracer = Tracer([(label, h, c) for label, (h, c, _) in zip(spec.labels, spec.variants)])
        views = tracer.ensure_views
        tracer.install_experiment(experiment)
        experiment.generate_ba = tracer.wrap("generate", experiment.generate_ba)
        experiment.load_edge_list = tracer.wrap("topology.load", experiment.load_edge_list)
        cli.generate_ba = tracer.wrap("generate", cli.generate_ba)
        cli.save_edge_list = tracer.wrap(
            "topology.save", cli.save_edge_list, lambda _, g, path: {"bytes": Path(path).stat().st_size}
        )
        run_experiment = _traced_run_experiment(tracer, run_experiment)
        cli.run_experiment = run_experiment
        emit_csv = tracer.wrap("experiment.emit", emit_csv)
        emit_histogram = tracer.wrap("experiment.emit", emit_histogram)
        cli.emit_csv, cli.emit_histogram = emit_csv, emit_histogram
        main_cli = tracer.wrap("cli.main", main_cli)
    marks: dict = {}
    _install_setup_mark(marks, views, serial)

    topology_cfg = degreesearch.BaConfig(
        n=spec.nodes, m_attach=spec.m_attach, seed_size=SEED_SIZE, rng_seed=seed
    )
    topology = out / "topology.txt"
    generate_argv = [
        "generate", "--nodes", str(spec.nodes), "--m-attach", str(spec.m_attach),
        "--seed", str(seed), "--out", str(topology),
    ]
    if args.setup_only:
        # The same calls the harness makes to resolve the plan's topology.
        start = perf_counter()
        if spec.mode == "api":
            experiment.generate_ba(topology_cfg)
        elif main_cli(generate_argv) == 0:
            experiment.load_edge_list(topology, take_giant_component=True)
        with open(out / "result.json", "w", encoding="utf-8") as handle:
            json.dump({"setup_s": marks["setup"] - start}, handle)
        return 0

    if spec.mode == "api":
        plan = degreesearch.ExperimentPlan(
            topology=topology_cfg,
            variants=tuple(
                degreesearch.VariantSpec(visibility_h=h, consult_budget_c=c, refine=r)
                for h, c, r in spec.variants
            ),
            pairs_per_round=spec.pairs,
            rounds=spec.rounds,
            master_seed=seed,
            workers=spec.workers,
        )
        start = perf_counter()
        result = run_experiment(plan)
        emit_csv(result.summaries, result.records, out / "searches.csv", out / "summary.json")
        emit_histogram(result.records, BIN_WIDTH, out / "histogram.csv")
        end = perf_counter()
    else:
        (h, c, refine), = spec.variants
        start = perf_counter()
        rc = main_cli(generate_argv)
        if rc == 0:
            rc = main_cli([
                "run", "--topology", str(topology), "--h", str(h), "--consult", str(c),
                *(["--refine"] if refine else []),
                "--pairs", str(spec.pairs), "--rounds", str(spec.rounds), "--seed", str(seed),
                "--bin-width", str(BIN_WIDTH), "--out-dir", str(out),
            ])
        end = perf_counter()
        if rc != 0:
            raise SystemExit(f"degreesearch cli exited with {rc}")

    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {"setup_s": marks["setup"] - start, "run_s": end - start, "peak_rss_mb": rss_kib / 1024}
    if tracer is not None:
        # Reduced here, after the RSS reading, so the runner never holds the
        # spans (its peak RSS would leak into later repetitions' ru_maxrss).
        spans = tracer.dump(out / "spans.json")
        result["layers"] = layer_metrics(spans)
        result["walks"] = walk_totals(spans)
    with open(out / "result.json", "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
