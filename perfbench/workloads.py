"""Workload definitions shared by the runner and the per-repetition child.

Pure data: importing this module does not import the package under test,
so the runner can plan, check and report without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass

# Initial clique of every generated graph (the CLI default for m=3).
SEED_SIZE = 3

# (visibility_h, consult_budget_c, refine) of the canonical acceptance plan.
CANONICAL_VARIANTS = (
    (1, 0, False),
    (2, 0, False),
    (3, 0, False),
    (2, 2, False),
    (2, 3, False),
    (2, 5, False),
    (2, 0, True),
)

# Every variant label a per-layer metric can carry, in report order.  The
# package labels refined variants with "+", which is not a legal metric
# name character, so metric names spell it "-".
METRIC_VARIANTS = ("h1", "h2", "h3", "h2c2", "h2c3", "h2c5", "h2-refine", "h2c5-refine")


def variant_label(h: int, c: int, refine: bool) -> str:
    """The label the package gives a variant (``VariantSpec`` default)."""
    label = f"h{h}" + (f"c{c}" if c else "")
    return label + "+refine" if refine else label


def metric_label(label: str) -> str:
    return label.replace("+", "-")


@dataclass(frozen=True)
class Workload:
    name: str
    # "api" drives run_experiment / emit_* directly; "cli" drives
    # degreesearch.cli.main through generate and run.
    mode: str
    nodes: int
    m_attach: int
    variants: tuple[tuple[int, int, bool], ...]
    pairs: int
    rounds: int
    workers: int
    # Workloads whose outputs must be byte-identical share a reference key.
    reference: str
    # Extra set-up-only repetitions per untraced run, where set-up is cheap
    # and noisy enough that the full repetitions alone give too few samples.
    setup_reps: int = 0

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(variant_label(*v) for v in self.variants)

    @property
    def searches(self) -> int:
        return self.pairs * self.rounds * len(self.variants)

    def plan_echo(self, seed: int) -> dict:
        return {
            "mode": self.mode,
            "nodes": self.nodes,
            "m_attach": self.m_attach,
            "seed_size": SEED_SIZE,
            "variants": list(self.labels),
            "pairs_per_round": self.pairs,
            "rounds": self.rounds,
            "workers": self.workers,
            "rng_seed": seed,
            "master_seed": seed,
        }


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("canonical", "api", 10_000, 3, CANONICAL_VARIANTS, 500, 10, 1, "canonical", 8),
        Workload("canonical-w2", "api", 10_000, 3, CANONICAL_VARIANTS, 500, 10, 2, "canonical", 8),
        Workload("pipeline-100k", "cli", 100_000, 3, ((2, 5, True),), 500, 2, 1, "pipeline-100k"),
    )
}

# Seed at which reference digests are stored; any other seed is checked by
# the per-record invariants alone.
DEFAULT_SEED = 0
