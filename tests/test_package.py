"""Package surface: every exported name resolves; the runtime is stdlib-only."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import degreesearch


def test_every_exported_name_resolves():
    # A stale entry in any ``__all__`` breaks ``from ... import *``.
    modules = [degreesearch] + [
        importlib.import_module(f"degreesearch.{info.name}")
        for info in pkgutil.iter_modules(degreesearch.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


# Names the package exports that no change may drop.
EXPORTED_BEFORE = (
    "BaConfig", "ConfigError", "DegreeSearchError", "DegreeStats", "EdgeError",
    "EdgeListError", "ExperimentPlan", "ExperimentResult", "ExperimentSummary",
    "Graph", "IdMap", "NodeIdError", "RefinementResult", "Route", "RouteError",
    "SearchConfig", "SearchOutcome", "SearchRecord", "VariantSpec", "WalkTrace",
    "bfs_distances", "build_graph", "degree_stats", "emit_csv", "emit_histogram",
    "generate_ba", "khop_contains", "load_edge_list", "materialize_route",
    "pair_distance", "refine_route", "run_experiment", "run_search", "sample_pairs",
    "save_edge_list", "shortest_path", "__version__",
)


def test_package_exports_every_module_name():
    exported = degreesearch.__all__
    missing = set(EXPORTED_BEFORE) - set(exported)
    assert not missing, f"dropped from degreesearch.__all__: {sorted(missing)}"
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    for info in pkgutil.iter_modules(degreesearch.__path__):
        module = importlib.import_module(f"degreesearch.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name in exported, f"degreesearch.__all__ lacks {info.name}.{name}"
            assert getattr(degreesearch, name) is getattr(module, name), name


def modules_added_by(code):
    """Modules a fresh interpreter holds after running ``code`` that it did
    not hold before; this interpreter has already imported the package and
    pytest."""
    src = str(Path(degreesearch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*sorted(set(sys.modules) - before))\n"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_runtime_imports_only_the_standard_library():
    added = modules_added_by("import degreesearch, degreesearch.cli")
    assert "degreesearch.cli" in added
    allowed = sys.stdlib_module_names | {"degreesearch"}
    foreign = [name for name in added if name.split(".")[0] not in allowed]
    assert not foreign, f"non-stdlib modules imported at runtime: {foreign}"


def test_serial_run_loads_no_process_pool():
    # multiprocessing costs every process that loads it ~2.5 MiB of RSS; only
    # a plan with more than one worker needs it.
    added = modules_added_by(
        "import degreesearch, degreesearch.cli\n"
        "from degreesearch import BaConfig, ExperimentPlan, VariantSpec, run_experiment\n"
        "plan = ExperimentPlan(BaConfig(n=60), (VariantSpec(),), pairs_per_round=5, rounds=1)\n"
        "assert len(run_experiment(plan).records) == 5"
    )
    loaded = [name for name in ("multiprocessing", "concurrent.futures.process") if name in added]
    assert not loaded, f"a serial run imported {loaded}"
