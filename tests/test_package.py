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


def test_runtime_imports_only_the_standard_library():
    # A fresh interpreter: this one has already imported the package and pytest.
    src = str(Path(degreesearch.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import degreesearch, degreesearch.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "degreesearch.cli" in added
    # ``__mp_main__`` is the alias multiprocessing registers for ``__main__``.
    allowed = sys.stdlib_module_names | {"degreesearch", "__mp_main__"}
    foreign = [name for name in added if name.split(".")[0] not in allowed]
    assert not foreign, f"non-stdlib modules imported at runtime: {foreign}"
