"""Benchmark entry point: time one workload end to end, or layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload canonical [--seed 0] [--seconds 60] [--trace 0|1]
    python3 perfbench/run.py --workload canonical --record   # rewrite reference digests

Each repetition runs in a fresh process (perfbench/rep.py) so that peak RSS
and the lazily built graph views never carry over.  Repetitions follow one
another, at least two, until the next one would end past --seconds; the run
reports the median of each metric over its repetitions.  Where set-up is cheap, an
untraced run first repeats the set-up alone a few times, so that setup_s is
the median of more samples.  With --trace 0 the last line of stdout holds
the end-to-end metrics, measured untraced.  With --trace 1 untraced and
traced repetitions alternate, and it holds the per-layer metrics of the
traced ones.  Every repetition's outputs are checked (see checks.py); the
line before the result carries provenance and failed_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("searches_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
REFERENCE = HERE / "reference.json"
# A run must end within 180 s; no repetition may start or run past this.
DEADLINE_S = 170.0


def adopt_orphans() -> None:
    """Make orphaned descendants (pool workers of a killed repetition) our
    children, so that run_rep can wait for them (Linux; elsewhere a no-op)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


@contextlib.contextmanager
def work_dir():
    """A fresh directory under .perfbench_work/, removed with its contents."""
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


def run_rep(workload: str, seed: int, trace: int, out: Path, timeout: float, extra=()) -> dict | None:
    """One repetition in a fresh process group; its result.json, or None."""
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--out", str(out), *extra,
    ]
    # A fixed hash seed takes str-hash layout out of the run-to-run noise;
    # the outputs do not depend on it.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    with open(out / "log.txt", "wb") as log:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
        )
        try:
            rc = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            # Pool workers share the group; none may outlive the repetition.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            while True:
                try:
                    os.waitpid(-1, 0)
                except ChildProcessError:
                    break
    if rc != 0:
        tail = (out / "log.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        print(f"repetition failed ({'timeout' if rc is None else f'exit {rc}'}):\n{tail}", file=sys.stderr)
        return None
    return json.loads((out / "result.json").read_text(encoding="utf-8"))


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "degreesearch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(spec, seed: int, trace: int, reps: int) -> dict:
    return {
        "workload": spec.name,
        "seed": seed,
        "trace": trace,
        "repetitions": reps,
        "plan": spec.plan_echo(seed),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
    }


def _median_metrics(reps, names) -> dict[str, float]:
    return {name: statistics.median(r[name] for r in reps) for name in names}


def measure(spec, seed: int, seconds: int, trace: int, work: Path) -> int:
    reference = None
    if seed == DEFAULT_SEED and REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(spec.reference)
    started = perf_counter()
    plain, traced, walls = [], [], []
    attempted = failed = 0
    digests = set()
    setups = []
    for k in range(0 if trace else spec.setup_reps):
        res = run_rep(spec.name, seed, 0, work / f"setup{k}", DEADLINE_S / 4, ("--setup-only",))
        if res is not None:
            setups.append(res["setup_s"])
    k = 0
    while True:
        is_traced = bool(trace) and k % 2 == 1
        out = work / f"rep{k}"
        t0 = perf_counter()
        res = run_rep(spec.name, seed, int(is_traced), out, started + DEADLINE_S - t0)
        if res is None:
            attempted += spec.searches
            failed += spec.searches
        else:
            c = checks.check(spec, out, reference)
            attempted += c["attempted"]
            failed += c["failed"]
            digests.add(c["fingerprint"]["files"]["searches.csv"])
            res["searches_per_s"] = c["rows"] / (res["run_s"] - res["setup_s"])
            if is_traced:
                # Without worker spans (a pool the tracer cannot reach) there
                # is nothing to cross-check; otherwise the attribution of
                # walks to variants must reproduce the rows exactly.
                steps, found = res["walks"]
                if steps and (steps, found) != (c["steps"], c["found"]):
                    print("traced walk totals differ from searches.csv", file=sys.stderr)
                    failed += c["attempted"] - c["failed"]
                res.update(res.pop("layers"))
                traced.append(res)
            else:
                plain.append(res)
        shutil.rmtree(out)
        walls.append(perf_counter() - t0)
        k += 1
        elapsed = perf_counter() - started
        if elapsed + max(walls) > DEADLINE_S:
            break
        # At least two repetitions give the median something to work on, and
        # a traced run needs one of each kind.
        if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
            break
    if len(digests) > 1:
        print("searches.csv differs between repetitions of one run", file=sys.stderr)
        failed = attempted
    if not plain or (trace and not traced):
        print("no usable repetition", file=sys.stderr)
        return 1

    if trace:
        metrics = _median_metrics(traced, [name for name, _, _ in PER_LAYER if name != "trace.overhead_s"])
        metrics["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) - statistics.median(r["run_s"] for r in plain)
        )
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = _median_metrics(plain, [name for name, _ in END_TO_END])
        metrics["setup_s"] = statistics.median(setups + [r["setup_s"] for r in plain])
        units = dict(END_TO_END)
    info = provenance(spec, seed, trace, k)
    info["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    info["untraced"] = [{name: r[name] for name, _ in END_TO_END} for r in plain]
    info["setup_only_s"] = setups
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def record(spec, work: Path) -> int:
    """Store the digests of one repetition at the default seed."""
    out = work / "record"
    if run_rep(spec.name, DEFAULT_SEED, 0, out, DEADLINE_S) is None:
        return 1
    c = checks.check(spec, out, None)
    if c["failed"]:
        print(f"{c['failed']} searches break an invariant; not recording", file=sys.stderr)
        return 1
    stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    stored[spec.reference] = c["fingerprint"]
    REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {spec.reference} at seed {DEFAULT_SEED}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="degreesearch benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite the workload's reference digests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "degreesearch" / "__init__.py").is_file():
        print(f"no degreesearch package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    adopt_orphans()
    with work_dir() as work:
        if args.record:
            return record(spec, work)
        return measure(spec, args.seed, args.seconds, args.trace, work)


if __name__ == "__main__":
    sys.exit(main())
