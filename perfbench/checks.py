"""Output checks behind ``failed``: stored digests plus per-record invariants.

A search fails when its row breaks an invariant, when its variant's rows
differ from the stored reference (at the seed the reference was made
with), or when the summary or histogram disagree with the rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

from workloads import Workload

FILES = ("searches.csv", "summary.json", "histogram.csv")
OUTCOMES = ("found", "step_cap_exhausted", "stuck_at_source")


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path, row_hashes: dict):
    """Parsed rows of searches.csv, streamed; feeds each variant's digest.

    The file has a fixed header and no quoted cells, so a row is its line
    split on commas.  Streaming keeps the runner small: a child process
    inherits the runner's peak RSS into its own ``ru_maxrss`` at exec.
    """
    with open(path, "rb") as handle:
        header = handle.readline().decode().rstrip("\n").split(",")
        for line in handle:
            cells = line.decode().rstrip("\n").split(",")
            row = dict(zip(header, cells))
            digest = row_hashes.get(row.get("variant"))
            if digest is not None:
                digest.update(line)
            yield row


def _row_ok(row: dict, expect: tuple, spec: Workload, consults_allowed: bool, refine: bool) -> bool:
    try:
        if (int(row["round"]), int(row["pair_index"]), row["variant"]) != expect:
            return False
        s, t = int(row["s"]), int(row["t"])
        steps, consults = int(row["walk_steps"]), int(row["consults"])
        oracle = int(row["oracle_distance"])
        if not (0 <= s < spec.nodes and 0 <= t < spec.nodes and s != t and oracle >= 1):
            return False
        # The step cap defaults to the node count; BA graphs are connected,
        # so the giant component is the whole graph.
        if not 0 <= steps <= spec.nodes or consults < 0 or (consults and not consults_allowed):
            return False
        if row["outcome"] == "found":
            route = int(row["route_length"])
            if refine:
                return oracle <= int(row["refined_length"]) <= route
            return route >= oracle and row["refined_length"] == ""
        return row["outcome"] in OUTCOMES and row["route_length"] == row["refined_length"] == ""
    except (KeyError, ValueError, TypeError):
        return False


def check(spec: Workload, out: Path, reference: dict | None) -> dict:
    """Check one repetition's outputs.

    Returns ``attempted``, ``failed``, the number of rows, the digests in
    the form ``reference.json`` stores them, and per variant the walk-step
    and found totals from the rows.
    """
    labels = spec.labels
    per_search = spec.searches // len(labels)
    bad = Counter()
    steps = Counter()
    found = Counter()
    row_hashes = {label: hashlib.sha256() for label in labels}
    per_variant = {label: (c > 0, r) for label, (h, c, r) in zip(labels, spec.variants)}
    rows = 0
    for k, row in enumerate(_rows(out / "searches.csv", row_hashes)):
        rows += 1
        label = labels[k % len(labels)]
        expect = (k // (spec.pairs * len(labels)), (k // len(labels)) % spec.pairs, label)
        if k >= spec.searches or not _row_ok(row, expect, spec, *per_variant[label]):
            bad[label] += 1
            continue
        steps[label] += int(row["walk_steps"])
        found[label] += row["outcome"] == "found"
    bad_all = rows != spec.searches

    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    hist = Counter()
    with open(out / "histogram.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            hist[row["variant"]] += int(row["count"])
    by_variant = {s.get("variant"): s for s in summary}
    for label in labels:
        s = by_variant.get(label, {})
        if (
            s.get("total_searches") != per_search
            or s.get("successful_searches") != found[label]
            or hist[label] != found[label]
        ):
            bad_all = True

    mine = {
        "files": {name: _file_sha256(out / name) for name in FILES},
        "rows": {label: h.hexdigest() for label, h in row_hashes.items()},
    }
    if reference is not None and mine["files"] != reference["files"]:
        for label in labels:
            if mine["rows"][label] != reference["rows"].get(label):
                bad[label] = per_search
        if mine["files"]["searches.csv"] == reference["files"]["searches.csv"]:
            bad_all = True  # rows match, aggregates do not

    failed = spec.searches if bad_all else min(spec.searches, sum(bad.values()))
    return {
        "attempted": spec.searches,
        "failed": failed,
        "rows": rows,
        "fingerprint": mine,
        "steps": dict(steps),
        "found": dict(found),
    }
