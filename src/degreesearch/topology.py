"""Edge-list file I/O and label remapping.

File format: one edge per line as two whitespace-separated labels, ``#``
lines are comments, blank lines are skipped.  Labels are arbitrary strings
and get remapped to dense internal IDs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import EdgeListError
from .graphs import Graph, build_graph, components

__all__ = ["IdMap", "giant_component", "load_edge_list", "save_edge_list"]


@dataclass(frozen=True)
class IdMap:
    """Bijection between external labels and dense internal IDs."""

    external_to_internal: dict[str, int]
    internal_to_external: list[str]


def _label_order(labels: set[str]):
    # Sorting by numeric value keeps files written by save_edge_list mapping
    # back to the identical internal IDs; mixed or non-numeric labels fall
    # back to plain string order.  Either way the assignment is independent
    # of line order in the file.
    try:
        return sorted(labels, key=lambda s: (int(s), s))
    except ValueError:
        return sorted(labels)


def load_edge_list(path, take_giant_component: bool = True) -> tuple[Graph, IdMap]:
    """Read a graph from an edge-list file.

    Args:
        path: File to read (UTF-8).
        take_giant_component: Keep only the largest connected component,
            as ``giant_component`` selects it.

    Returns:
        ``(graph, id_map)`` where the map covers exactly the kept nodes.

    Raises:
        EdgeListError: On a malformed line, text that is not UTF-8, or
            when no edges survive filtering.
        OSError: If the file cannot be read.
    """
    pairs: set[tuple[str, str]] = set()
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                tokens = line.split()
                if len(tokens) != 2:
                    raise EdgeListError(
                        f"expected two tokens, got {len(tokens)}",
                        path=path,
                        line_no=line_no,
                    )
                a, b = tokens
                if a == b:
                    continue
                pairs.add((a, b) if a < b else (b, a))
    except UnicodeDecodeError as exc:
        # Undecodable bytes reread as lone surrogates, which UTF-8 never yields.
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for line_no, raw in enumerate(handle, start=1):
                if any("\udc80" <= ch <= "\udcff" for ch in raw):
                    break
        message = f"not UTF-8 text ({exc.reason})"
        raise EdgeListError(message, path=path, line_no=line_no) from None
    if not pairs:
        raise EdgeListError("no usable edges in file", path=path)

    graph, id_map = _indexed({label for pair in pairs for label in pair}, pairs)
    return giant_component(graph, id_map) if take_giant_component else (graph, id_map)


def giant_component(g: Graph, id_map: IdMap) -> tuple[Graph, IdMap]:
    """The largest connected component of a loaded graph.

    Ties go to the component holding the smallest internal ID.  The kept
    labels are ordered among themselves, so the result equals loading a
    file that holds only this component.  A connected graph comes back as
    is.
    """
    giant = max(components(g), key=len, default=[])
    if len(giant) == g.node_count:
        return g, id_map
    names = id_map.internal_to_external
    return _indexed(
        {names[u] for u in giant},
        [(names[u], names[v]) for u in giant for v in g.adjacency[u] if u < v],
    )


def _indexed(labels: set[str], pairs) -> tuple[Graph, IdMap]:
    ordered = _label_order(labels)
    index = {label: i for i, label in enumerate(ordered)}
    graph = build_graph([(index[a], index[b]) for a, b in pairs], len(ordered))
    return graph, IdMap(index, ordered)


def save_edge_list(g: Graph, path) -> None:
    """Write a graph as a sorted edge list.

    Each edge appears once as ``u v`` with ``u < v``, lines sorted, LF
    newlines.  Loading the result back reproduces the adjacency exactly for
    any graph without isolated nodes.  A failed write raises an ``OSError``
    that names ``path`` and leaves no temporary file behind.
    """
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            for u in range(g.node_count):
                for v in g.adjacency[u]:
                    if v > u:
                        handle.write(f"{u} {v}\n")
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
