"""Edge-list file I/O and label remapping.

File format: one edge per line as two whitespace-separated labels, ``#``
lines are comments, blank lines are skipped.  Labels are arbitrary strings
and get remapped to dense internal IDs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Collection

from .errors import EdgeListError
from .graphs import Graph, _graph_from_rows, _sorted_unique, components

__all__ = ["IdMap", "giant_component", "load_edge_list", "save_edge_list"]


@dataclass(frozen=True)
class IdMap:
    """Bijection between external labels and dense internal IDs."""

    external_to_internal: dict[str, int]
    internal_to_external: list[str]


def _label_order(labels: Collection[str]) -> list[str]:
    # Sorting by numeric value keeps files written by save_edge_list mapping
    # back to the identical internal IDs; labels equal in value ("1", "01")
    # go by string, since the second sort is stable.  Mixed or non-numeric
    # labels fall back to plain string order.  Either way the assignment is
    # independent of line order in the file.
    ordered = sorted(labels)
    try:
        return sorted(ordered, key=int)
    except ValueError:
        return ordered


def load_edge_list(path, take_giant_component: bool = True) -> tuple[Graph, IdMap]:
    """Read a graph from an edge-list file.

    The loader keeps one copy of each label and files each edge straight
    into two adjacency rows of integer IDs, which become the graph's rows
    in place, so its peak memory stays a small multiple of the graph it
    returns.

    Args:
        path: File to read (UTF-8; a leading byte-order mark is skipped).
        take_giant_component: Keep only the largest connected component,
            as ``giant_component`` selects it.

    Returns:
        ``(graph, id_map)`` where the map covers exactly the kept nodes.

    Raises:
        EdgeListError: On a malformed line, text that is not UTF-8, or
            when no edges survive filtering.
        OSError: If the file cannot be read.
    """
    # Provisional IDs follow first appearance; ``rows[p]`` lists the
    # provisional neighbors of ID ``p``, repeats included.
    ids: dict[str, int] = {}
    rows: list[list[int]] = []
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for line_no, raw in enumerate(handle, start=1):
                tokens = raw.split()
                if not tokens or tokens[0].startswith("#"):
                    continue
                if len(tokens) != 2:
                    raise EdgeListError(
                        f"expected two tokens, got {len(tokens)}",
                        path=path,
                        line_no=line_no,
                    )
                a, b = tokens
                if a != b:
                    u = ids.get(a)
                    if u is None:
                        u = ids[a] = len(rows)
                        rows.append([])
                    v = ids.get(b)
                    if v is None:
                        v = ids[b] = len(rows)
                        rows.append([])
                    rows[u].append(v)
                    rows[v].append(u)
    except UnicodeDecodeError as exc:
        # Undecodable bytes reread as lone surrogates, which UTF-8 never yields.
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            for line_no, raw in enumerate(handle, start=1):
                if any("\udc80" <= ch <= "\udcff" for ch in raw):
                    break
        message = f"not UTF-8 text ({exc.reason})"
        raise EdgeListError(message, path=path, line_no=line_no) from None
    if not rows:
        raise EdgeListError("no usable edges in file", path=path)

    graph, id_map = _indexed(ids, rows)
    return giant_component(graph, id_map) if take_giant_component else (graph, id_map)


def giant_component(g: Graph, id_map: IdMap) -> tuple[Graph, IdMap]:
    """The largest connected component of a loaded graph.

    Ties go to the component holding the smallest internal ID.  The kept
    labels are ordered among themselves, so the result equals loading a
    file that holds only this component.  A connected graph comes back as
    is.
    """
    return _giant(g, id_map, components(g))


def _giant(g: Graph, id_map: IdMap, parts: list[list[int]]) -> tuple[Graph, IdMap]:
    # ``giant_component`` with the components of ``g`` already found.
    nodes = max(parts, key=len, default=[])
    if len(nodes) == g.node_count:
        return g, id_map
    names = id_map.internal_to_external
    position = {u: p for p, u in enumerate(nodes)}
    return _indexed(
        {names[u]: p for p, u in enumerate(nodes)},
        [[position[v] for v in g.adjacency[u]] for u in nodes],
    )


def _indexed(ids: dict[str, int], rows: list[list[int]]) -> tuple[Graph, IdMap]:
    # ``ids`` maps each label to its provisional ID and ``rows[p]`` lists the
    # provisional neighbors of ID ``p``.  The labels alone decide the final
    # order, and ``ids`` becomes the final label -> ID map in place.
    ordered = _label_order(ids)
    rank = [0] * len(ordered)
    # The provisional IDs are 0, 1, ... in the order of ``ids``; their int
    # objects serve as the final IDs, so no second set of them is made.
    for final, label in zip(list(ids.values()), ordered):
        rank[ids[label]] = final
        ids[label] = final
    # Each row is relabelled and finished in provisional order, the order
    # in which its list was allocated, so the tuples fill the memory that
    # the lists before them have just freed.  Only then do the tuples move
    # to their final IDs.
    for p, row in enumerate(rows):
        row[:] = map(rank.__getitem__, row)
        rows[p] = _sorted_unique(row)
    placed = [()] * len(rows)
    for p, final in enumerate(rank):
        placed[final] = rows[p]
    # Freed before the graph copies ``placed`` into its adjacency tuple;
    # ``tuple`` hands each finished row back as it is.
    rows.clear()
    return _graph_from_rows(placed, tuple), IdMap(ids, ordered)


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
