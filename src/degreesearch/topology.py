"""Edge-list file I/O and label remapping.

File format: one edge per line as two whitespace-separated labels, ``#``
lines are comments, blank lines are skipped.  Labels are arbitrary strings
and get remapped to dense internal IDs.
"""

from __future__ import annotations

import operator
import os
import re
import stat
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress
from typing import Collection

from .errors import EdgeListError
from .graphs import Graph, _graph_from_rows, _sorted_unique, components

__all__ = ["IdMap", "giant_component", "load_edge_list", "save_edge_list"]

# A line that is not blank, not a comment and not two canonical non-negative
# decimal integers ("0" or no leading zero, ASCII digits only).
_NOT_INTEGER_EDGE = re.compile(
    r"^(?![^\S\n]*(?:#|(?:0|[1-9][0-9]*)[^\S\n]+(?:0|[1-9][0-9]*)[^\S\n]*$|$))", re.M
)
_COMMENT = re.compile(r"^[^\S\n]*#.*", re.M)


@dataclass(frozen=True)
class IdMap:
    """Bijection between external labels and dense internal IDs.

    A map from the block parse of ``load_edge_list`` holds only the kept
    label values and their IDs until one of its fields is first read; the
    label strings and the dictionary are built then.  Equality, ``repr``,
    copies and pickles read or carry the map as if it were built.
    """

    external_to_internal: dict[str, int]
    internal_to_external: list[str]

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: on a map from
        # ``_value_map``, the first read of a field builds both.
        pending = self.__dict__.pop("_values", None) if name in self.__dataclass_fields__ else None
        if pending is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values, ids = pending
        labels = list(map(str, values))
        self.__dict__["external_to_internal"] = dict(zip(labels, ids))
        self.__dict__["internal_to_external"] = labels
        return self.__dict__[name]


def _value_map(values: list[int], ids: list[int]) -> IdMap:
    # The map in which ``str(values[i])`` has the ID ``ids[i]``, built when
    # first read.  The values ascend, so the labels come out in ID order.
    id_map = object.__new__(IdMap)
    id_map.__dict__["_values"] = (values, ids)
    return id_map


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

    A file whose labels are all canonical non-negative decimal integers
    (``0`` or digits without a leading zero), as ``save_edge_list`` writes
    them, is parsed in blocks: a label's value is its row, and the ID map
    holds only the kept values until it is first read, when it builds the
    label strings and the label dictionary.  Any other file, every
    error, and a path that is not a regular file (a pipe, opened once) go
    through a line-by-line parse that keeps one copy of each label.  Both
    file each edge straight into two adjacency rows of integer IDs, which
    become the graph's rows in place, so the peak memory stays a small
    multiple of the graph returned.  The input alone picks the parse, and
    both give the same result.

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
    graph, id_map = _load_integer_labels(path) or _load_labels(path)
    return giant_component(graph, id_map) if take_giant_component else (graph, id_map)


def _load_integer_labels(path) -> tuple[Graph, IdMap] | None:
    # ``load_edge_list`` for a file of canonical integer labels, or None
    # for any other file, which the line-by-line parse then reads from the
    # start.  ``rows[v]`` lists the neighbors of value ``v``, each as the
    # one int object ``nodes[v]``; a value no edge uses keeps an empty row.
    if not stat.S_ISREG(os.stat(path).st_mode):
        # A pipe can be read only once: the line parse alone opens it.
        # ``stat`` decides without opening the path.
        return None
    with open(path, "rb") as handle:
        lines = sum(block.count(b"\n") + 1 for block in iter(partial(handle.read, 1 << 20), b""))
    # A file holds at most two labels a line.  A larger value means gaps too
    # wide to give every value a row, so such a file is read line by line.
    bound = 2 * lines
    nodes: list[int] = []
    rows: list[list[int]] = []
    try:
        with open(path, encoding="utf-8-sig") as handle:
            while text := handle.read(1 << 16):
                text += handle.readline()
                if _NOT_INTEGER_EDGE.search(text):
                    return None
                if "#" in text:
                    text = _COMMENT.sub("", text)
                values = list(map(int, text.split()))
                a, b = values[0::2], values[1::2]
                if any(map(operator.eq, a, b)):
                    keep = list(map(operator.ne, a, b))
                    a, b = list(compress(a, keep)), list(compress(b, keep))
                top = max(max(a, default=-1), max(b, default=-1))
                if top >= len(rows):
                    if top >= bound:
                        return None
                    rows += [[] for _ in range(len(rows), top + 1)]
                    nodes += range(len(nodes), top + 1)
                a = list(map(nodes.__getitem__, a))
                b = list(map(nodes.__getitem__, b))
                deque(map(list.append, map(rows.__getitem__, a), b), 0)
                deque(map(list.append, map(rows.__getitem__, b), a), 0)
    except ValueError:
        # Undecodable bytes, or a label past ``int``'s digit limit.
        return None
    if not rows:
        return None
    if all(rows):
        # Without gaps the relabel is the identity; skipping its pass over
        # every entry keeps about 0.1 s and 0.1 MiB off the 100k load.  Each
        # value is its own ID, so one list serves as both.
        return _graph_from_rows(rows), _value_map(nodes, nodes)
    # Values no edge uses close up: the present ones, in order, take the
    # IDs 0, 1, ... and ``nodes`` becomes the value -> ID map in place.
    # Each row is relabelled and finished in one pass and moves down to its
    # ID, which is at most its value.
    values = list(compress(nodes, rows))
    finals = nodes[: len(values)]
    for v, final in zip(values, finals):
        nodes[v] = final
    for final, v in zip(finals, values):
        row = rows[v]
        row[:] = map(nodes.__getitem__, row)
        rows[final] = _sorted_unique(row)
    del rows[len(values) :], nodes
    return _graph_from_rows(rows, tuple), _value_map(values, finals)


def _load_labels(path) -> tuple[Graph, IdMap]:
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
    return _indexed(ids, rows)


def giant_component(g: Graph, id_map: IdMap) -> tuple[Graph, IdMap]:
    """The largest connected component of a loaded graph.

    Ties go to the component holding the smallest internal ID.  The kept
    labels are ordered among themselves, so the result equals loading a
    file that holds only this component.  A connected graph comes back as
    is.  An ID map from the block parse that has not been read yet gives a
    map that has not been read either.
    """
    return _giant(g, id_map, components(g))


def _giant(g: Graph, id_map: IdMap, parts: list[list[int]]) -> tuple[Graph, IdMap]:
    # ``giant_component`` with the components of ``g`` already found.
    nodes = max(parts, key=len, default=[])
    if len(nodes) == g.node_count:
        return g, id_map
    pending = id_map.__dict__.get("_values")
    if pending is not None:
        # An unread map from the block parse: IDs ascend with the label
        # values, so the kept nodes keep their order and take the IDs
        # 0, 1, ... by position.  The relabel keeps every row sorted, and
        # the map stays unread.
        values, ids = pending
        ids = ids[: len(nodes)]
        position = [0] * g.node_count
        for p, u in zip(ids, nodes):
            position[u] = p
        rows = [tuple(map(position.__getitem__, g.adjacency[u])) for u in nodes]
        return _graph_from_rows(rows, tuple), _value_map(list(map(values.__getitem__, nodes)), ids)
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
