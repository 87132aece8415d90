"""Exception types raised across the package."""

from __future__ import annotations

__all__ = [
    "DegreeSearchError",
    "EdgeError",
    "NodeIdError",
    "EdgeListError",
    "ConfigError",
    "RouteError",
]


class DegreeSearchError(Exception):
    """Base class for all errors raised by this package."""


class EdgeError(DegreeSearchError):
    """An edge references a node outside the declared ID range."""

    def __init__(self, edge: tuple, node_count: int) -> None:
        self.edge = edge
        self.node_count = node_count
        super().__init__(
            f"edge {edge!r} references a node outside [0, {node_count})"
        )


class NodeIdError(DegreeSearchError):
    """A node ID argument is outside the graph's ID range."""

    def __init__(self, node: int, node_count: int, role: str = "node") -> None:
        self.node = node
        self.node_count = node_count
        super().__init__(f"{role} {node} out of range for graph with {node_count} nodes")


class EdgeListError(DegreeSearchError):
    """An edge-list file could not be parsed into a usable graph."""

    def __init__(self, message: str, path=None, line_no: int | None = None) -> None:
        self.path = path
        self.line_no = line_no
        if line_no is not None:
            message = f"{path}:{line_no}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ConfigError(DegreeSearchError):
    """A configuration object or argument violates its invariants."""


class RouteError(DegreeSearchError):
    """A route or trace does not satisfy the preconditions of an operation."""
