"""Immutable graph container, edge-list I/O and BFS.

Vertex ids are dense 0-based integers and edge ids follow input order, so
every label and witness produced downstream is reproducible from the file.

``load_graph`` and ``build_graph`` validate every edge list that comes
from outside the program; the generators build valid graphs directly.
Texts of ``FLAT_MIN_EDGES`` lines or more are parsed and validated on
numpy arrays by ``medianecc.flat``, which is imported only then; where it
refuses a text, the line scanner and the per-edge checks here raise the
error and message they always have. A graph that flat parsed keeps its
edge-end array (``Graph.ends``) and builds the ``edges`` tuple from it only
on first read. ``Graph.neighbors`` and ``Graph.dist0`` are built on first
read too; the pipeline reads none of them on the flat path.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Optional, Sequence

# Edge count from which edge-list texts and compute_theta take the flat
# path; medianecc.flat gives the measurements behind it.
FLAT_MIN_EDGES = 16_384


class _LineError(ValueError):
    """A message prefixed with the input line it concerns, if any."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GraphFormatError(_LineError):
    """An edge-list document could not be parsed."""


class GraphValidationError(_LineError):
    """A parsed edge list violates the graph invariants."""


class Graph:
    """Simple connected undirected graph, read-only after construction.

    ``edges`` holds the ``(u, v)`` pairs in input order. A graph parsed by
    ``medianecc.flat`` holds its edge ends instead, as the int32 array
    ``ends`` (``u0 v0 u1 v1 ...``; None on every other graph): ``m`` reads
    its length, and ``edges`` is built from it on first read, sharing one
    int object per vertex id; ``level0`` holds its int32 BFS levels from 0.
    ``==`` and ``hash`` compare ``n`` and ``edges``.
    """

    ends = level0 = None

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]):
        vars(self).update(n=n, edges=edges)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a Graph is read-only")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @property
    def m(self) -> int:
        return len(self.edges) if self.ends is None else len(self.ends) // 2

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        import numpy as np  # loaded already: only flat sets ends
        ids = np.array(range(self.n), dtype=object)  # one int per vertex
        ends = iter(ids[self.ends].tolist())
        return tuple(zip(ends, ends))

    @cached_property
    def neighbors(self) -> tuple[dict[int, int], ...]:
        """``neighbors[v]`` maps each neighbor of v to the id of the edge
        joining them, in ascending neighbor order; built on first read."""
        adj_lists: list = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            adj_lists[u].append((v, i))
            adj_lists[v].append((u, i))
        return tuple(dict(sorted(lst)) for lst in adj_lists)

    @cached_property
    def dist0(self) -> list:
        """``bfs(self, 0)``, which build_graph and theta from 0 share."""
        return bfs(self, 0)


def build_graph(n: int, edges: Sequence[tuple[int, int]],
                edge_lines: Optional[Sequence[int]] = None) -> Graph:
    """Validate and freeze a graph from a raw edge list, one edge at a
    time; names the first fault it meets.

    ``edge_lines`` optionally maps edge position -> source line number so
    validation errors can point at the offending input line.
    """
    if n < 1:
        raise GraphValidationError(f"vertex count must be positive, got {n}")
    if len(edges) < n - 1:
        raise GraphValidationError(
            f"graph is disconnected: {len(edges)} edges cannot connect "
            f"{n} vertices")

    def line_of(i: int) -> Optional[int]:
        return edge_lines[i] if edge_lines is not None else None

    seen: set = set()
    for i, (u, v) in enumerate(edges):
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphValidationError(
                f"edge ({u}, {v}) has a vertex id outside 0..{n - 1}", line_of(i))
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {u}", line_of(i))
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphValidationError(f"duplicate edge ({u}, {v})", line_of(i))
        seen.add(key)

    g = Graph(n=n, edges=tuple((u, v) for u, v in edges))
    reached = n - g.dist0.count(-1)
    if reached != n:
        raise GraphValidationError(
            f"graph is disconnected: reached {reached} of {n} vertices from vertex 0")
    return g


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: header ``n m``, then m lines ``u v``.

    Lines whose first non-blank character is ``#`` are comments. Vertex and
    edge counts must match the header exactly.
    """
    if text.count("\n") >= FLAT_MIN_EDGES:  # a line per edge at least
        from . import flat
        g = flat.load_graph(text)
        if g is not None:
            return g
    return _scan(text)


def _scan(text: str) -> Graph:
    """load_graph one line at a time; names the first bad line."""
    header = None
    edges: list = []
    edge_lines: list = []
    m_expected = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(
                    f"expected header 'n m', got {stripped!r}", lineno)
            try:
                n, m_expected = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"non-integer header field in {stripped!r}", lineno) from None
            if m_expected < 0:
                raise GraphFormatError(f"negative edge count {m_expected}", lineno)
            header = (n, m_expected)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"expected edge 'u v', got {stripped!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"non-integer vertex id in {stripped!r}", lineno) from None
        if len(edges) == m_expected:
            raise GraphFormatError(
                f"more than the declared {m_expected} edges", lineno)
        edges.append((u, v))
        edge_lines.append(lineno)

    if header is None:
        raise GraphFormatError("empty document: missing 'n m' header")
    if len(edges) != m_expected:
        raise GraphFormatError(
            f"header declares {m_expected} edges but {len(edges)} were given")
    return build_graph(header[0], edges, edge_lines)


def save_graph(g: Graph) -> str:
    """Serialize in the canonical edge-list form; load(save(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def bfs(g: Graph, source: int) -> list:
    """Exact hop distances from ``source``, indexed by vertex.

    Adjacency is sorted by vertex id, so discovery within a level follows
    ascending ids; callers that need an explicit level order sort by
    (dist, id), which this guarantees to be consistent.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"source {source} out of range 0..{g.n - 1}")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    neighbors = g.neighbors
    while queue:
        x = queue.popleft()
        dx = dist[x] + 1
        for y in neighbors[x]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return dist
