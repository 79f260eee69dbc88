"""Parsing, validation and theta classes on numpy arrays, for large inputs.

``graph.load_graph`` and ``theta.compute_theta`` call the functions of
the same names here for inputs of ``graph.FLAT_MIN_EDGES`` edges or more,
and only then import this module and numpy. Each returns what the caller
returns, or None where a check fails; the caller then runs its scalar
code, which raises the error and message it always has. So both paths
give the same results and errors. The label stages after the cube
enumeration have their own array path, ``medianecc.flat_labels``.

- ``load_graph`` parses a plain text (ASCII decimal digits, blanks and
  newlines, as ``save_graph`` writes) in one ``np.loadtxt`` call; any
  other text, comments and CRLF included, is left to the line scanner.
  It checks ids and self-loops, then sorts the arc keys ``x * n + y``
  once: they find duplicate edges and are the adjacency of one BFS from
  vertex 0 (``_bfs``), which checks connectivity. The ``Graph`` holds the
  int32 edge ends (``Graph.ends``) and that BFS's levels (``level0``);
  its ``edges`` tuple is built only if something reads it.
- ``compute_theta`` reuses ``Graph.level0`` from vertex 0, so load and
  theta share one traversal (other basepoints and graphs built from pairs
  run ``_bfs``). It refuses edges joining equal levels and vertices with
  over ``theta.MAX_DIM`` ingoing edges, finds the common lower neighbours
  of each pair of ingoing edges by ``searchsorted`` on the sorted (head,
  tail) keys, takes each edge's class by pointer jumping from the lower
  side of one of its squares (None where two squares' sides disagree),
  ranks the classes by smallest edge id, and checks that every class is a
  matching. It keeps its arrays (``ThetaArrays``) and never reads
  ``Graph.neighbors``.

The cut weighs two measured costs (2-vCPU x86 host, CPython 3.11,
numpy 2.4). Per call, with numpy loaded, the flat path is faster from the
smallest size measured, about 500 edges: 4 to 9 times on load, 1.1 to 3.5
times on theta. But loading numpy costs 13 MB resident and 0.15 s once per
process, and in a fresh process the flat path breaks even on peak memory
only near 65,000 edges: at Q11's 11,264 edges it raises a whole run's peak
from 50 to 64 MB. The cut, 2^14 edges, keeps every graph up to Q11 off
numpy and sends grids from 100 x 100 up to the flat path, where it saves
60 ms or more per load and theta.
"""
from __future__ import annotations

import io
from itertools import chain, islice, repeat
from functools import cached_property
from typing import Optional

import numpy as np

from . import theta
from .graph import Graph

# Square candidates per step of ``compute_theta``, and sweep pairs and dense
# opposite table entries per step of ``medianecc.flat_labels``: bounds
# their transient arrays
_CHUNK = 1 << 15
MIN_WIDTH = 8  # mean level width for numpy over Python (_bfs, flat_labels)

# The characters of a plain text; any other (``#``, ``\r`` and every
# non-ASCII one among them) leaves a text to the line scanner.
_PLAIN = b"0123456789 \t\n"


def load_graph(text: str) -> Optional[Graph]:
    """The graph of a plain edge-list text; None for any other text and
    where a check fails."""
    if not (text.isascii() and text.strip()) or \
            text.encode("ascii").translate(None, _PLAIN):
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2,
                          comments=None)
    except ValueError:  # ragged rows, or an id past int64
        return None
    if rows.shape[1] != 2 or rows[0, 1] != len(rows) - 1:
        return None
    return _build(int(rows[0, 0]), rows[1:].ravel())


def _build(n: int, ends) -> Optional[Graph]:
    """The graph of the edges ``(ends[2i], ends[2i + 1])`` (int64, kept as
    int32), with its BFS levels from vertex 0; None when a check fails."""
    u, v = ends[0::2], ends[1::2]
    if n < 1 or len(u) < n - 1:
        return None
    if ((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)).any():
        return None
    keys = _arcs(n, ends)
    if (keys[1:] == keys[:-1]).any():  # an edge listed twice
        return None
    ends = ends.astype(np.int32)  # kept: below the search's transients
    level = _bfs(n, keys, 0)
    if (level < 0).any():
        return None
    g = Graph.__new__(Graph)  # no edges tuple: Graph.edges builds it
    vars(g).update(n=n, ends=ends, level0=level)
    return g


def _arcs(n: int, ends):
    """The sorted keys ``x * n + y`` of the arcs x -> y, two per edge."""
    ends = ends.astype(np.int64)
    return np.sort(ends * n + ends.reshape(-1, 2)[:, ::-1].ravel())


def _bfs(n: int, keys, v0: int):
    """Hop distances from v0 (int32, -1 where unreached) over the arcs of the
    sorted keys ``keys``: a numpy round per level, deduped by an ``owner``
    scatter, at 10-20 us whatever its width; then Python on lists once, past
    ``MIN_WIDTH`` levels, they average under ``MIN_WIDTH`` vertices and stop
    widening. Against the Python BFS on object lists (2-vCPU x86, CPython
    3.11, numpy 2.4, best of 9, plus 0.7-6 ms to sort): 283 x 283 grid 0.048
    -> 0.019 s, 80,000-vertex tree 0.045 -> 0.006 s, all numpy; 2 x 9000
    ladder 0.008 -> 0.0065 s, Python from level 9 (numpy alone 0.18 s); even
    near width 32: 16 x 2000 ladder 0.02-0.03 -> 0.035 s."""
    level = np.full(n, -1, dtype=np.int32)  # kept: below the transients
    level[v0] = 0
    owner = np.empty(n, dtype=np.int32)
    x, adj = np.divmod(keys, n)
    adj = adj.astype(np.int32)
    deg = np.bincount(x, minlength=n + 1)
    start = np.cumsum(deg) - deg
    del x
    front, width, reached, d = np.array([v0]), 0, 1, 1
    while len(front):
        if d > MIN_WIDTH and reached < MIN_WIDTH * d and len(front) <= width:
            dist, adj, start, queue = (
                a.tolist() for a in (level, adj, start, front))
            for v in queue:
                dv = dist[v] + 1
                for w in adj[start[v]:start[v + 1]]:
                    if dist[w] < 0:
                        dist[w] = dv
                        queue.append(w)
            return np.array(dist, dtype=np.int32)
        c = adj[_ranges(start[front], deg[front])]
        c = c[level[c] < 0]
        at = np.arange(len(c), dtype=np.int32)
        owner[c] = at
        c = c[owner[c] == at]
        level[c] = d
        width, reached, d, front = len(front), reached + len(c), d + 1, c
    return level


def _ranges(first, lens):
    """The concatenated ranges ``first[i] .. first[i] + lens[i] - 1``."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1] if len(ends) else 0) + \
        np.repeat(first - (ends - lens), lens)


class ThetaArrays:
    """What flat theta keeps: the graph's int32 edge ends ``ends`` (``u0 v0
    u1 v1 ...``), and int32 arrays ``level`` (``dist0``), the classes
    ``cls``, and the ``kin[v]`` ingoing edges of each vertex v, their
    classes ascending at ``in_ptr[v]:in_ptr[v + 1]`` of ``in_cls`` and their
    lower ends in ``in_tail``. Lists built from them share the ints of
    ``ids``, one object per id, as the scalar path's lists share theirs."""

    @cached_property
    def ids(self):
        return np.array(range(len(self.level)), dtype=object)

    def dist0(self) -> list:
        return self.ids[self.level].tolist()

    def edge_class(self) -> list:
        return self.ids[self.cls].tolist()

    def incident(self) -> tuple:
        """Each vertex's class -> neighbour map, in edge order."""
        ends, ids = self.ends, self.ids
        by_vertex = np.argsort(ends, kind="stable")  # edge order
        around = zip(ids[np.repeat(self.cls, 2)[by_vertex]].tolist(),
                     ids[ends[by_vertex ^ 1]].tolist())
        return tuple(map(dict, map(islice, repeat(around), np.bincount(
            ends, minlength=len(ids)).tolist())))

    def in_classes(self) -> tuple:
        ins = iter(self.ids[self.in_cls].tolist())
        return tuple(map(tuple, map(islice, repeat(ins), self.kin.tolist())))


def compute_theta(g: Graph, v0: int) -> Optional[theta.ThetaDecomposition]:
    """The theta decomposition of g from v0, with its ``ThetaArrays``;
    None when a check fails."""
    n, ends, level = g.n, g.ends, g.level0
    if ends is None:  # a graph built from pairs
        ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.int32,
                           count=2 * g.m)
    if level is None or v0 != 0:
        level = _bfs(n, _arcs(n, ends), v0)
    t = _classes(n, ends, level)
    return None if t is None else theta.ThetaDecomposition(v0, t.q, arrays=t)


def _chunks(weights):
    """Consecutive slices of the positions of ``weights``, each of total
    weight about ``_CHUNK`` and at least one position."""
    ends = np.cumsum(weights)
    lo = 0
    while lo < len(ends):
        done = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + _CHUNK, "right")))
        yield slice(lo, hi)
        lo = hi


def _classes(n: int, ends, level) -> Optional[ThetaArrays]:
    """The classes of the edges (ranked by smallest edge id) and the
    ingoing keys, from the edge ends and the distances; None when a check
    of compute_theta fails."""
    m = len(ends) // 2
    u, v = ends[0::2], ends[1::2]
    du, dv = level[u], level[v]
    if (du == dv).any():
        return None
    head = np.where(du < dv, v, u)
    tail = np.where(du < dv, u, v)
    indegree = np.bincount(head, minlength=n)
    if indegree.max() > theta.MAX_DIM:
        return None
    # edge arc[i] is the i-th ingoing edge in (head, tail) order; the
    # ingoing edges of z sit at low[z]:low[z + 1]
    keys = head.astype(np.int64) * n + tail
    arc = np.argsort(keys).astype(np.int32)
    keys, below = keys[arc], tail[arc]
    low = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indegree, out=low[1:])

    # every pair (i, j), i < j, of ingoing edges of one vertex z
    after = low[head[arc] + 1] - np.arange(m) - 1
    i = np.repeat(np.arange(m), after)
    j = _ranges(np.arange(1, m + 1), after)
    # the square z-a-w-b of each pair: each lower neighbour w of a, and
    # whether w is one of b too, a chunk of pairs at a time
    a, b = below[i], below[j]
    fan = low[a + 1] - low[a]
    aw, bw = np.empty_like(i), np.empty_like(i)
    for part in _chunks(fan):
        f = fan[part]
        pair = np.repeat(np.arange(len(f)), f)
        at = _ranges(low[a[part]], f)
        want = b[part][pair].astype(np.int64) * n + below[at]
        found = np.minimum(np.searchsorted(keys, want), max(m - 1, 0))
        hit = keys[found] == want
        # every pair must close exactly one square; one that closes two is
        # an induced K_2,3, which the scalar code names
        if (np.bincount(pair[hit], minlength=len(f)) != 1).any():
            return None
        aw[part], bw[part] = at[hit], found[hit]
    # opposite sides of square z-a-w-b: za ~ bw and zb ~ aw. Each edge
    # points at the lower side of one of its squares, and pointer jumping
    # takes it to its chain's end: on median input, its class's lowest edge
    upper = np.concatenate((arc[i], arc[j]))
    lower = np.concatenate((arc[bw], arc[aw]))
    del i, j, a, b, fan, aw, bw
    root = np.arange(m, dtype=np.int32)
    root[upper] = lower
    for _ in range(int(level.max()).bit_length()):
        root = root[root]
    if (root[upper] != root[lower]).any():
        return None  # two squares' sides disagree: not median
    del upper, lower
    first = np.full(m, m, dtype=np.int32)  # each class's smallest edge id
    np.minimum.at(first, root, np.arange(m, dtype=np.int32))
    root = first[root]
    is_root = root == np.arange(m)
    q = int(is_root.sum())
    cls = (np.cumsum(is_root) - 1)[root]
    seen = np.sort(ends.astype(np.int64) * q + np.repeat(cls, 2))
    if (seen[1:] == seen[:-1]).any():
        return None  # a class with two edges at one vertex
    t = ThetaArrays()
    by = np.argsort(head.astype(np.int64) * q + cls)
    t.q, t.level, t.ends = q, level, ends
    t.cls, t.kin, t.in_ptr, t.in_cls, t.in_tail = (
        a.astype(np.int32) for a in (cls, indegree, low, cls[by], tail[by]))
    return t
