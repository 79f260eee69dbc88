"""Parsing, validation and theta classes on numpy arrays, for large inputs.

``graph.load_graph`` and ``theta.compute_theta`` call the functions of
the same names here for inputs of ``graph.FLAT_MIN_EDGES`` edges or more,
and only then import this module and numpy. Each returns what the caller
returns, or None where a check fails; the caller then runs its scalar
code, which raises the error and message it always has. So both paths
give the same results and errors. The label stages after the cube
enumeration have their own array path, ``medianecc.flat_labels``.

- ``load_graph`` parses a plain text (decimal digits, blanks and
  newlines, as ``save_graph`` writes) in one ``np.loadtxt`` call; any
  other text, comments and CRLF included, is left to the line scanner.
  It then checks ids, self-loops, duplicate edges (as sorted
  ``min*n + max`` keys) and connectivity (``min_labels``) on arrays.
- ``compute_theta`` takes distances from v0, checks that no edge joins
  equal levels and no vertex has over ``theta.MAX_DIM`` ingoing edges,
  pairs the ingoing edges of each vertex and finds each pair's common
  lower neighbours by ``searchsorted`` on the sorted (head, tail) keys of
  the edges, relates the opposite sides of each square, takes the classes
  as ``min_labels`` components ranked by their smallest edge id, and
  checks the class counts and that every class is a matching. The
  incidence indexes come from sorted arrays. It never reads
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
import re
from itertools import chain, islice
from typing import Optional

import numpy as np

from . import theta
from .graph import Graph

# Any character but a digit, blank or newline (``#`` and ``\r`` among
# them) leaves a text to the line scanner.
_NOT_PLAIN = re.compile(r"[^0-9 \t\n]")


def load_graph(text: str) -> Optional[Graph]:
    """The graph of a plain edge-list text; None for any other text and
    where a check fails."""
    if _NOT_PLAIN.search(text) or not text.strip():
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2,
                          comments=None)
    except ValueError:  # ragged rows, or an id past int64
        return None
    if rows.shape[1] != 2 or rows[0, 1] != len(rows) - 1:
        return None
    return _build(int(rows[0, 0]), rows[1:, 0], rows[1:, 1])


def _build(n: int, u, v) -> Optional[Graph]:
    """The graph of the edges ``(u[i], v[i])``; None when a check fails."""
    m = len(u)
    if n < 1 or m < n - 1:
        return None
    if ((u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)).any():
        return None
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = np.sort(lo * n + hi)
    if (keys[1:] == keys[:-1]).any() or min_labels(n, lo, hi).any():
        return None
    ids = np.array(range(n), dtype=object)  # one int object per vertex
    return Graph(n=n, edges=tuple(zip(ids[u].tolist(), ids[v].tolist())))


def min_labels(count: int, a, b):
    """The smallest item of each item's component, for items
    ``0..count-1`` joined by the pairs ``(a[i], b[i])``.

    Min-label hooking with pointer jumping: each round hooks the larger
    root of every still-split pair under the smaller one, then points every
    item at its root. A root only ever moves lower, so the final root of a
    component is its smallest item.
    """
    label = np.arange(count)
    while True:
        la, lb = label[a], label[b]
        split = la != lb
        if not split.any():
            return label
        a, b, la, lb = a[split], b[split], la[split], lb[split]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


def compute_theta(g: Graph, v0: int) -> Optional[theta.ThetaDecomposition]:
    """The theta decomposition of g from v0; None when a check fails."""
    n, m = g.n, g.m
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64,
                       count=2 * m)
    # ends[by_vertex] lists each vertex's edges in edge order (the keys
    # are distinct, so the fast sort keeps that order); the other end of
    # entry i is ends[i ^ 1]
    by_vertex = np.argsort(ends * (2 * m) + np.arange(2 * m))
    degree = np.bincount(ends, minlength=n)
    # the lists below take their ints from one object per id, as the
    # scalar path's lists do, not from a fresh object per entry
    ids = np.array(range(n), dtype=object)
    adj = ids[ends[by_vertex ^ 1]].tolist()
    dist0 = _levels(v0, adj, [0, *np.cumsum(degree).tolist()])
    found = _classes(n, ends, np.array(dist0))
    if found is None:
        return None
    cls, q, head = found

    around = zip(ids[np.repeat(cls, 2)[by_vertex]].tolist(), adj)
    ins = iter(ids[np.sort(head * q + cls) % max(q, 1)].tolist())
    return theta.ThetaDecomposition(
        v0=v0,
        dist0=dist0,
        q=q,
        edge_class=ids[cls].tolist(),
        incident=tuple(dict(islice(around, k)) for k in degree.tolist()),
        in_classes=tuple(tuple(islice(ins, k)) for k in
                         np.bincount(head, minlength=n).tolist()),
    )


def _levels(v0: int, adj: list, start: list) -> list:
    """Hop distances from v0, vertex x's neighbors being
    ``adj[start[x]:start[x + 1]]``. Plain Python: a level-synchronous numpy
    search pays a dozen calls per level, and a long path has n levels."""
    dist = [-1] * (len(start) - 1)
    dist[v0] = 0
    queue = [v0]
    for x in queue:
        dx = dist[x] + 1
        for y in adj[start[x]:start[x + 1]]:
            if dist[y] < 0:
                dist[y] = dx
                queue.append(y)
    return dist


def _classes(n: int, ends, dist):
    """Class of every edge (ranked by smallest edge id), the class count
    and every edge's farther end, from the edge ends ``u0 v0 u1 v1 ...``
    and the distances; None when a check of compute_theta fails."""
    m = len(ends) // 2
    u, v = ends[0::2], ends[1::2]
    du, dv = dist[u], dist[v]
    if (du == dv).any():
        return None
    head = np.where(du < dv, v, u)
    tail = np.where(du < dv, u, v)
    indegree = np.bincount(head, minlength=n)
    if indegree.max() > theta.MAX_DIM:
        return None
    # edge arc[i] is the i-th ingoing edge in (head, tail) order; the
    # ingoing edges of z sit at low[z]:low[z + 1]
    keys = head * n + tail
    arc = np.argsort(keys)
    keys, below = keys[arc], tail[arc]
    low = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indegree, out=low[1:])

    # every pair (i, j), i < j, of ingoing edges of one vertex z
    after = low[head[arc] + 1] - np.arange(m) - 1
    i = np.repeat(np.arange(m), after)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(after) - after, after)
    a, b = below[i], below[j]
    # each lower neighbour w of a, and whether w is one of b too
    fan = low[a + 1] - low[a]
    pair = np.repeat(np.arange(len(i)), fan)
    aw = (np.arange(len(pair))
          + np.repeat(low[a] - np.cumsum(fan) + fan, fan))
    want = b[pair] * n + below[aw]
    bw = np.minimum(np.searchsorted(keys, want), max(m - 1, 0))
    hit = keys[bw] == want
    # every pair must close exactly one square; a pair that closes two (an
    # induced K_2,3) would fail the matching or count checks below anyway,
    # and is refused here so that the scalar code's message names it
    if (np.bincount(pair[hit], minlength=len(i)) != 1).any():
        return None
    # opposite sides of square z-a-w-b: za ~ bw and zb ~ aw
    root = min_labels(m, np.concatenate((arc[i], arc[j])),
                      np.concatenate((arc[bw[hit]], arc[aw[hit]])))

    # a class's root is its smallest edge id; rank the roots
    is_root = root == np.arange(m)
    q = int(is_root.sum())
    cls = (np.cumsum(is_root) - 1)[root]
    if (n > 1 and q >= n) or 2 * n - m - q > 2:
        return None
    seen = np.sort(ends * q + np.repeat(cls, 2))
    if (seen[1:] == seen[:-1]).any():
        return None  # a class with two edges at one vertex
    return cls, q, head
