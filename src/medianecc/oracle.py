"""Brute-force ground truth: all-pairs distances, eccentricities, median
verdicts, and the BFS-based halfspace, ladder-set and milestone references
for the pipeline's structural lemmas.

Everything here is definitional and independent of the label pipeline, so
it can be used to check it. Distances come from per-source unit-weight
searches done in compiled code; the triple checks are vectorized.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .eccentricity import EccReport
from .graph import Graph, bfs
from .theta import NonMedianGraphError, ThetaDecomposition


def _adjacency(g: Graph) -> csr_matrix:
    if g.m == 0:
        return csr_matrix((g.n, g.n), dtype=np.int8)
    rows = np.empty(2 * g.m, dtype=np.int32)
    cols = np.empty(2 * g.m, dtype=np.int32)
    for i, (u, v) in enumerate(g.edges):
        rows[2 * i], cols[2 * i] = u, v
        rows[2 * i + 1], cols[2 * i + 1] = v, u
    data = np.ones(2 * g.m, dtype=np.int8)
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def distance_matrix(g: Graph, budget: int = 5000) -> np.ndarray:
    """Full hop-distance matrix; one unit-weight search per vertex."""
    if g.n > budget:
        raise ValueError(f"n = {g.n} exceeds the distance budget {budget}")
    d = dijkstra(_adjacency(g), unweighted=True)
    if np.isinf(d).any():
        raise ValueError("graph is disconnected")
    return d.astype(np.int32)


def brute_eccentricities(g: Graph, budget: int = 5000) -> EccReport:
    """Exact eccentricity report from the full distance matrix.

    ``ecc``, ``diameter``, ``radius``, ``center_vertex`` and
    ``diametral_pair[0]`` equal the label pipeline's, which also takes the
    smallest achieving vertex. The witnesses match it only in distance:
    here each is the smallest farthest id, while the pipeline picks the
    smallest id among the records attaining the maximum, which can be a
    different farthest vertex.
    """
    d = distance_matrix(g, budget)
    ecc = d.max(axis=1)
    witness = d.argmax(axis=1)  # first occurrence = smallest id
    diameter = int(ecc.max())
    radius = int(ecc.min())
    u_star = int(ecc.argmax())
    center = int(ecc.argmin())
    return EccReport(ecc=[int(x) for x in ecc],
                     witness=[int(x) for x in witness],
                     diameter=diameter, radius=radius,
                     diametral_pair=(u_star, int(witness[u_star])),
                     center_vertex=center)


# is_median checks all triples up to this many vertices, on an n^3 float32
# betweenness tensor (8 MiB at 128)
EXHAUSTIVE_LIMIT = 128


@dataclass(frozen=True)
class MedianCheck:
    """Verdict of the unique-median test over vertex triples."""

    is_median: bool
    witness: Optional[tuple]  # (x, y, z, median_count) when violated
    mode: str  # "exhaustive" or "sampled"


def is_median(g: Graph, samples: int = 100_000, seed: int = 0,
              budget: int = 5000) -> MedianCheck:
    """Check that every vertex triple has exactly one median.

    Exhaustive up to ``EXHAUSTIVE_LIMIT`` vertices (all triples), sampled
    above it with a seeded generator; a sampled pass can only ever report
    "no violation found".
    """
    n = g.n
    if n <= 2:
        return MedianCheck(True, None, "exhaustive")
    d = distance_matrix(g, budget)

    if n <= EXHAUSTIVE_LIMIT:
        between = (d[:, None, :] + d[None, :, :] == d[:, :, None])
        bet = between.astype(np.float32)
        ids = np.arange(n)
        for z in range(n):
            counts = np.einsum("xyw,yw,xw->xy", bet, bet[:, z, :], bet[z])
            bad = counts != 1.0
            bad[ids == z, :] = False
            bad[:, ids == z] = False
            np.fill_diagonal(bad, False)
            if bad.any():
                x, y = np.argwhere(bad)[0]
                return MedianCheck(False, (int(x), int(y), z,
                                           int(counts[x, y])), "exhaustive")
        return MedianCheck(True, None, "exhaustive")

    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        batch = min(remaining, 8192)
        remaining -= batch
        xs = rng.integers(0, n, batch)
        ys = rng.integers(0, n, batch)
        zs = rng.integers(0, n, batch)
        distinct = (xs != ys) & (ys != zs) & (xs != zs)
        if not distinct.any():
            continue
        xs, ys, zs = xs[distinct], ys[distinct], zs[distinct]
        c1 = d[xs] + d[ys] == d[xs, ys][:, None]
        c2 = d[ys] + d[zs] == d[ys, zs][:, None]
        c3 = d[zs] + d[xs] == d[zs, xs][:, None]
        counts = (c1 & c2 & c3).sum(axis=1)
        bad = counts != 1
        if bad.any():
            i = int(np.argmax(bad))
            return MedianCheck(False, (int(xs[i]), int(ys[i]), int(zs[i]),
                                       int(counts[i])), "sampled")
    return MedianCheck(True, None, "sampled")


def medians_of_triple(d: np.ndarray, x: int, y: int, z: int) -> list:
    """All vertices lying between each pair of the triple."""
    c = ((d[x] + d[y] == d[x, y]) & (d[y] + d[z] == d[y, z])
         & (d[z] + d[x] == d[z, x]))
    return [int(w) for w in np.where(c)[0]]


def halfspace_sides(g: Graph, theta: ThetaDecomposition, cls: int) -> list:
    """Side of the given class's cut for each vertex; True = away from v0.

    Uses the class's edge of smallest id, (u, v) with u closer to v0:
    a vertex belongs to the far side exactly when it is strictly closer
    to v. A distance tie contradicts bipartiteness and raises.
    """
    if not (0 <= cls < theta.q):
        raise ValueError(f"class id {cls} out of range 0..{theta.q - 1}")
    eid = theta.edge_class.index(cls)
    u, v = g.edges[eid]
    if theta.dist0[u] > theta.dist0[v]:
        u, v = v, u
    du = bfs(g, u)
    dv = bfs(g, v)
    side = [False] * g.n
    for x in range(g.n):
        if du[x] == dv[x]:
            raise NonMedianGraphError(
                f"vertex {x} is equidistant from both endpoints of an edge "
                f"of class {cls}")
        side[x] = dv[x] < du[x]
    return side


def ladder_set_oracle(g: Graph, theta: ThetaDecomposition, u: int, v: int,
                      dist_from_v: Optional[list] = None) -> tuple:
    """Reference ladder set of (u, v), requiring u between v0 and v.

    A class incident to u separates u from v exactly when the matched
    neighbor is strictly closer to v, so one BFS from v suffices.
    """
    dv = dist_from_v if dist_from_v is not None else bfs(g, v)
    if theta.dist0[u] + dv[u] != theta.dist0[v]:
        raise ValueError(
            f"vertex {u} is not between the basepoint and vertex {v}")
    du = dv[u]
    edge_class = theta.edge_class
    out = [edge_class[eid] for x, eid in g.neighbors[u].items()
           if dv[x] == du - 1]
    out.sort()
    return tuple(out)


def milestones_oracle(g: Graph, theta: ThetaDecomposition, u: int,
                      v: int) -> list:
    """Reference jump chain from u up to v (u between v0 and v required).

    Repeatedly hop through the hypercube spanned by the current vertex's
    ladder classes toward v; the chain records each landing vertex and ends
    at v.
    """
    dv = bfs(g, v)
    if theta.dist0[u] + dv[u] != theta.dist0[v]:
        raise ValueError(
            f"vertex {u} is not between the basepoint and vertex {v}")
    incident = theta.incident
    edge_class = theta.edge_class
    chain = [u]
    cur = u
    for _ in range(g.n + 1):
        if cur == v:
            return chain
        ladder = sorted(edge_class[eid] for x, eid in g.neighbors[cur].items()
                        if dv[x] == dv[cur] - 1)
        nxt = cur
        for c in ladder:
            if c not in incident[nxt]:
                raise NonMedianGraphError(
                    f"jump from vertex {cur} stalled: no edge of class {c} "
                    f"at vertex {nxt}")
            nxt = incident[nxt][c]
        if dv[nxt] != dv[cur] - len(ladder):
            raise NonMedianGraphError(
                f"jump from vertex {cur} did not move {len(ladder)} steps "
                f"toward vertex {v}")
        chain.append(nxt)
        cur = nxt
    raise NonMedianGraphError("jump chain exceeded the vertex count")
