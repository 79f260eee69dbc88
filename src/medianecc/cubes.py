"""Enumeration of all induced hypercubes as (anti-basis, basis, pof) records.

Every induced hypercube of a median graph is identified by its anti-basis
(farthest-from-v0 corner) together with the set of classes of its edges,
which is a pairwise-orthogonal family (pof) and a subset of the anti-basis'
ingoing classes. Conversely each such subset yields one hypercube, so the
enumeration walks every vertex in basepoint-BFS order and emits one record
per subset of its ingoing classes, the empty set included (0-cubes).

Records are stored as parallel arrays; label slots (phi/mu/psi/...) are
filled by later passes. The record list keeps anti-bases in nondecreasing
distance from v0, which is the order those passes rely on.
"""
from __future__ import annotations

from typing import Optional

from .graph import Graph
from .theta import NonMedianGraphError, ThetaDecomposition


class CubeIndex:
    """All hypercube records.

    ``outgoing[v]`` / ``ingoing[v]`` list record ids whose basis /
    anti-basis is v, in enumeration order.
    """

    __slots__ = ("n", "dimension", "basis", "anti_basis", "pof", "phi", "mu",
                 "psi", "psi_witness", "outgoing", "ingoing", "opp")

    def __init__(self, n: int):
        self.n = n
        self.dimension = 0
        self.basis: list = []
        self.anti_basis: list = []
        self.pof: list = []
        self.phi: list = []
        self.mu: list = []
        self.psi: list = []
        self.psi_witness: list = []
        self.outgoing: list = [[] for _ in range(n)]
        self.ingoing: list = [[] for _ in range(n)]
        self.opp: Optional[list] = None

    def __len__(self) -> int:
        return len(self.pof)

    def distinct_pofs(self) -> set:
        return set(self.pof)

    def beta_histogram(self) -> list:
        """Count of distinct pofs per cardinality, index = size."""
        counts = [0] * (self.dimension + 1)
        for p in self.distinct_pofs():
            counts[len(p)] += 1
        return counts


def enumerate_cubes(g: Graph, theta: ThetaDecomposition,
                    max_dim: int = 20) -> CubeIndex:
    """Emit one record per (anti-basis vertex, subset of ingoing classes).

    For each subset the basis is found by walking one incident edge per
    class, in ascending class order; the landing vertex must sit exactly
    |pof| levels closer to v0. Any missing edge along the walk marks
    non-median input.
    """
    n = g.n
    dist0 = theta.dist0
    incident = theta.incident
    edges = g.edges

    levels: list = [[] for _ in range(max(dist0) + 1)]
    for v in range(n):
        levels[dist0[v]].append(v)

    index = CubeIndex(n)
    basis, anti, pofs = index.basis, index.anti_basis, index.pof
    phi, mu = index.phi, index.mu
    psi, psiw = index.psi, index.psi_witness
    outgoing, ingoing = index.outgoing, index.ingoing
    dim = 0

    for level in levels:
        for v in level:
            inc = theta.in_classes[v]
            k = len(inc)
            if k > max_dim:
                raise NonMedianGraphError(
                    f"vertex {v} has {k} ingoing classes, above the "
                    f"supported dimension {max_dim}")
            if k > dim:
                dim = k
            dv = dist0[v]
            for mask in range(1 << k):
                pof = tuple(inc[i] for i in range(k) if mask >> i & 1)
                w = v
                for c in pof:
                    eid = incident[w].get(c)
                    if eid is None:
                        raise NonMedianGraphError(
                            f"walk from vertex {v} with classes {pof} "
                            f"stalled: no edge of class {c} at vertex {w}")
                    a, b = edges[eid]
                    w = b if a == w else a
                if dist0[w] != dv - len(pof):
                    raise NonMedianGraphError(
                        f"walk from vertex {v} with classes {pof} landed at "
                        f"vertex {w}, not |pof| levels down")
                rid = len(pofs)
                basis.append(w)
                anti.append(v)
                pofs.append(pof)
                phi.append(0)
                mu.append(v)
                psi.append(-1)
                psiw.append(-1)
                outgoing[w].append(rid)
                ingoing[v].append(rid)

    index.dimension = dim
    return index
