"""Theta classes of a median graph and their basepoint orientation.

Two edges are related when they are opposite sides of some 4-cycle; the
theta classes are the transitive closure of that relation. On median input
every class is a perfect-matching cutset whose removal leaves exactly two
components (the halfspaces). Orienting every edge away from a basepoint v0
gives each vertex its ingoing / outgoing class sets, the raw material for
the cube enumeration.

Median graphs are the 1-skeleta of CAT(0) cube complexes (Chepoi, "Graphs
of some CAT(0) complexes", Adv. Appl. Math. 24, 2000), which by Gromov's
criterion are the simply connected ones whose vertex links are flag
simplicial complexes. In graph terms (Chepoi 2000): a graph is median
exactly when the cube complex spanned by its induced cubes is simply
connected, it has no induced K_2,3, and it satisfies the 3-cube condition:
any three squares that share a vertex and pairwise share an edge lie in
one 3-cube.

The simply connected half is checked here: any two ingoing edges of a
vertex must close a square two levels down. On any cycle, both cycle edges
at its vertex farthest from v0 point into it, so their square replaces
them by two edges one level lower, shortening the cycle's total distance
to v0; repeating this contracts every cycle through squares.

No input that passes here has two squares at a vertex x that share both
of x's edges x-u and x-v (an induced K_2,3, a link that is not
simplicial): then u and v have three common neighbours x, y, y', and some
class gets two edges at one vertex, which the matching check refuses.
If u and v are on different levels, say v above, then x, y, y' all point
into v, and v's square checks complete (x, y) and (x, y') at u, putting
u-y and u-y' into the class of v-x. If u and v are on one level, two of
x, y, y' are on the same side of it. Two above, z and z', both complete
(u, v) at the same vertex w below, putting u-z and u-z' into the class of
v-w. Two below, p and p', are completed at one vertex w two levels down
by the square checks at u and at v, putting u-p and v-p into the class of
p'-w. A missing or ambiguous completion is refused where it is met.

The link half, the 3-cube condition, is checked at the end of
``cubes.enumerate_cubes``.

Classes need no union-find on median input (Beneteau, Chalopin, Chepoi
and Vaxes, ICALP 2020). By level, an edge into a vertex with one ingoing
edge starts a class (that vertex is the gate of v0 in the halfspace the
edge enters, so the edge is its class's lowest), and every other ingoing
edge z-a takes the class of b-w, opposite it in its first square
z-a-w-b. Later squares compare classes; a union joins any two that
disagree, which happens on non-median input only.

Graphs of ``graph.FLAT_MIN_EDGES`` edges or more go through
``medianecc.flat``, the same steps on numpy arrays; where it refuses a
graph, the code here runs and raises its error.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .graph import FLAT_MIN_EDGES, Graph, bfs

MAX_DIM = 20  # most ingoing classes at a vertex (2^k records); Q20 fits


class NonMedianGraphError(RuntimeError):
    """A structural invariant that holds on median graphs failed.

    Nothing verifies medianness up front; theta and the cube enumeration
    raise this as soon as the input contradicts an invariant they rely on,
    and between them they do so on every input that is not median.
    """


@dataclass(frozen=True)
class ThetaDecomposition:
    """Edge classes plus the v0-oriented incidence indexes.

    ``dist0[v]`` is v's distance from v0; ``edge_class[e]`` is the class of
    edge e, classes being numbered in the order of their smallest edge ids.
    ``incident[v]`` maps class id -> the neighbour of v across its edge of
    that class (classes are matchings, so v has at most one such edge).
    ``in_classes[v]`` lists, ascending, the classes of the edges that point
    into v: an edge (u, v) points u -> v when dist0[u] < dist0[v].

    The scalar path stores those four; the flat path builds them on first
    read from ``arrays`` (``flat.ThetaArrays``), which the cube walk reads.
    """

    v0: int
    q: int
    arrays: Optional[object] = field(default=None, repr=False, compare=False)

    dist0, edge_class, incident, in_classes = (
        cached_property(lambda self, name=name: getattr(self.arrays, name)())
        for name in ("dist0", "edge_class", "incident", "in_classes"))


def compute_theta(g: Graph, v0: int = 0) -> ThetaDecomposition:
    """Group edges into theta classes and index them around each vertex.

    Squares are enumerated at their farthest-from-v0 corner z: every pair
    of ingoing edges z-a, z-b must close a 4-cycle through a unique common
    neighbor of a and b two levels down, found among a's lower neighbors.
    Vertices are visited by level (see the module docstring for the
    classes). A vertex with more than ``MAX_DIM`` ingoing edges is refused
    before any pair is searched, so no search grows with a degree. Missing
    or ambiguous completions, equal-level edges, oversized class counts,
    and non-matching classes also raise NonMedianGraphError. An ambiguous
    completion (two common lower neighbors, an induced K_2,3) is counted
    only for its message: without that count the matching or count checks
    refuse the input anyway, with a message that names the fault less
    plainly.
    """
    if not (0 <= v0 < g.n):
        raise ValueError(f"basepoint {v0} out of range 0..{g.n - 1}")
    if g.m >= FLAT_MIN_EDGES:
        from . import flat
        theta = flat.compute_theta(g, v0)
        if theta is not None:
            return theta
    return _theta_scalar(g, v0)


def _theta_scalar(g: Graph, v0: int) -> ThetaDecomposition:
    """compute_theta one vertex at a time; raises at the first fault."""
    dist0 = g.dist0 if v0 == 0 else bfs(g, v0)
    edges = g.edges
    m = g.m

    for eid, (u, v) in enumerate(edges):
        if dist0[u] == dist0[v]:
            raise NonMedianGraphError(
                f"edge ({u}, {v}) joins vertices at equal distance from the "
                f"basepoint; graph is not bipartite")

    # each vertex's lower neighbours and the edges to them, ascending
    neighbors = g.neighbors
    down = [[(x, e) for x, e in nz.items() if dist0[x] < dz]
            for nz, dz in zip(neighbors, dist0)]
    for z, inn in enumerate(down):
        if len(inn) > MAX_DIM:
            raise NonMedianGraphError(
                f"vertex {z} has {len(inn)} ingoing classes, above the "
                f"supported dimension {MAX_DIM}")
    # label[e] names e's class by an edge: its own, or that of the
    # opposite side of its first square; later squares compare labels
    label = list(range(m))
    clashes = []
    for z in sorted(range(g.n), key=dist0.__getitem__):
        inn = down[z]
        for i in range(len(inn) - 1):
            a, ea = inn[i]
            for j in range(i + 1, len(inn)):
                b, eb = inn[j]
                nb = neighbors[b]
                w = -1
                for x, ex in down[a]:
                    if x in nb:
                        if w >= 0:
                            raise NonMedianGraphError(
                                f"vertices {a} and {b} have two common "
                                f"neighbors below them (induced K_2,3)")
                        w, ew = x, ex
                if w < 0:
                    raise NonMedianGraphError(
                        f"ingoing edges of vertex {z} through {a} and {b} "
                        f"close no square")
                # opposite sides of the square z-a-w-b: za ~ bw, zb ~ aw
                bw = nb[w]
                if i == 0:  # the first square of z-b, and of z-a if j == 1
                    label[eb] = label[ew]
                    if j == 1:
                        label[ea] = label[bw]
                if label[ea] != label[bw] or label[eb] != label[ew]:
                    clashes += (label[ea], label[bw]), (label[eb], label[ew])
    if clashes:  # non-median input only: join the labels squares relate
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for x, y in clashes:
            parent[find(x)] = find(y)
        label = [find(x) for x in label]

    # canonical class ids: ascending minimum edge id
    rank: dict = {}
    edge_class = [rank.setdefault(x, len(rank)) for x in label]
    q = len(rank)

    if g.n > 1 and q >= g.n:
        raise NonMedianGraphError(f"class count {q} is not below n = {g.n}")
    if 2 * g.n - m - q > 2:
        raise NonMedianGraphError(
            f"count identity violated: 2n - m - q = {2 * g.n - m - q} > 2")

    incident: list = [dict() for _ in range(g.n)]
    ingoing: list = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(edges):
        c = edge_class[eid]
        for x, y in ((u, v), (v, u)):
            if c in incident[x]:
                raise NonMedianGraphError(
                    f"class {c} is not a matching: two of its edges share "
                    f"vertex {x}")
            incident[x][c] = y
        ingoing[v if dist0[u] < dist0[v] else u].append(c)
    theta = ThetaDecomposition(v0=v0, q=q)
    vars(theta).update(dist0=dist0, edge_class=edge_class,
                       incident=tuple(incident),
                       in_classes=tuple(tuple(sorted(cs)) for cs in ingoing))
    return theta
