"""Shared oracles and corpus builders for the test suite.

Everything here is definitional / brute force and never routes through the
label pipeline it is used to check.
"""
from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from medianecc import (CubeIndex, EccReport, Graph, GraphValidationError,
                       NonMedianGraphError, ThetaDecomposition, bfs,
                       build_graph)
from medianecc.generators import (cartesian_product, fixture, gen_grid,
                                  gen_hypercube, gen_tree,
                                  peripheral_expansion)
from medianecc.oracle import distance_matrix
from medianecc.theta import MAX_DIM


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



def quick_dimension(g):
    """Largest ingoing-degree under the vertex-0 orientation (= dimension)."""
    dist = bfs(g, 0)
    best = 0
    for v in range(g.n):
        k = sum(1 for x in g.neighbors[v] if dist[x] < dist[v])
        if k > best:
            best = k
    return best


def djokovic_classes(g):
    """Edge partition by the distance-side test, independent of squares.

    Two edges share a class when the endpoints of one are split by the
    distance comparison toward the endpoints of the other.
    """
    assigned = [-1] * g.m
    groups = []
    for eid in range(g.m):
        if assigned[eid] >= 0:
            continue
        u, v = g.edges[eid]
        du = bfs(g, u)
        dv = bfs(g, v)
        group = []
        for e2, (x, y) in enumerate(g.edges):
            if assigned[e2] < 0 and (du[x] < dv[x]) != (du[y] < dv[y]):
                assigned[e2] = eid
                group.append(e2)
        groups.append(frozenset(group))
    return frozenset(groups)


def class_edges(theta):
    """Edge ids of every class, ascending, indexed by class id."""
    edges = [[] for _ in range(theta.q)]
    for eid, c in enumerate(theta.edge_class):
        edges[c].append(eid)
    return edges


def theta_partition(theta):
    return frozenset(frozenset(edges) for edges in class_edges(theta))


def brute_phi_table(g, theta, dist):
    """(basis, ladder set) -> max distance, computed from all pairs."""
    table = {}
    n = g.n
    dist0 = theta.dist0
    for v in range(n):
        dv = dist[v]
        for u in range(n):
            if dist0[u] + dv[u] != dist0[v]:
                continue
            lad = ladder_set_oracle(g, theta, u, v, dist_from_v=list(dv))
            key = (u, lad)
            if dv[u] > table.get(key, -1):
                table[key] = int(dv[u])
    return table


def median_of(dist, x, y, z):
    """The unique median vertex of a triple in a median graph."""
    meds = [w for w in range(len(dist))
            if dist[x][w] + dist[w][y] == dist[x][y]
            and dist[y][w] + dist[w][z] == dist[y][z]
            and dist[z][w] + dist[w][x] == dist[z][x]]
    assert len(meds) == 1, f"triple ({x},{y},{z}) has {len(meds)} medians"
    return meds[0]


def is_convex(g, subset, dist=None, budget=5000):
    """True when every interval between subset vertices stays inside it."""
    d = dist if dist is not None else distance_matrix(g, budget)
    s = np.fromiter(sorted(set(subset)), dtype=np.int64,
                    count=len(set(subset)))
    if s.size <= 1:
        return True
    mask = np.zeros(g.n, dtype=bool)
    mask[s] = True
    out = np.where(~mask)[0]
    if out.size == 0:
        return True
    d_s_out = d[np.ix_(s, out)]
    for i, u in enumerate(s):
        leak = d_s_out[i][None, :] + d_s_out == d[u, s][:, None]
        if leak.any():
            return False
    return True


def is_gated(g, subset, dist=None, budget=5000):
    """True when every outside vertex has a gate into the subset.

    A gate of v is a subset vertex lying on a shortest path from v to every
    subset vertex.
    """
    d = dist if dist is not None else distance_matrix(g, budget)
    s = np.fromiter(sorted(set(subset)), dtype=np.int64,
                    count=len(set(subset)))
    if s.size == 0:
        return True
    mask = np.zeros(g.n, dtype=bool)
    mask[s] = True
    out = np.where(~mask)[0]
    d_ss = d[np.ix_(s, s)]
    for v in out:
        dvs = d[v, s]
        gates = (dvs[:, None] + d_ss == dvs[None, :]).all(axis=1)
        if not gates.any():
            return False
    return True


def ortho_pairs(index):
    """Orthogonal class pairs (i, j), i < j: the class sets of the 2-cubes."""
    return {p for p in index.pof if len(p) == 2}


def orthogonal(pairs, i, j):
    """True when classes i and j appear on opposite sides of one square."""
    if i == j:
        raise ValueError("orthogonality is defined for distinct classes")
    return ((i, j) if i < j else (j, i)) in pairs


def is_pof(pairs, classes):
    classes = tuple(classes)
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if not orthogonal(pairs, classes[i], classes[j]):
                return False
    return True


def anti_bases(index):
    """Anti-basis of every record: v owns the id range ``ingoing[v]``."""
    anti = [0] * len(index)
    for v, ids in enumerate(index.ingoing):
        anti[ids.start:ids.stop] = [v] * len(ids)
    return anti


def record_id(index, pof, basis=None, anti_basis=None):
    """Id of the record with class set ``pof`` at the given basis, or at
    the given anti-basis; also asserts no two records share a basis and a
    class set."""
    keys = list(zip(index.basis, index.pof))
    assert len(set(keys)) == len(keys), "two cubes share basis and classes"
    ends, v = ((index.basis, basis) if anti_basis is None
               else (anti_bases(index), anti_basis))
    for r in range(len(index)):
        if ends[r] == v and index.pof[r] == tuple(pof):
            return r
    raise KeyError(f"no hypercube at vertex {v} with classes {tuple(pof)}")


def upsilon(index: CubeIndex, m: int) -> tuple:
    """Largest d(u, v) over pairs whose basepoint median is m, as
    (value, (u, v)).

    Scans every outgoing record paired with its opposite; the empty pof
    covers pairs where m itself is an endpoint. Requires
    ``compute_opposites`` to have run.
    """
    if index.opp is None:
        raise RuntimeError("compute_opposites must run before upsilon")
    opp, phi, mu = index.opp, index.phi, index.mu
    best = -1
    best_r = best_o = -1
    for r in index.outgoing[m]:
        o = opp[r]
        val = phi[r] + phi[o]
        if val > best:
            best = val
            best_r, best_o = r, o
    return best, (mu[best_r], mu[best_o])


def diameter_via_upsilon(index: CubeIndex) -> tuple:
    """Graph diameter and a realizing pair, as (value, (u, v)).

    The best value of phi(m, L) + phi(m, op(L)) over all m is the graph
    diameter, realized by the two witnesses: an independent route to the
    diameter through ``index.opp``, next to ``EccReport.diameter``.
    Deterministic: the smallest vertex m attaining the maximum wins, and
    within it the earliest record pair in enumeration order.
    """
    return max((upsilon(index, m) for m in range(index.n)),
               key=lambda res: res[0])


def scan_opposites(entries):
    """Opposite record ids of ``(pof, weight, record id)`` triples, in
    input order, by a plain scan: for each pof L, the first entry disjoint
    from L when ranked by weight (descending), pof size, then class list."""
    ranked = sorted(entries, key=lambda e: (-e[1], len(e[0]), e[0]))
    return [next(r for p, _, r in ranked if set(p).isdisjoint(pof))
            for pof, _, _ in entries]


def scan_phi(index, theta):
    """phi and mu of every record by the plain backward record sweep:
    each record r pairs with every ingoing record t of r's basis, and a
    class of r's pof incident to t's basis blocks the pair. Ties keep the
    first, i.e. largest, r. Returns fresh lists; ``index`` is unchanged."""
    incident = theta.incident
    pofs, basis, ingoing = index.pof, index.basis, index.ingoing
    phi = [0] * len(pofs)
    mu = anti_bases(index)

    for r in range(len(pofs) - 1, -1, -1):
        L = pofs[r]
        if not L:
            continue
        if phi[r] == 0:
            phi[r] = len(L)  # mu[r] already holds the record's anti-basis
        reach = phi[r]
        wit = mu[r]
        for t in ingoing[basis[r]]:
            X = pofs[t]
            if not X:
                continue
            inc_low = incident[basis[t]]
            blocked = False
            for c in L:
                if c in inc_low:
                    blocked = True
                    break
            if not blocked:
                cand = len(X) + reach
                if cand > phi[t]:
                    phi[t] = cand
                    mu[t] = wit
    return phi, mu


def scan_psi(index, theta):
    """psi and psi_witness of every record by the plain forward record
    sweep over ``index.phi``, ``index.mu`` and ``index.opp``: each record
    pairs with every ingoing record of its basis. Ties keep the opposite,
    then the smallest ingoing record id. Returns fresh lists."""
    incident = theta.incident
    pofs, phi, mu = index.pof, index.phi, index.mu
    basis, ingoing, opp = index.basis, index.ingoing, index.opp
    psi = [-1] * len(pofs)
    psiw = [-1] * len(pofs)

    for r in range(len(pofs)):
        X = pofs[r]
        if not X:
            continue
        low = basis[r]
        o = opp[r]
        size = len(X)
        best = size + phi[o]
        wit = mu[o]
        for t in ingoing[low]:
            if not pofs[t]:
                continue
            inc_lower = incident[basis[t]]
            blocked = False
            for c in X:
                if c in inc_lower:
                    blocked = True
                    break
            if blocked:
                continue
            cand = size + psi[t]
            if cand > best:
                best = cand
                wit = psiw[t]
        psi[r] = best
        psiw[r] = wit
    return psi, psiw


def small_corpus_graphs():
    """Named median graphs up to ~130 vertices for module-level checks."""
    graphs = [(name, fixture(name))
              for name in ("gstar", "hstar", "fig3", "cogwheel", "fig2c")]
    for seed in range(6):
        n = 2 + (seed * 23 + 7) % 120
        graphs.append((f"tree{seed}", gen_tree(n, seed)))
    for p, q in [(2, 2), (3, 4), (5, 5), (1, 9), (6, 7)]:
        graphs.append((f"grid{p}x{q}", gen_grid(p, q)))
    for k in range(1, 5):
        graphs.append((f"cube{k}", gen_hypercube(k)))
    graphs.append(("prod_tt", cartesian_product(gen_tree(6, 3),
                                                gen_tree(7, 4))))
    graphs.append(("prod_pp", cartesian_product(gen_grid(1, 5),
                                                gen_grid(1, 4))))
    graphs.append(("prod_cube_tree", cartesian_product(gen_hypercube(2),
                                                       gen_tree(5, 9))))
    # K_{1,12} x K_2: two hubs of degree 13
    star = build_graph(13, [(0, v) for v in range(1, 13)])
    graphs.append(("prod_star_edge", cartesian_product(star, gen_grid(1, 2))))
    for seed in range(6):
        g = peripheral_expansion(gen_tree(1, 0), seed, 12, max_n=120)
        graphs.append((f"expand{seed}", g))
    return graphs


def acceptance_corpus_graphs():
    """Deterministic corpus of >= 300 median graphs, n <= 500, dim <= 5."""
    graphs = []

    for i in range(120):
        n = 2 + (i * 67 + 13) % 479
        graphs.append((f"tree_{i}_n{n}", gen_tree(n, 1000 + i)))

    grid_shapes = []
    for p in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 20, 22):
        for q in sorted({p, p + 1, 2 * p, 500 // p}):
            if p <= q and p * q <= 500 and (p, q) not in grid_shapes:
                grid_shapes.append((p, q))
    for p, q in grid_shapes:
        graphs.append((f"grid_{p}x{q}", gen_grid(p, q)))

    prod_sizes = [(2, 9), (3, 7), (4, 12), (5, 5), (6, 20), (7, 9),
                  (8, 30), (10, 11), (12, 13), (15, 15), (20, 20), (9, 40),
                  (4, 4), (6, 6), (18, 25), (16, 30)]
    for i, (a, b) in enumerate(prod_sizes):
        for s in (0, 1):
            graphs.append((f"prod_tt_{i}_{s}",
                           cartesian_product(gen_tree(a, 2000 + i + s),
                                             gen_tree(b, 3000 + i + s))))
    for i, (p, q, b) in enumerate([(2, 3, 10), (3, 3, 8), (2, 5, 12),
                                   (4, 4, 6), (2, 2, 40), (3, 5, 15),
                                   (5, 5, 10), (2, 7, 20)]):
        graphs.append((f"prod_grid_tree_{i}",
                       cartesian_product(gen_grid(p, q),
                                         gen_tree(b, 4000 + i))))
    for i, b in enumerate([3, 5, 8, 12, 20, 30, 45, 60]):
        graphs.append((f"prod_q3_tree_{i}",
                       cartesian_product(gen_hypercube(3),
                                         gen_tree(b, 5000 + i))))
    for i, b in enumerate([2, 4, 8, 12, 16, 20, 25, 30]):
        graphs.append((f"prod_q4_path_{i}",
                       cartesian_product(gen_hypercube(4), gen_grid(1, b))))

    count = 0
    seed = 0
    while count < 80 and seed < 400:
        steps = 8 + (seed * 5) % 22
        g = peripheral_expansion(gen_tree(1, 0), 6000 + seed, steps,
                                 max_n=500)
        seed += 1
        if g.n >= 2 and quick_dimension(g) <= 5:
            graphs.append((f"expand_{seed}_n{g.n}", g))
            count += 1

    return graphs


def doctored(theta, in_classes):
    """A copy of ``theta`` whose ingoing classes are ``in_classes``; of a
    theta with arrays, the ingoing arrays change too. Each listed class
    leads across its edge at the vertex, or from the vertex to itself
    where there is none, so the walk refuses an added class as the scalar
    walk does: by its level check, where that edge leads up or is missing."""
    incident = theta.incident
    arrays = copy.copy(theta.arrays)
    if arrays is not None:
        arrays.kin = np.array([len(inc) for inc in in_classes], np.int64)
        arrays.in_ptr = np.concatenate(([0], np.cumsum(arrays.kin)))
        arrays.in_cls = np.array([c for inc in in_classes for c in inc],
                                 np.int64)
        arrays.in_tail = np.array([incident[v].get(c, v)
                                   for v, inc in enumerate(in_classes)
                                   for c in inc], np.int64)
    out = ThetaDecomposition(theta.v0, theta.q, arrays)
    vars(out).update(dist0=theta.dist0, edge_class=theta.edge_class,
                     incident=incident, in_classes=in_classes)
    return out


def minus_vertex(g, x):
    """g without vertex x; the ids above x move down by one."""
    return build_graph(g.n - 1, [(u - (u > x), v - (v > x))
                                 for u, v in g.edges if x not in (u, v)])


def bouquet(k):
    """k squares glued at vertex 0: 0-a-c-b-0 on a, c, b = 3i+1, 3i+2,
    3i+3. Median (planar, d = 2); vertex 0 has degree 2k."""
    edges = []
    for a in range(1, 3 * k + 1, 3):
        edges += [(0, a), (a, a + 1), (a + 1, a + 2), (0, a + 2)]
    return Graph(n=3 * k + 1, edges=tuple(edges))


def cogwheel(k):
    """k >= 4 squares around hub 0: a rim cycle 1..2k whose odd vertices
    are joined to the hub. Median (planar, d = 2); the hub has degree k."""
    rim = [(i, i % (2 * k) + 1) for i in range(1, 2 * k + 1)]
    spokes = [(0, i) for i in range(1, 2 * k + 1, 2)]
    return Graph(n=2 * k + 1, edges=tuple(spokes + rim))


def k2m(m):
    """K_2,m: vertices 0 and 1 each joined to vertices 2..m+1."""
    return Graph(n=m + 2, edges=tuple((h, i) for i in range(2, m + 2)
                                      for h in (0, 1)))


def near_median_graphs(seed, count):
    """``count`` seeded draws of (name, graph, basepoint): a median graph
    of at most 64 vertices (Q3..Q5, grids, tree x tree, Q3 x tree or an
    expansion) with one vertex or one edge removed, and a random
    basepoint. Draws whose removal disconnects the graph are redrawn.

    Most draws are not median; some are (a removed grid corner or tree
    leaf), so a check must accept those and refuse the rest.
    """
    rng = random.Random(seed)

    def base():
        kind = rng.randrange(5)
        s = rng.randrange(10_000)
        if kind == 0:
            return gen_hypercube(rng.randint(3, 5))
        if kind == 1:
            return gen_grid(rng.randint(2, 7), rng.randint(2, 8))
        if kind == 2:
            return cartesian_product(gen_tree(rng.randint(2, 8), s),
                                     gen_tree(rng.randint(2, 8), s + 1))
        if kind == 3:
            return cartesian_product(gen_hypercube(3),
                                     gen_tree(rng.randint(2, 8), s))
        return peripheral_expansion(gen_tree(rng.randint(1, 4), s), s,
                                    rng.randint(4, 12), max_n=64)

    draws = []
    while len(draws) < count:
        g = base()
        if g.n < 3:
            continue
        try:
            if rng.random() < 0.5:
                x = rng.randrange(g.n)
                h, name = minus_vertex(g, x), f"minus vertex {x}"
            else:
                i = rng.randrange(g.m)
                h = build_graph(g.n, g.edges[:i] + g.edges[i + 1:])
                name = f"minus edge {g.edges[i]}"
        except GraphValidationError:
            continue
        draws.append((f"draw {len(draws)}: n={g.n} {name}", h,
                      rng.randrange(h.n)))
    return draws


def reference_theta(g, v0):
    """``(edge_class, q)`` of g from v0 by union-find over every square's
    two relations, pairs searched vertex by vertex in id order, with the
    checks and messages of ``compute_theta``; a reference for the class
    inheritance that the package uses instead."""
    dist0 = bfs(g, v0)
    for u, v in g.edges:
        if dist0[u] == dist0[v]:
            raise NonMedianGraphError(
                f"edge ({u}, {v}) joins vertices at equal distance from the "
                f"basepoint; graph is not bipartite")
    neighbors = g.neighbors
    down = [[(x, e) for x, e in nz.items() if dist0[x] < dz]
            for nz, dz in zip(neighbors, dist0)]
    for z, inn in enumerate(down):
        if len(inn) > MAX_DIM:
            raise NonMedianGraphError(
                f"vertex {z} has {len(inn)} ingoing classes, above the "
                f"supported dimension {MAX_DIM}")
    parent = list(range(g.m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)

    for z, inn in enumerate(down):
        for i, (a, ea) in enumerate(inn):
            for b, eb in inn[i + 1:]:
                common = [(x, ex) for x, ex in down[a] if x in neighbors[b]]
                if len(common) > 1:
                    raise NonMedianGraphError(
                        f"vertices {a} and {b} have two common neighbors "
                        f"below them (induced K_2,3)")
                if not common:
                    raise NonMedianGraphError(
                        f"ingoing edges of vertex {z} through {a} and {b} "
                        f"close no square")
                (w, ew), = common
                union(ea, neighbors[b][w])
                union(eb, ew)
    # a class's root is its smallest edge id
    roots = sorted({find(e) for e in range(g.m)})
    rank = {r: c for c, r in enumerate(roots)}
    edge_class = [rank[find(e)] for e in range(g.m)]
    q = len(roots)
    if g.n > 1 and q >= g.n:
        raise NonMedianGraphError(f"class count {q} is not below n = {g.n}")
    if 2 * g.n - g.m - q > 2:
        raise NonMedianGraphError(
            f"count identity violated: 2n - m - q = {2 * g.n - g.m - q} > 2")
    seen = set()
    for (u, v), c in zip(g.edges, edge_class):
        for x in (u, v):
            if (x, c) in seen:
                raise NonMedianGraphError(
                    f"class {c} is not a matching: two of its edges share "
                    f"vertex {x}")
            seen.add((x, c))
    return edge_class, q


def random_bipartite_graphs(seed, count, sizes=(3, 12)):
    """``count`` seeded draws of (graph, basepoint): a random tree on n
    vertices, n drawn from ``sizes``, plus up to n random edges between
    its two colour classes, and a random basepoint. Connected and
    bipartite; some are median, most are not."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        n = rng.randint(*sizes)
        parent = [None] + [rng.randrange(v) for v in range(1, n)]
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
        edges = {(parent[v], v) for v in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = sorted(rng.sample(range(n), 2))
            if (depth[u] + depth[v]) % 2:
                edges.add((u, v))
        draws.append((build_graph(n, sorted(edges)), rng.randrange(n)))
    return draws
