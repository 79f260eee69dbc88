"""Median-graph generators and the named counterexample fixtures.

Trees, grids, hypercubes, Cartesian products of median factors, and
interval-based peripheral expansions all stay median by construction.
The fixtures pin exact vertex ids so the heuristic counterexample runs
are reproducible regression tests.

Each output is simple and connected by construction, from the parameters
checked here and from input graphs that are already valid, so the graphs
are built directly and never pass through ``graph.build_graph``.
"""
from __future__ import annotations

import random

from .graph import Graph, bfs

FIXTURE_NAMES = ("gstar", "hstar", "fig3", "cogwheel", "fig2c")

MAX_PRODUCT_N = 2_000_000  # the most vertices cartesian_product builds

_FIXTURES = {
    # square 0-1-3-2 with pendant 4 on vertex 3; 2-sweep from vertex 1
    # settles for 2 while the diameter is d(0, 4) = 3
    "gstar": (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    # 3x3 grid with three pendants; ids make the smallest-id tie-breaks
    # reproduce the failing 4-sweep run from the center (vertex 0):
    # a1 = pendant 1, b1 = far corner 9, restart middle = 0 again
    "hstar": (12, [(0, 3), (0, 4), (0, 6), (0, 7), (1, 2), (2, 3), (2, 4),
                   (3, 5), (4, 8), (5, 6), (5, 10), (6, 9), (7, 8), (7, 9),
                   (8, 11)]),
    # two stacked squares plus a step; its eight vertices realize all eight
    # pofs over the four classes
    "fig3": (8, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 6),
                 (4, 7), (5, 6), (6, 7)]),
    # five squares fanned around a hub
    "cogwheel": (11, [(0, 1), (0, 2), (1, 3), (1, 10), (2, 3), (2, 5),
                      (3, 4), (3, 6), (3, 8), (4, 7), (4, 9), (5, 6),
                      (6, 7), (8, 9), (8, 10)]),
    # a 3-cube glued to a square, with two pendants
    "fig2c": (12, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (2, 6), (3, 5),
                   (3, 7), (4, 5), (4, 8), (5, 9), (6, 7), (6, 8), (7, 9),
                   (7, 10), (8, 9), (9, 11)]),
}


def fixture(name: str) -> Graph:
    """Named test graph with pinned vertex ids."""
    try:
        n, edges = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; "
                         f"choose from {', '.join(FIXTURE_NAMES)}") from None
    return Graph(n=n, edges=tuple(edges))


def gen_tree(n: int, seed: int) -> Graph:
    """Random attachment tree: vertex v hangs off a uniform earlier vertex."""
    if n < 1:
        raise ValueError("tree needs at least one vertex")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    return Graph(n=n, edges=tuple(edges))


def gen_grid(p: int, q: int) -> Graph:
    """p x q lattice; vertex (i, j) is i*q + j."""
    if p < 1 or q < 1:
        raise ValueError("grid sides must be positive")
    edges = []
    for i in range(p):
        for j in range(q):
            v = i * q + j
            if j + 1 < q:
                edges.append((v, v + 1))
            if i + 1 < p:
                edges.append((v, v + q))
    return Graph(n=p * q, edges=tuple(edges))


def gen_hypercube(k: int) -> Graph:
    """k-dimensional hypercube on bit-vector ids, k <= 20."""
    if not (0 <= k <= 20):
        raise ValueError("hypercube dimension must be within 0..20")
    n = 1 << k
    edges = [(x, x | (1 << b))
             for x in range(n) for b in range(k) if not x >> b & 1]
    return Graph(n=n, edges=tuple(edges))


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Cartesian product; median when both factors are, dim adds up."""
    n = g1.n * g2.n
    if n > MAX_PRODUCT_N:
        raise ValueError(
            f"product would have {n} vertices, above {MAX_PRODUCT_N}")
    edges = []
    for a in range(g1.n):
        base = a * g2.n
        for u, v in g2.edges:
            edges.append((base + u, base + v))
    for u, v in g1.edges:
        for b in range(g2.n):
            edges.append((u * g2.n + b, v * g2.n + b))
    return Graph(n=n, edges=tuple(edges))


def _interval(g: Graph, a: int, b: int) -> list:
    """I(a, b): the vertices on some shortest a-b path, ascending."""
    da = bfs(g, a)
    db = bfs(g, b)
    dab = da[b]
    return [x for x in range(g.n) if da[x] + db[x] == dab]


def _double(g: Graph, hull: list) -> Graph:
    """Copy the vertex set ``hull`` and match each copy to its original."""
    clone = {h: g.n + i for i, h in enumerate(hull)}
    edges = list(g.edges)
    for u, v in g.edges:
        cu, cv = clone.get(u), clone.get(v)
        if cu is not None and cv is not None:
            edges.append((cu, cv))
    for h in hull:
        edges.append((h, clone[h]))
    return Graph(n=g.n + len(hull), edges=tuple(edges))


def expand_once(g: Graph, a: int, b: int) -> Graph:
    """Duplicate the interval I(a, b) and match the copy onto the original.

    Intervals are convex, hence gated, so the doubled graph is again
    median; copies take the next free ids in ascending interval order.
    """
    return _double(g, _interval(g, a, b))


def peripheral_expansion(g: Graph, seed: int, steps: int,
                         max_n: int = 100_000) -> Graph:
    """Grow a median graph by repeated random interval expansions.

    Steps whose expansion would push past ``max_n`` are skipped (their
    random draws still consumed, keeping runs reproducible by seed).
    """
    rng = random.Random(seed)
    for _ in range(steps):
        a = rng.randrange(g.n)
        b = rng.randrange(g.n)
        hull = _interval(g, a, b)
        if g.n + len(hull) > max_n:
            continue
        g = _double(g, hull)
    return g
