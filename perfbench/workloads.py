"""Seeded inputs for the medianecc benchmark and the answers they must give.

Each workload is a list of graphs. ``make(seed)`` builds them with
``medianecc.generators`` and serialises each to edge-list text; this is the
set-up the benchmark times as ``setup_s``. The seed decides every random
choice, including the order of the edge lines, so the same seed gives the
same texts. ``expect(graph)`` then derives, outside every timed region, the
exact eccentricities and a witness-distance function from an oracle that
never runs the label pipeline: a closed form for the grid and the
hypercube, all-pairs distances for the small batch.

Why these three (layer shares are from the first traced run, see README.md):

* grid-80k: the paper's linear-in-n headline at d = 2. Parse, theta, cubes
  and opposites all carry weight, so n-bound and memory work shows here.
* cube-q11: d = 11 with only 2,048 vertices. Opposites, phi and psi
  dominate and parse is negligible, so it shows the growth with d and
  bypasses the n-bound layers.
* small-batch: about 300 small median graphs (n <= 500, d <= 5). Per-call
  and per-level fixed costs dominate, so a vectorised rewrite that wins on
  grid-80k can lose here.
"""
from __future__ import annotations

import random
from collections import deque
from typing import Callable, NamedTuple

import numpy as np

from medianecc.generators import (cartesian_product, gen_grid, gen_hypercube,
                                  gen_tree, peripheral_expansion)
from medianecc.graph import Graph, build_graph
from medianecc.oracle import distance_matrix

GRID_SIDE = 283
CUBE_DIM = 11
SMALL_MAX_N = 500
SMALL_MAX_DIM = 5
SMALL_EXPANSIONS = 80


class Expected(NamedTuple):
    """Exact eccentricities, and the distance from each vertex to a
    proposed witness vector (so any farthest vertex is accepted)."""

    ecc: np.ndarray
    witness_dist: Callable[[np.ndarray], np.ndarray]


def serialise(g: Graph, rng: random.Random) -> str:
    """Edge-list text of ``g`` with its edge lines in seeded order."""
    edges = list(g.edges)
    rng.shuffle(edges)
    lines = [f"{g.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _grid_graphs(rng: random.Random) -> list:
    return [gen_grid(GRID_SIDE, GRID_SIDE)]


def _grid_expect(g: Graph) -> Expected:
    p = q = GRID_SIDE
    ids = np.arange(g.n)
    i, j = ids // q, ids % q
    ecc = np.maximum(i, p - 1 - i) + np.maximum(j, q - 1 - j)
    return Expected(ecc, lambda w: np.abs(w // q - i) + np.abs(w % q - j))


def _cube_graphs(rng: random.Random) -> list:
    return [gen_hypercube(CUBE_DIM)]


def _cube_expect(g: Graph) -> Expected:
    ids = np.arange(g.n)

    def hamming(w: np.ndarray) -> np.ndarray:
        x = w ^ ids
        return sum((x >> b) & 1 for b in range(CUBE_DIM))

    return Expected(np.full(g.n, CUBE_DIM), hamming)


def _dimension(g: Graph) -> int:
    """Largest count of neighbours closer to vertex 0, which is the cube
    dimension of a median graph; a BFS of the benchmark's own."""
    dist = [-1] * g.n
    dist[0] = 0
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in g.neighbors[x]:
            if dist[y] < 0:
                dist[y] = dist[x] + 1
                queue.append(y)
    return max(sum(1 for x in g.neighbors[v] if dist[x] < dist[v])
               for v in range(g.n))


def _small_graphs(rng: random.Random) -> list:
    """A fixed mix of families and sizes; the seed draws tree shapes and
    expansion intervals, so record counts barely move between seeds."""
    def s() -> int:
        return rng.randrange(1 << 30)

    graphs = []
    for i in range(120):
        graphs.append(gen_tree(2 + (i * 67 + 13) % 479, s()))

    shapes = []
    for p in (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 20, 22):
        for q in sorted({p, p + 1, 2 * p, SMALL_MAX_N // p}):
            if p <= q and p * q <= SMALL_MAX_N and (p, q) not in shapes:
                shapes.append((p, q))
    graphs.extend(gen_grid(p, q) for p, q in shapes)

    for a, b in [(2, 9), (3, 7), (4, 12), (5, 5), (6, 20), (7, 9), (8, 30),
                 (10, 11), (12, 13), (15, 15), (20, 20), (9, 40), (4, 4),
                 (6, 6), (18, 25), (16, 30)]:
        for _ in range(2):
            graphs.append(cartesian_product(gen_tree(a, s()), gen_tree(b, s())))
    for p, q, b in [(2, 3, 10), (3, 3, 8), (2, 5, 12), (4, 4, 6), (2, 2, 40),
                    (3, 5, 15), (5, 5, 10), (2, 7, 20)]:
        graphs.append(cartesian_product(gen_grid(p, q), gen_tree(b, s())))
    for b in [3, 5, 8, 12, 20, 30, 45, 60]:
        graphs.append(cartesian_product(gen_hypercube(3), gen_tree(b, s())))
    for b in [2, 4, 8, 12, 16, 20, 25, 30]:
        graphs.append(cartesian_product(gen_hypercube(4), gen_grid(1, b)))

    single = build_graph(1, [])
    made = tries = 0
    while made < SMALL_EXPANSIONS:
        if tries == 20 * SMALL_EXPANSIONS:
            raise RuntimeError(f"only {made} expansions with d <= "
                               f"{SMALL_MAX_DIM} in {tries} tries")
        g = peripheral_expansion(single, s(), 8 + (tries * 5) % 22,
                                 max_n=SMALL_MAX_N)
        tries += 1
        if g.n >= 2 and _dimension(g) <= SMALL_MAX_DIM:
            graphs.append(g)
            made += 1
    return graphs


def _small_expect(g: Graph) -> Expected:
    d = distance_matrix(g).astype(np.int16)
    ids = np.arange(g.n)
    return Expected(d.max(axis=1), lambda w: d[ids, w])


_WORKLOADS = {
    "grid-80k": (_grid_graphs, _grid_expect),
    "cube-q11": (_cube_graphs, _cube_expect),
    "small-batch": (_small_graphs, _small_expect),
}

NAMES = tuple(_WORKLOADS)


def make(name: str, seed: int) -> tuple:
    """The workload's graphs and their edge-list texts for ``seed``."""
    graphs_of, _ = _WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    graphs = graphs_of(rng)
    return graphs, [serialise(g, rng) for g in graphs]


def expect(name: str, graphs: list) -> list:
    """One ``Expected`` per graph, from the workload's oracle."""
    _, expect_of = _WORKLOADS[name]
    return [expect_of(g) for g in graphs]
