"""The flat (numpy) and scalar paths give the same results and refuse the
same inputs: ``load_graph``'s array validation (``flat._build``) against
``build_graph``, and the two paths of ``compute_theta``.

The path functions are called directly, so the edge-count cut that picks
a path in the public functions is bypassed. A ``medianecc.flat`` function
returns None where it refuses an input; the public function then runs the
scalar one, which raises its own message. So the flat path agrees with the
scalar one exactly when it refuses the inputs the scalar path raises on
and returns equal results on all others. The input language of both
parsers is pinned in test_graph.py.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys

import numpy as np

from medianecc import build_graph, load_graph, run_pipeline, save_graph
from medianecc import flat
from medianecc import graph as graph_mod
from medianecc import theta as theta_mod
from medianecc.generators import (cartesian_product, gen_grid,
                                  gen_hypercube, gen_tree)

FUZZ_GRAPHS = 2400


def theta_key(theta):
    """Every field, with each incident map's insertion order."""
    return (theta.v0, theta.dist0, theta.q, theta.edge_class,
            [list(d.items()) for d in theta.incident], theta.in_classes)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_same_theta(g, v0):
    """Whether the scalar path accepts (g, v0), after checking that the
    flat one agrees."""
    flat_theta = flat.compute_theta(g, v0)
    scalar = outcome(theta_mod._theta_scalar, g, v0)
    if isinstance(scalar, tuple):
        assert flat_theta is None, f"flat path accepted, scalar raised {scalar}"
        return False
    assert flat_theta is not None, "flat path refused, scalar accepted"
    assert theta_key(flat_theta) == theta_key(scalar)
    return True


def build_both(n, edges):
    """Outcomes of flat._build and of build_graph on an edge list."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return (flat._build(n, pairs[:, 0], pairs[:, 1]),
            outcome(graph_mod.build_graph, n, edges))


def assert_same_graph(flat_graph, scalar):
    assert flat_graph == scalar
    assert [list(d.items()) for d in flat_graph.neighbors] == \
        [list(d.items()) for d in scalar.neighbors]


def corpus():
    """Median graphs, then inputs that each check of theta refuses."""
    graphs = [gen_hypercube(k) for k in range(1, 9)]
    graphs += [gen_grid(1, k) for k in range(1, 40, 3)]
    graphs += [gen_grid(k, k) for k in range(2, 30, 3)]
    graphs += [gen_tree(n, seed) for seed, n in enumerate((1, 2, 5, 40, 300))]
    graphs += [cartesian_product(gen_tree(9, 1), gen_tree(12, 2)),
               cartesian_product(gen_grid(3, 4), gen_tree(10, 3)),
               cartesian_product(gen_hypercube(3), gen_grid(1, 6))]
    q3_minus = [(a, b) for a, b in gen_hypercube(3).edges if 7 not in (a, b)]
    for n, edges in [
            (3, [(0, 1), (1, 2), (0, 2)]),  # odd cycle
            (6, [(i, (i + 1) % 6) for i in range(6)]),  # no square
            (5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)]),  # K_2,3
            # a square a-w1-b-w2 under z: a, b have two lower common
            # neighbours
            (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5),
                 (4, 5)]),
            (7, q3_minus)]:
        graphs.append(build_graph(n, edges))
    return graphs


def test_corpus_paths_agree(small_corpus):
    graphs = corpus() + [g for _, g in small_corpus]
    for g in graphs:
        flat, scalar = build_both(g.n, list(g.edges))
        assert_same_graph(flat, scalar)
        for v0 in sorted({0, g.n // 2, g.n - 1}):
            assert_same_theta(g, v0)


def random_connected(rng):
    """Edge list of a random connected graph on 3..12 vertices, bipartite
    (under a random 2-colouring) or not, edges shuffled and reoriented."""
    n = rng.randrange(3, 13)
    bipartite = rng.random() < 0.7
    side = [rng.randrange(2) for _ in range(n)]
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        a, b = sorted(rng.sample(range(n), 2))
        if not (bipartite and side[a] == side[b]):
            edges.add((a, b))
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    return n, edges


def corrupt(n, edges, rng):
    """The same list with one fault that build_graph must refuse."""
    edges = list(edges)
    kind = rng.randrange(4)
    i = rng.randrange(len(edges))
    if kind == 0:
        edges.insert(i, (edges[i][1], edges[i][0]))  # reversed duplicate
    elif kind == 1:
        edges[i] = (edges[i][0], edges[i][0])  # self-loop
    elif kind == 2:
        edges[i] = (edges[i][0], rng.choice((n, n + 7, -1)))  # out of range
    else:
        n += 1  # an isolated vertex
    return n, edges


def test_fuzz_paths_agree():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(FUZZ_GRAPHS):
        n, edges = random_connected(rng)
        flat, scalar = build_both(n, edges)
        assert_same_graph(flat, scalar)
        bad_n, bad_edges = corrupt(n, edges, rng)
        flat_bad, scalar_bad = build_both(bad_n, bad_edges)
        assert flat_bad is None and isinstance(scalar_bad, tuple)

        accepted += assert_same_theta(scalar, rng.randrange(n))
    # both outcomes are well represented
    assert FUZZ_GRAPHS // 5 < accepted < FUZZ_GRAPHS * 4 // 5


def test_large_input_builds_no_neighbor_maps():
    grid = gen_grid(120, 120)
    g = load_graph(save_graph(grid))
    assert g.m >= graph_mod.FLAT_MIN_EDGES and g == grid
    run_pipeline(g)
    assert "neighbors" not in vars(g)


def test_scaling_grids_take_the_flat_path(monkeypatch):
    # the grid sizes of test_criterion_6_near_linear_scaling
    flat_results = []
    flat_theta = flat.compute_theta

    def counted(g, v0):
        theta = flat_theta(g, v0)
        flat_results.append(theta is not None)
        return theta

    monkeypatch.setattr(flat, "compute_theta", counted)
    for n_target in (10_000, 20_000, 40_000, 80_000):
        p = max(1, int(n_target ** 0.5))
        theta_mod.compute_theta(gen_grid(p, (n_target + p - 1) // p))
    assert flat_results == [True] * 4


def test_generators_and_small_runs_leave_numpy_unloaded():
    # the cut keeps numpy's import and resident memory off every run up to
    # Q11; a generated grid, however large, is never re-validated on arrays
    code = ("import sys\n"
            "from medianecc import run_pipeline\n"
            "from medianecc.generators import gen_grid, gen_hypercube\n"
            "gen_grid(283, 283)\n"
            "run_pipeline(gen_hypercube(11))\n"
            "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(graph_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == "False\n"
