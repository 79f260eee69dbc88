from __future__ import annotations

import random

import pytest

import helpers
from helpers import (brute_eccentricities, class_edges, halfspace_sides,
                     is_convex, is_gated, is_median, medians_of_triple)

from medianecc import bfs, build_graph, compute_theta
from medianecc.generators import (_interval, fixture, gen_grid,
                                  gen_hypercube, gen_tree)
from medianecc.oracle import distance_matrix


def test_distance_matrix_matches_bfs():
    g = fixture("cogwheel")
    d = distance_matrix(g)
    for v in (0, 3, 10):
        assert d[v].tolist() == bfs(g, v)


def test_brute_eccentricities_gstar():
    rep = brute_eccentricities(fixture("gstar"))
    assert rep.diameter == 3 and rep.radius == 2
    assert rep.ecc == [3, 2, 2, 2, 3]


def test_brute_eccentricities_grid():
    for p, q in [(3, 3), (2, 7), (5, 4)]:
        rep = brute_eccentricities(gen_grid(p, q))
        assert rep.diameter == p + q - 2


def test_brute_eccentricities_hstar():
    rep = brute_eccentricities(fixture("hstar"))
    assert rep.diameter == 6 and rep.radius == 3


def test_budget_guard():
    g = gen_grid(4, 4)
    with pytest.raises(ValueError, match="budget"):
        distance_matrix(g, budget=10)
    with pytest.raises(ValueError, match="budget"):
        brute_eccentricities(g, budget=10)


def test_k23_is_not_median():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)])
    verdict = is_median(g)
    assert not verdict.is_median
    x, y, z, count = verdict.witness
    assert count != 1
    d = distance_matrix(g)
    assert len(medians_of_triple(d, x, y, z)) == count


def test_trees_are_median():
    for seed in range(5):
        assert is_median(gen_tree(40, seed)).is_median


def test_six_cycle_is_not_median():
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    verdict = is_median(g)
    assert not verdict.is_median
    assert verdict.witness[3] != 1


def test_cube_minus_a_corner_is_not_median():
    # bipartite, passes the class decomposition, but a triple loses its median
    q3 = gen_hypercube(3)
    edges = [(u, v) for u, v in q3.edges if 7 not in (u, v)]
    g = build_graph(7, edges)
    compute_theta(g)  # does not raise
    verdict = is_median(g)
    assert not verdict.is_median


def test_fixtures_are_median():
    for name in ("gstar", "hstar", "fig3", "cogwheel", "fig2c"):
        assert is_median(fixture(name)).is_median, name


def test_sampled_mode_on_larger_graphs(monkeypatch):
    g = gen_grid(15, 15)
    verdict = is_median(g, samples=20_000, seed=1)
    assert verdict.is_median and verdict.mode == "sampled"
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    monkeypatch.setattr(helpers, "EXHAUSTIVE_LIMIT", 2)
    bad = is_median(c6, samples=20_000, seed=1)
    assert not bad.is_median and bad.mode == "sampled"


def test_intervals_are_convex_and_gated(small_corpus):
    rng = random.Random(2)
    for name, g in small_corpus:
        if g.n > 100:
            continue
        d = distance_matrix(g)
        for _ in range(6):
            a, b = rng.randrange(g.n), rng.randrange(g.n)
            hull = _interval(g, a, b)
            assert is_convex(g, hull, dist=d), (name, a, b)
            assert is_gated(g, hull, dist=d), (name, a, b)


def test_far_pair_is_not_convex():
    g = gen_grid(3, 3)
    d = distance_matrix(g)
    assert not is_convex(g, [0, 8], dist=d)
    assert is_convex(g, [0], dist=d)
    assert is_convex(g, list(range(9)), dist=d)


def test_convex_iff_gated_on_median_samples(small_corpus):
    rng = random.Random(9)
    for name, g in small_corpus:
        if g.n > 60:
            continue
        d = distance_matrix(g)
        for _ in range(12):
            size = rng.randrange(1, g.n + 1)
            subset = rng.sample(range(g.n), size)
            assert is_convex(g, subset, dist=d) == \
                is_gated(g, subset, dist=d), (name, subset)


def test_halfspaces_and_boundaries_convex_gated():
    for name in ("fig3", "cogwheel", "gstar"):
        g = fixture(name)
        theta = compute_theta(g)
        d = distance_matrix(g)
        for c in range(theta.q):
            side = halfspace_sides(g, theta, c)
            near = [v for v in range(g.n) if not side[v]]
            far = [v for v in range(g.n) if side[v]]
            b_near = [g.edges[e][0] if not side[g.edges[e][0]]
                      else g.edges[e][1] for e in class_edges(theta)[c]]
            b_far = [g.edges[e][1] if side[g.edges[e][1]]
                     else g.edges[e][0] for e in class_edges(theta)[c]]
            for subset in (near, far, b_near, b_far):
                assert is_convex(g, subset, dist=d), (name, c)
                assert is_gated(g, subset, dist=d), (name, c)
