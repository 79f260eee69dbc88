from __future__ import annotations

from medianecc import bfs, build_graph
from medianecc.generators import fixture, gen_hypercube, gen_tree
from medianecc.heuristics import sweep2, sweep4

from helpers import brute_eccentricities


def test_sweep2_exact_on_paths():
    g = build_graph(7, [(i, i + 1) for i in range(6)])
    for start in range(g.n):
        assert sweep2(g, start).distance == 6


def test_sweep2_misses_the_gstar_diameter():
    g = fixture("gstar")
    res = sweep2(g, 1)
    assert res.distance == 2
    assert (res.a, res.b) == (2, 1)
    assert brute_eccentricities(g).diameter == 3


def test_sweep2_hypercube():
    g = gen_hypercube(3)
    for start in (0, 3, 7):
        assert sweep2(g, start).distance == 3


def test_sweep4_exact_on_trees():
    for seed in range(6):
        g = gen_tree(60, seed)
        diam = brute_eccentricities(g).diameter
        assert sweep2(g, 0).distance == diam
        assert sweep4(g, 0).distance == diam


def test_sweep4_misses_the_hstar_diameter_from_the_center():
    g = fixture("hstar")
    res = sweep4(g, 0)
    assert res.distance == 5
    assert (res.a, res.b) == (1, 9)
    assert brute_eccentricities(g).diameter == 6


def test_sweep4_hypercube():
    assert sweep4(gen_hypercube(3), 0).distance == 3


def test_sweeps_are_realized_lower_bounds(small_corpus):
    for name, g in small_corpus:
        diam = brute_eccentricities(g).diameter
        for start in {0, g.n - 1, g.n // 2}:
            for res in (sweep2(g, start), sweep4(g, start)):
                assert res.distance <= diam, (name, start)
                assert bfs(g, res.a)[res.b] == res.distance, (name, start)


def test_sweep2_exact_on_corpus_trees(small_corpus):
    for name, g in small_corpus:
        if g.m != g.n - 1:
            continue
        diam = brute_eccentricities(g).diameter
        for start in range(0, g.n, max(1, g.n // 5)):
            assert sweep2(g, start).distance == diam, (name, start)
