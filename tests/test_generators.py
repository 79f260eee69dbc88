from __future__ import annotations

import pytest

from helpers import brute_eccentricities, is_median, quick_dimension

from medianecc import build_graph, compute_theta, enumerate_cubes
from medianecc.generators import (FIXTURE_NAMES, cartesian_product,
                                  expand_once, fixture, gen_grid,
                                  gen_hypercube, gen_tree,
                                  peripheral_expansion)


def generated():
    """One output of every generator and fixture, small enough to check."""
    graphs = [gen_tree(n, seed) for seed, n in enumerate((1, 2, 7, 35, 300))]
    graphs += [gen_grid(p, q) for p, q in ((1, 1), (1, 9), (7, 1), (3, 3),
                                           (9, 11))]
    graphs += [gen_hypercube(k) for k in range(7)]
    graphs += [cartesian_product(gen_tree(7, 2), gen_grid(2, 3)),
               cartesian_product(gen_hypercube(1), gen_hypercube(1)),
               cartesian_product(gen_hypercube(3), gen_tree(9, 4))]
    graphs += [expand_once(gen_tree(1, 0), 0, 0),
               expand_once(gen_grid(3, 4), 0, 11),
               expand_once(gen_tree(20, 5), 3, 17)]
    graphs += [peripheral_expansion(gen_tree(1, 0), seed, 15, max_n=200)
               for seed in range(4)]
    graphs += [fixture(name) for name in FIXTURE_NAMES]
    return graphs


def test_generators_output_valid_graphs():
    # generators build their graphs without build_graph; this is the check
    # that each output is simple, connected and has dense ids
    for g in generated():
        assert build_graph(g.n, list(g.edges)) == g


def test_hypercube_small_cases():
    assert gen_hypercube(0).n == 1
    g = gen_hypercube(1)
    assert (g.n, g.m) == (2, 1)
    with pytest.raises(ValueError):
        gen_hypercube(21)


def test_grid_shape_and_diameter():
    g = gen_grid(3, 3)
    assert (g.n, g.m) == (9, 12)
    assert brute_eccentricities(g).diameter == 4
    with pytest.raises(ValueError):
        gen_grid(0, 3)


def test_trees_are_median_and_deterministic():
    for seed in (0, 3, 11):
        g = gen_tree(35, seed)
        assert g.m == g.n - 1
        assert is_median(g).is_median
        assert g == gen_tree(35, seed)


def test_product_of_two_edges_is_a_square():
    k2 = gen_hypercube(1)
    g = cartesian_product(k2, k2)
    assert (g.n, g.m) == (4, 4)
    assert all(len(g.neighbors[v]) == 2 for v in range(4))


def test_product_of_paths_is_the_grid():
    p, q = 4, 6
    prod = cartesian_product(gen_grid(1, p), gen_grid(1, q))
    grid = gen_grid(p, q)
    assert prod.n == grid.n
    assert {frozenset(e) for e in prod.edges} == \
        {frozenset(e) for e in grid.edges}


def test_product_eccentricities_add_up():
    g1, g2 = gen_tree(7, 2), gen_grid(2, 3)
    prod = cartesian_product(g1, g2)
    e1 = brute_eccentricities(g1).ecc
    e2 = brute_eccentricities(g2).ecc
    ecc = brute_eccentricities(prod).ecc
    for a in range(g1.n):
        for b in range(g2.n):
            assert ecc[a * g2.n + b] == e1[a] + e2[b]
    assert is_median(prod).is_median
    assert quick_dimension(prod) == quick_dimension(g1) + quick_dimension(g2)


def test_product_size_guard():
    # refused before any edge is built
    with pytest.raises(ValueError, match="^product would have 2002000 "
                                         "vertices, above 2000000$"):
        cartesian_product(gen_tree(1001, 0), gen_tree(2000, 0))


def test_expand_once_base_cases():
    k1 = gen_tree(1, 0)
    edge = expand_once(k1, 0, 0)
    assert (edge.n, edge.m) == (2, 1)
    square = expand_once(edge, 0, 1)
    assert (square.n, square.m) == (4, 4)
    assert all(len(square.neighbors[v]) == 2 for v in range(4))


def test_expansions_stay_median():
    for seed in range(8):
        g = peripheral_expansion(gen_tree(1, 0), seed, 15, max_n=200)
        verdict = is_median(g)
        assert verdict.is_median, (seed, g.n, verdict.witness)


def test_long_expansion_run_within_budget():
    g = peripheral_expansion(gen_tree(1, 0), 42, 200, max_n=500)
    assert g.n <= 500
    if g.n <= 128:
        assert is_median(g).is_median
    else:
        assert is_median(g, samples=50_000).is_median


def test_expansion_is_deterministic():
    a = peripheral_expansion(gen_tree(1, 0), 7, 20, max_n=300)
    b = peripheral_expansion(gen_tree(1, 0), 7, 20, max_n=300)
    assert a == b


def test_hypercube_dimension_and_pof_count():
    for k in range(1, 7):
        g = gen_hypercube(k)
        theta = compute_theta(g)
        index = enumerate_cubes(g, theta)
        assert index.dimension == k
        assert len(index.distinct_pofs()) == (1 << k) == g.n


def test_fixture_names_and_unknown():
    assert set(FIXTURE_NAMES) == {"gstar", "hstar", "fig3", "cogwheel",
                                  "fig2c"}
    for name in FIXTURE_NAMES:
        fixture(name)
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("nope")


def test_fixture_headline_numbers():
    g = fixture("gstar")
    assert (g.n, g.m) == (5, 5)
    assert brute_eccentricities(g).diameter == 3
    g = fixture("hstar")
    assert (g.n, g.m) == (12, 15)
    assert brute_eccentricities(g).diameter == 6
    g = fixture("fig3")
    assert (g.n, g.m) == (8, 10)
    assert compute_theta(g).q == 4
    assert quick_dimension(fixture("fig2c")) == 3
    assert quick_dimension(fixture("cogwheel")) == 2
