"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
from __future__ import annotations

import random
import time

import pytest

from helpers import (acceptance_corpus_graphs, anti_bases,
                     brute_eccentricities, class_edges, diameter_via_upsilon,
                     halfspace_sides, is_convex, is_gated, ladder_set_oracle,
                     milestones_oracle, ortho_pairs, orthogonal)

from medianecc import bfs, run_pipeline
from medianecc.generators import fixture, gen_grid, gen_hypercube
from medianecc.heuristics import sweep2, sweep4
from medianecc.oracle import distance_matrix


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus_graphs()


@pytest.fixture(scope="module")
def corpus_results(corpus):
    """Pipeline + oracle results for every corpus graph, timed."""
    start = time.perf_counter()
    results = []
    for name, g in corpus:
        res = run_pipeline(g)
        ora = brute_eccentricities(g)
        results.append((name, g, res, ora))
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_oracle_equivalence(corpus_results):
    results, elapsed = corpus_results
    assert len(results) >= 300, f"corpus has only {len(results)} graphs"
    mismatches = [name for name, _, res, ora in results
                  if res.report.ecc != ora.ecc]
    assert not mismatches, f"eccentricity mismatches on {mismatches[:5]}"
    assert all(res.index.dimension <= 5 for _, _, res, _ in results)
    assert all(g.n <= 500 for _, g, _, _ in results)
    assert elapsed < 120.0, f"corpus run took {elapsed:.1f}s"
    print(f"\ncriterion 1 PASS: {len(results)} graphs, eccentricity vectors "
          f"exact, {elapsed:.1f}s")


def test_criterion_2_fixture_regression():
    gstar = fixture("gstar")
    assert run_pipeline(gstar).report.diameter == 3
    assert sweep2(gstar, 1).distance == 2

    hstar = fixture("hstar")
    assert run_pipeline(hstar).report.diameter == 6
    assert sweep4(hstar, 0).distance == 5
    print("\ncriterion 2 PASS: gstar diam 3 / 2-sweep 2; "
          "hstar diam 6 / 4-sweep 5")


def test_criterion_3_counting_identities(corpus_results):
    results, _ = corpus_results
    for name, g, res, _ in results:
        theta, index = res.theta, res.index
        if g.n > 1:
            assert theta.q < g.n, name
        slack = 2 * g.n - g.m - theta.q
        assert slack <= 2, name
        if g.m == g.n - 1:
            assert slack == 2, name
        distinct = set(index.pof)
        assert len(distinct) == g.n, name
        # sum 2^i beta_i, beta_i the distinct pofs of size i
        assert sum(1 << len(p) for p in distinct) == len(index)
        assert len(index) <= (1 << index.dimension) * g.n, name
    print(f"\ncriterion 3 PASS: counting identities exact on "
          f"{len(results)} graphs")


def test_criterion_4_hypercube_sanity():
    for k in range(1, 11):
        g = gen_hypercube(k)
        res = run_pipeline(g)
        assert res.report.ecc == [k] * g.n, f"Q_{k} eccentricities"
        assert len(res.index) == 3 ** k, f"Q_{k} cube count"
        assert len(set(res.index.pof)) == 2 ** k, f"Q_{k} pofs"
    print("\ncriterion 4 PASS: Q_1..Q_10 eccentricities, 3^k cubes, "
          "2^k pofs")


def _structural_sample(corpus):
    sample = [(name, g) for name, g in corpus if g.n <= 128]
    rng = random.Random(99)
    rng.shuffle(sample)
    picked = sample[:8]
    picked.extend((name, fixture(name))
                  for name in ("gstar", "fig3", "cogwheel", "fig2c"))
    return picked


def test_criterion_5_structural_suites(corpus):
    checked = {"halfspace": 0, "path": 0, "betweenness": 0,
               "penultimate": 0, "extension": 0}
    for name, g in _structural_sample(corpus):
        res = run_pipeline(g)
        theta, index = res.theta, res.index
        dist = distance_matrix(g)
        dl = dist.tolist()
        rng = random.Random(sum(name.encode()))

        if g.n <= 60:
            checked["halfspace"] += _check_halfspaces(g, theta, dist)
        checked["path"] += _check_shortest_path_classes(g, theta, dl, rng)
        checked["betweenness"] += _check_disjoint_ladders_iff_between(
            g, theta, dl, rng)
        checked["penultimate"] += _check_penultimate_equivalence(
            g, theta, index, dl, rng)
        checked["extension"] += _check_extension_contexts(g, theta, index)
    assert all(v > 0 for v in checked.values()), checked
    print(f"\ncriterion 5 PASS: structural checks {checked}")


def _check_halfspaces(g, theta, dist):
    count = 0
    edges_of = class_edges(theta)
    for c in range(theta.q):
        side = halfspace_sides(g, theta, c)
        near = [v for v in range(g.n) if not side[v]]
        far = [v for v in range(g.n) if side[v]]
        boundary_near, boundary_far = [], []
        for eid in edges_of[c]:
            u, v = g.edges[eid]
            if side[u]:
                u, v = v, u
            boundary_near.append(u)
            boundary_far.append(v)
        for subset in (near, far, boundary_near, boundary_far):
            assert is_convex(g, subset, dist=dist), c
            assert is_gated(g, subset, dist=dist), c
            count += 1
    return count


def _check_shortest_path_classes(g, theta, dist, rng):
    count = 0
    for _ in range(12):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        sigma = set()
        for eid, (x, y) in enumerate(g.edges):
            if (dist[u][x] < dist[u][y]) != (dist[v][x] < dist[v][y]):
                sigma.add(theta.edge_class[eid])
        assert len(sigma) == dist[u][v]
        cur, classes = u, []
        while cur != v:
            nxt = rng.choice([x for x in g.neighbors[cur]
                              if dist[x][v] == dist[cur][v] - 1])
            classes.append(theta.edge_class[g.neighbors[cur][nxt]])
            cur = nxt
        assert len(classes) == len(set(classes))
        assert set(classes) == sigma
        count += 1
    return count


def _check_disjoint_ladders_iff_between(g, theta, dist, rng):
    count = 0
    dist0 = theta.dist0
    for _ in range(20):
        m = rng.randrange(g.n)
        above = [x for x in range(g.n)
                 if dist0[m] + dist[m][x] == dist0[x]]
        u, v = rng.choice(above), rng.choice(above)
        lu = ladder_set_oracle(g, theta, m, u, dist_from_v=dist[u])
        lv = ladder_set_oracle(g, theta, m, v, dist_from_v=dist[v])
        between = dist[u][m] + dist[m][v] == dist[u][v]
        assert between == (not set(lu) & set(lv)), (m, u, v)
        count += 1
    return count


def _check_penultimate_equivalence(g, theta, index, dist, rng):
    count = 0
    dist0 = theta.dist0
    pairs = ortho_pairs(index)
    anti = anti_bases(index)
    for _ in range(15):
        v = rng.randrange(g.n)
        above_v = [u for u in range(g.n)
                   if dist0[u] + dist[u][v] == dist0[v] and u != v]
        if not above_v:
            continue
        u = rng.choice(above_v)
        chain_uv = milestones_oracle(g, theta, u, v)
        lbar = ladder_set_oracle(g, theta, chain_uv[-2], v,
                                 dist_from_v=dist[v])
        for rid in index.outgoing[v]:
            pof = index.pof[rid]
            if not pof:
                continue
            w = anti[rid]
            cond_iii = all(
                not all(orthogonal(pairs, c, x) for x in lbar)
                for c in pof)
            chain_uw = milestones_oracle(g, theta, u, w)
            cond_i = chain_uw[-2] == v
            assert cond_i == cond_iii, (u, v, pof)
            count += 1
    return count


def _check_extension_contexts(g, theta, index):
    count = 0
    pairs = ortho_pairs(index)
    for rid in range(len(index)):
        L = index.pof[rid]
        if not L:
            continue
        for t in index.ingoing[index.basis[rid]]:
            X = index.pof[t]
            if not X:
                continue
            w = index.basis[t]
            for c in L:
                fast = c in theta.incident[w]
                slow = all(orthogonal(pairs, c, x) for x in X)
                assert fast == slow, (rid, t, c)
                count += 1
    return count


def test_criterion_6_near_linear_scaling():
    sizes = (10_000, 20_000, 40_000, 80_000)
    grids = []
    for n_target in sizes:
        p = max(1, int(n_target ** 0.5))
        q = (n_target + p - 1) // p
        grids.append(gen_grid(p, q))
    run_pipeline(grids[0])  # warm-up so the first timed size is not coldest
    # best-of-3 wall times against scheduler noise; the repeats go round
    # robin over the sizes, so a drift in host speed hits every size alike
    totals = [float("inf")] * len(grids)
    for _ in range(3):
        for i, g in enumerate(grids):
            res = run_pipeline(g)
            assert res.index.dimension == 2
            totals[i] = min(totals[i], res.total_time)
    ratios = [totals[i + 1] / totals[i] for i in range(len(totals) - 1)]
    assert all(r <= 2.6 for r in ratios), f"doubling ratios {ratios}"
    assert totals[-1] < 30.0, f"n=80k pipeline took {totals[-1]:.1f}s"
    print(f"\ncriterion 6 PASS: totals "
          f"{['%.2fs' % t for t in totals]}, ratios "
          f"{['%.2f' % r for r in ratios]}")


def test_criterion_7_diameter_agreement(corpus_results):
    results, _ = corpus_results
    for name, g, res, ora in results:
        via_upsilon, pair = diameter_via_upsilon(res.index)
        assert via_upsilon == max(res.report.ecc) == ora.diameter, name
        assert bfs(g, pair[0])[pair[1]] == via_upsilon, name
    print(f"\ncriterion 7 PASS: diameter agreement exact on "
          f"{len(results)} graphs")
