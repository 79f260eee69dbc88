from __future__ import annotations

import random

import pytest

from helpers import (anti_bases, brute_eccentricities, is_median, median_of,
                     milestones_oracle, near_median_graphs, record_id)

from medianecc import (NonMedianGraphError, bfs, build_graph, compute_theta,
                       run_pipeline)
from medianecc.generators import fixture, gen_grid, gen_hypercube
from medianecc.oracle import distance_matrix

from test_phi_labels import LADDER_CUBE_GRAPH


def test_milestones_trivial_cases():
    g = build_graph(2, [(0, 1)])
    theta = compute_theta(g, 0)
    assert milestones_oracle(g, theta, 0, 0) == [0]
    assert milestones_oracle(g, theta, 0, 1) == [0, 1]


def test_milestones_chain_through_squares_into_cube():
    g = build_graph(*LADDER_CUBE_GRAPH)
    theta = compute_theta(g, 0)
    assert milestones_oracle(g, theta, 2, 15) == [2, 6, 9, 15]


def test_milestones_on_a_path_graph_touch_every_vertex():
    g = build_graph(6, [(i, i + 1) for i in range(5)])
    theta = compute_theta(g, 0)
    assert milestones_oracle(g, theta, 1, 5) == [1, 2, 3, 4, 5]


def test_milestones_stay_inside_the_interval(small_corpus):
    rng = random.Random(3)
    for name, g in small_corpus:
        theta = compute_theta(g)
        dist = distance_matrix(g)
        for _ in range(10):
            v = rng.randrange(g.n)
            ups = [u for u in range(g.n)
                   if theta.dist0[u] + dist[u][v] == theta.dist0[v]]
            u = rng.choice(ups)
            chain = milestones_oracle(g, theta, u, v)
            assert chain[0] == u and chain[-1] == v
            for w in chain:
                assert dist[u][w] + dist[w][v] == dist[u][v], (name, u, v)


def test_milestones_precondition():
    g = build_graph(3, [(0, 1), (1, 2)])
    theta = compute_theta(g, 0)
    with pytest.raises(ValueError, match="not between"):
        milestones_oracle(g, theta, 2, 0)


def test_psi_on_a_path_reaches_back_to_the_basepoint():
    g = build_graph(3, [(0, 1), (1, 2)])
    res = run_pipeline(g)
    theta, index = res.theta, res.index
    last = theta.edge_class[g.neighbors[1][2]]
    r = record_id(index, (last,), anti_basis=2)
    assert index.psi[r] == 2
    assert index.psi_witness[r] == 0


def test_psi_base_case_bends_at_the_basepoint():
    # 3x3 grid, basepoint at the center: the record of the top-right square
    # bends through the center into the bottom-left square's area
    g = gen_grid(3, 3)
    center = 4
    res = run_pipeline(g, v0=center)
    theta, index = res.theta, res.index
    up = theta.edge_class[g.neighbors[4][7]]
    right = theta.edge_class[g.neighbors[4][5]]
    down = theta.edge_class[g.neighbors[1][4]]
    left = theta.edge_class[g.neighbors[3][4]]

    x0 = tuple(sorted((up, right)))
    opposite = tuple(sorted((down, left)))
    r = record_id(index, x0, anti_basis=8)
    assert index.basis[r] == center
    assert index.opp is not None
    assert index.pof[index.opp[r]] == opposite
    phi_op = index.phi[record_id(index, opposite, basis=center)]
    assert phi_op == 2
    assert index.psi[r] == 2 + phi_op == 4
    assert index.psi_witness[r] == 0  # the far corner
    assert bfs(g, 8)[0] == 4


def test_psi_matches_brute_definition(small_corpus):
    for name, g in small_corpus:
        if g.n > 60:
            continue
        res = run_pipeline(g)
        theta, index = res.theta, res.index
        dist = distance_matrix(g).tolist()
        v0 = theta.v0
        anti = anti_bases(index)
        for rid in range(len(index)):
            if not index.pof[rid]:
                continue
            u = anti[rid]
            low = index.basis[rid]
            best = -1
            for v in range(g.n):
                m = median_of(dist, u, v, v0)
                if m == u:
                    continue
                chain = milestones_oracle(g, theta, m, u)
                if chain[-2] == low:
                    best = max(best, dist[u][v])
            assert best >= 0, (name, rid)  # at least v = low qualifies
            assert index.psi[rid] == best, (name, rid)
            wit = index.psi_witness[rid]
            assert dist[u][wit] == index.psi[rid], (name, rid)


def test_eccentricities_on_hypercubes():
    for k in (1, 2, 3, 4):
        g = gen_hypercube(k)
        rep = run_pipeline(g).report
        assert rep.ecc == [k] * g.n
        assert rep.diameter == rep.radius == k


def test_eccentricities_gstar():
    rep = run_pipeline(fixture("gstar")).report
    assert rep.ecc == [3, 2, 2, 2, 3]
    assert rep.diameter == 3 and rep.radius == 2
    assert rep.diametral_pair == (0, 4)
    assert rep.center_vertex == 1


def test_eccentricities_hstar():
    g = fixture("hstar")
    rep = run_pipeline(g).report
    assert rep.diameter == 6
    assert rep.ecc == brute_eccentricities(g).ecc


def test_report_invariants(small_corpus):
    for name, g in small_corpus:
        rep = run_pipeline(g).report
        assert rep.radius <= rep.diameter <= 2 * rep.radius or g.n == 1
        u, v = rep.diametral_pair
        assert bfs(g, u)[v] == rep.diameter
        assert rep.ecc[rep.center_vertex] == rep.radius
        for w in range(0, g.n, max(1, g.n // 7)):
            assert bfs(g, w)[rep.witness[w]] == rep.ecc[w], (name, w)


def test_basepoint_choice_does_not_change_the_report(small_corpus):
    # witnesses may differ: each basepoint breaks ties among its records
    rng = random.Random(4)
    for name, g in small_corpus:
        base = run_pipeline(g, v0=0).report
        for v0 in {g.n // 2, g.n - 1, rng.randrange(g.n)}:
            other = run_pipeline(g, v0=v0).report
            assert (other.ecc, other.diameter, other.radius) == \
                (base.ecc, base.diameter, base.radius), (name, v0)


def test_basepoint_has_no_ingoing_records():
    g = fixture("fig3")
    res = run_pipeline(g)
    v0 = res.theta.v0
    assert all(not res.index.pof[r] for r in res.index.ingoing[v0])
    # its eccentricity still comes out right, from the phi side alone
    assert res.report.ecc[v0] == brute_eccentricities(g).ecc[v0]


@pytest.mark.parametrize("v0", range(7))
def test_q3_minus_a_vertex_raises_or_is_exact(v0):
    q3 = gen_hypercube(3)
    g = build_graph(7, [e for e in q3.edges if 7 not in e])
    try:
        rep = run_pipeline(g, v0=v0).report
    except NonMedianGraphError:
        return
    brute = brute_eccentricities(g)
    assert (rep.ecc, rep.diameter, rep.radius) == \
        (brute.ecc, brute.diameter, brute.radius), v0


def test_near_median_inputs_are_refused_exactly_when_not_median():
    # with theta's checks and the walk alone, about one non-median draw in
    # five here is accepted, most of them with wrong eccentricities
    refused = 0
    for name, g, v0 in near_median_graphs(seed=3, count=300):
        median = is_median(g).is_median
        try:
            rep = run_pipeline(g, v0=v0).report
        except NonMedianGraphError:
            assert not median, (name, v0)
            refused += 1
            continue
        assert median, (name, v0)
        brute = brute_eccentricities(g)
        assert (rep.ecc, rep.diameter, rep.radius) == \
            (brute.ecc, brute.diameter, brute.radius), (name, v0)
    assert 100 < refused < 300
