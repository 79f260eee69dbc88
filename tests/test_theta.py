from __future__ import annotations

import tracemalloc

import pytest

from helpers import (class_edges, djokovic_classes, halfspace_sides, is_pof,
                     k2m, ortho_pairs, orthogonal, random_bipartite_graphs,
                     reference_theta, theta_partition)

from medianecc import (NonMedianGraphError, build_graph, compute_theta,
                       enumerate_cubes)
from medianecc import flat
from medianecc.generators import fixture, gen_tree
from medianecc.graph import FLAT_MIN_EDGES


def test_square_has_two_classes_of_opposite_edges():
    g = build_graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)])
    theta = compute_theta(g, 0)
    assert theta.q == 2
    assert sorted(len(e) for e in class_edges(theta)) == [2, 2]
    for edges in class_edges(theta):
        (u1, v1), (u2, v2) = (g.edges[e] for e in edges)
        assert {u1, v1}.isdisjoint({u2, v2})


def test_tree_classes_are_singleton_edges():
    for seed in (0, 5):
        g = gen_tree(40, seed)
        theta = compute_theta(g)
        assert theta.q == g.n - 1
        assert all(len(e) == 1 for e in class_edges(theta))
        assert 2 * g.n - g.m - theta.q == 2


def _fig3_classes(g, theta):
    """Class handles anchored on edges: e1=(0,2), e2=(2,5), e3=(0,1), e4=(3,4)."""
    cls = theta.edge_class
    return (cls[g.neighbors[0][2]], cls[g.neighbors[2][5]],
            cls[g.neighbors[0][1]], cls[g.neighbors[3][4]])


def test_fig3_classes_match_colored_edges():
    g = fixture("fig3")
    theta = compute_theta(g, 0)
    assert theta.q == 4
    e1, e2, e3, e4 = _fig3_classes(g, theta)
    groups = {
        e1: {(0, 2), (1, 3)},
        e2: {(2, 5), (3, 6), (4, 7)},
        e3: {(0, 1), (2, 3), (5, 6)},
        e4: {(3, 4), (6, 7)},
    }
    for c, expected in groups.items():
        got = {g.edges[eid] for eid in class_edges(theta)[c]}
        assert got == expected


def test_fig3_orthogonality():
    g = fixture("fig3")
    theta = compute_theta(g, 0)
    e1, e2, e3, e4 = _fig3_classes(g, theta)
    pairs = ortho_pairs(enumerate_cubes(g, theta))
    assert orthogonal(pairs, e1, e3)
    assert orthogonal(pairs, e3, e1)
    assert not orthogonal(pairs, e1, e4)
    assert not orthogonal(pairs, e1, e2)
    with pytest.raises(ValueError):
        orthogonal(pairs, e1, e1)


def test_tree_classes_never_orthogonal():
    g = gen_tree(12, 3)
    theta = compute_theta(g)
    assert ortho_pairs(enumerate_cubes(g, theta)) == set()


def test_halfspaces_of_square():
    g = build_graph(4, [(0, 1), (1, 3), (2, 3), (0, 2)])
    theta = compute_theta(g, 0)
    for c in range(theta.q):
        side = halfspace_sides(g, theta, c)
        assert not side[0]  # basepoint stays on the near side
        assert side.count(True) == 2
        for eid in class_edges(theta)[c]:
            u, v = g.edges[eid]
            assert side[u] != side[v]


def test_halfspaces_of_tree_edge_are_subtrees():
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    theta = compute_theta(g, 0)
    c = theta.edge_class[g.neighbors[1][3]]
    side = halfspace_sides(g, theta, c)
    far = {v for v in range(g.n) if side[v]}
    assert far == {3, 4}


def test_halfspaces_of_augmented_ladder():
    # two columns of three joined by a 3-edge rung class, plus one pendant
    # per side: sides 4|4, boundaries 3|3
    g = build_graph(8, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4),
                        (2, 5), (1, 6), (5, 7)])
    theta = compute_theta(g, 0)
    c = theta.edge_class[g.neighbors[0][3]]
    assert sorted(g.edges[e] for e in class_edges(theta)[c]) == \
        [(0, 3), (1, 4), (2, 5)]
    side = halfspace_sides(g, theta, c)
    near = {v for v in range(g.n) if not side[v]}
    far = {v for v in range(g.n) if side[v]}
    assert near == {0, 1, 2, 6} and far == {3, 4, 5, 7}
    boundary_near = {g.edges[e][0] for e in class_edges(theta)[c]}
    boundary_far = {g.edges[e][1] for e in class_edges(theta)[c]}
    assert boundary_near == {0, 1, 2} and boundary_far == {3, 4, 5}


def test_classes_agree_with_distance_side_partition(small_corpus):
    for name, g in small_corpus:
        if g.n > 200 or g.m == 0:
            continue
        theta = compute_theta(g)
        assert theta_partition(theta) == djokovic_classes(g), name


def test_matching_cut_and_boundary_isomorphism(small_corpus):
    for name, g in small_corpus:
        if g.n > 80 or g.m == 0:
            continue
        theta = compute_theta(g)
        edges_of = class_edges(theta)
        for c in range(theta.q):
            cut = [g.edges[e] for e in edges_of[c]]
            endpoints = [v for e in cut for v in e]
            assert len(endpoints) == len(set(endpoints)), (name, c)

            removed = set(edges_of[c])
            comp = _components_without(g, removed)
            assert comp == 2, (name, c)

            side = halfspace_sides(g, theta, c)
            near_of = {}
            for u, v in cut:
                if side[u]:
                    u, v = v, u
                near_of[u] = v
            for u1 in near_of:
                for u2 in near_of:
                    if u1 < u2:
                        assert ((u2 in g.neighbors[u1])
                                == (near_of[u2] in g.neighbors[near_of[u1]])), \
                            (name, c)


def _components_without(g, removed_edges):
    seen = bytearray(g.n)
    comps = 0
    for s in range(g.n):
        if seen[s]:
            continue
        comps += 1
        seen[s] = 1
        stack = [s]
        while stack:
            x = stack.pop()
            for y, eid in g.neighbors[x].items():
                if eid not in removed_edges and not seen[y]:
                    seen[y] = 1
                    stack.append(y)
    return comps


def test_euler_count_identity(small_corpus):
    for name, g in small_corpus:
        theta = compute_theta(g)
        slack = 2 * g.n - g.m - theta.q
        assert slack <= 2, name
        if g.m == g.n - 1:  # tree
            assert slack == 2, name


def test_ingoing_classes_form_pofs(small_corpus):
    for name, g in small_corpus:
        theta = compute_theta(g)
        pairs = ortho_pairs(enumerate_cubes(g, theta))
        for v in range(g.n):
            assert is_pof(pairs, theta.in_classes[v]), (name, v)


def test_incident_maps_are_complete(small_corpus):
    for _, g in small_corpus:
        theta = compute_theta(g)
        for eid, (u, v) in enumerate(g.edges):
            c = theta.edge_class[eid]
            assert theta.incident[u][c] == v
            assert theta.incident[v][c] == u
        dist0 = theta.dist0
        for v in range(g.n):
            # exactly the incident classes whose edge comes from closer to v0
            assert theta.in_classes[v] == tuple(sorted(
                c for c, x in theta.incident[v].items()
                if dist0[x] < dist0[v]))


def test_non_bipartite_input_raises():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NonMedianGraphError, match="not bipartite"):
        compute_theta(g)


def test_k23_raises():
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)])
    with pytest.raises(NonMedianGraphError):
        compute_theta(g)


def test_two_common_lower_neighbors_refused_from_every_basepoint():
    # a square 1-3-2-4 with a vertex below (0) and one above (5): from 0
    # or 5 the far pair has two common lower neighbours and the scalar path
    # names the induced K_2,3; from any other basepoint no pair does, and
    # the count identity refuses the graph anyway. From 1 (or 2, 3, 4)
    # three edges start classes and the squares at 2 and at 5 relate all
    # three: only the union of disagreeing squares leaves the one class
    # (q = 1) that the message pins, as the union-find reference does;
    # the inherited labels alone (q = 3) would pass the identity
    g = build_graph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4),
                        (3, 5), (4, 5)])
    for v0 in (0, 5):
        with pytest.raises(NonMedianGraphError, match=r"\(induced K_2,3\)$"):
            compute_theta(g, v0)
    for v0 in (1, 2, 3, 4):
        for theta_of in (compute_theta, reference_theta):
            with pytest.raises(NonMedianGraphError,
                               match=r"^count identity violated: "
                                     r"2n - m - q = 3 > 2$"):
                theta_of(g, v0)
    for v0 in range(g.n):
        assert flat.compute_theta(g, v0) is None


def _square_fault(message):
    return message.endswith(("(induced K_2,3)", "close no square"))


def test_class_inheritance_equals_the_union_find_closure():
    # on random connected bipartite graphs, median or not, the classes
    # are those of union-find over every square, and each refusal is the
    # reference's: the same count or matching message, or a square fault
    # (two faulty vertices may be met in another order); the flat path
    # returns None exactly where the scalar path raises
    accepted = 0
    for g, v0 in random_bipartite_graphs(5, 2000):
        try:
            expected = reference_theta(g, v0)
        except NonMedianGraphError as exc:
            expected = str(exc)
        try:
            theta = compute_theta(g, v0)
            got = theta.edge_class, theta.q
        except NonMedianGraphError as exc:
            got = str(exc)
        if isinstance(expected, str) and _square_fault(expected):
            assert isinstance(got, str) and _square_fault(got), (g, v0, got)
        else:
            assert got == expected, (g, v0)
        assert (flat.compute_theta(g, v0) is None) == isinstance(got, str), \
            (g, v0)
        accepted += not isinstance(got, str)
    assert 200 < accepted < 1800, accepted


def test_scalar_guard_refuses_a_hub_before_its_squares():
    # vertex 1 has 600 ingoing edges; pairing them first would cost
    # 180,000 square searches before the count identity refused the graph
    g = k2m(600)
    assert g.m < FLAT_MIN_EDGES
    with pytest.raises(NonMedianGraphError,
                       match="^vertex 1 has 600 ingoing classes, above the "
                             "supported dimension 20$"):
        compute_theta(g)


def test_flat_guard_refuses_a_hub_before_pairing_its_edges():
    # pairing the 1,000 ingoing edges of vertex 1 would take about 100 MB
    tracemalloc.start()
    try:
        assert flat.compute_theta(k2m(1000), 0) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, peak


def test_six_cycle_raises():
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NonMedianGraphError):
        compute_theta(g)


def test_any_basepoint_gives_same_partition():
    g = fixture("cogwheel")
    base = theta_partition(compute_theta(g, 0))
    for v0 in (3, 7, 10):
        assert theta_partition(compute_theta(g, v0)) == base


def test_basepoint_out_of_range():
    with pytest.raises(ValueError):
        compute_theta(fixture("gstar"), 17)
