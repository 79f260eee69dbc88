from __future__ import annotations

import math
import random

import pytest

from helpers import expand_tree, is_pof, ortho_pairs, orthogonal

from medianecc import (compute_phi, compute_opposites, compute_theta,
                       diameter_via_upsilon, enumerate_cubes, fixture,
                       gen_grid, gen_hypercube, gen_tree, upsilon)
from medianecc.opposites import OppositeTree
from medianecc.oracle import brute_eccentricities


def _prepared(g, v0=0):
    theta = compute_theta(g, v0)
    index = enumerate_cubes(g, theta)
    compute_phi(index, theta)
    compute_opposites(index)
    return theta, index


def _synthetic(entries):
    """Tree over {pof: weight}, and its query returning the opposite pof."""
    rows = [(tuple(sorted(p)), w, i)
            for i, (p, w) in enumerate(entries.items())]
    tree = OppositeTree(rows)
    return tree, lambda pof: rows[tree.opposite_record(pof)][0]


def _tree_at(index, m):
    """Tree over m's outgoing records, and its query returning the pof."""
    tree = OppositeTree((index.pof[r], index.phi[r], r)
                        for r in index.outgoing[m])
    return tree, lambda pof: index.pof[tree.opposite_record(pof)]


def test_leaf_of_a_tree_has_the_empty_opposite():
    g = gen_tree(8, 1)
    leaf = next(v for v in range(g.n) if g.degree(v) == 1)
    # basepoint at the leaf: its single edge points out, so its outgoing
    # pofs are () and the edge class
    theta, index = _prepared(g, v0=leaf)
    tree, find_opposite = _tree_at(index, leaf)
    outgoing = [index.pof[r] for r in index.outgoing[leaf]]
    (single,) = [p for p in outgoing if p]
    assert len(single) == 1
    assert tree.root.pof == single
    assert find_opposite(single) == ()
    assert find_opposite(()) == single


def test_nested_argmax_tree_and_opposite():
    i, j, h, r, ell = range(5)
    tree, find_opposite = _synthetic({
        (): 0, (i,): 3, (j,): 3, (h,): 2, (r,): 2, (ell,): 6,
        (i, j): 10, (j, h): 4, (j, r): 4, (h, r): 4, (i, h): 4,
        (j, h, r): 9, (i, ell): 5,
    })
    assert tree.root.pof == (i, j)
    assert find_opposite((i, ell)) == (j, h, r)
    assert find_opposite(()) == (i, j)

    # fully expanded: the child reached through i is indexed (j, h, r)
    # and its child through h is indexed (ell,)
    pairs = {(i, j), (j, h), (j, r), (h, r), (i, h), (i, ell)}

    def extension_ok(blocked, c):
        return all((min(c, b), max(c, b)) in pairs for b in blocked)

    expand_tree(tree, extension_ok)
    child = tree.root.children[i]
    assert child.pof == (j, h, r)
    grandchild = child.children[h]
    assert grandchild.pof == (ell,)


def test_three_branch_star_weights():
    tree, find_opposite = _synthetic({(): 0, (0,): 3, (1,): 2, (2,): 1})
    assert tree.root.pof == (0,)
    assert find_opposite((0,)) == (1,)
    assert find_opposite((1,)) == (0,)
    assert find_opposite(()) == (0,)


def test_argmax_tie_breaks_prefer_small_then_lexicographic():
    tree, _ = _synthetic({(): 0, (0,): 5, (1, 2): 5, (1,): 5, (2,): 4})
    assert tree.root.pof == (0,)  # weight tie broken by size, then lex


def test_opposites_match_quadratic_scan(small_corpus):
    rng = random.Random(13)
    for name, g in small_corpus:
        theta, index = _prepared(g)
        vertices = list(range(g.n))
        rng.shuffle(vertices)
        for m in vertices[:12]:
            entries = [(index.pof[r], index.phi[r]) for r in index.outgoing[m]]
            _, find_opposite = _tree_at(index, m)
            for pof, weight in entries:
                got = find_opposite(pof)
                got_w = dict(entries)[got]
                best = max(w for p, w in entries
                           if not set(p) & set(pof))
                assert got_w == best, (name, m, pof)
                assert not set(got) & set(pof)


def test_tree_structure_bounds(small_corpus):
    for name, g in small_corpus:
        if g.n > 90:
            continue
        theta, index = _prepared(g)
        d = index.dimension
        pairs = ortho_pairs(index)
        for m in range(0, g.n, max(1, g.n // 10)):
            tree, find_opposite = _tree_at(index, m)
            for r in index.outgoing[m]:
                find_opposite(index.pof[r])
            depth = expand_tree(
                tree, lambda blocked, c: all(orthogonal(pairs, c, b)
                                             for b in blocked))
            assert depth <= d, (name, m)
            assert tree.node_count <= math.factorial(max(d, 1)) * 3, (name, m)
            _check_nodes(tree, pairs, index, m, name)


def _check_nodes(tree, pairs, index, m, name):
    entries = [(index.pof[r], index.phi[r]) for r in index.outgoing[m]]
    stack = [tree.root]
    while stack:
        node = stack.pop()
        blocked = node.blocked
        assert is_pof(pairs, tuple(sorted(blocked))), (name, m)
        assert not blocked & set(node.pof), (name, m)
        best = max(w for p, w in entries if not set(p) & blocked)
        node_w = dict((tuple(p), w) for p, w in entries)[node.pof]
        assert node_w == best, (name, m, node.pof)
        stack.extend(node.children.values())


def test_upsilon_is_at_least_the_best_single_label(small_corpus):
    for name, g in small_corpus[:10]:
        theta, index = _prepared(g)
        for m in range(0, g.n, max(1, g.n // 6)):
            value, _ = upsilon(index, m)
            best_phi = max(index.phi[r] for r in index.outgoing[m])
            assert value >= best_phi, (name, m)


def test_upsilon_gstar_through_the_far_corner():
    # with the basepoint on a square corner adjacent to both the far corner
    # and the pendant side, the diametral pair bends exactly there
    g = fixture("gstar")
    theta, index = _prepared(g, v0=1)
    value, pair = upsilon(index, 1)
    assert value == 3
    assert set(pair) == {0, 4}


def test_upsilon_matches_brute_force_per_vertex(small_corpus):
    from medianecc.oracle import distance_matrix
    from helpers import median_of

    for name, g in small_corpus:
        if g.n > 60:
            continue
        theta, index = _prepared(g)
        dist = distance_matrix(g).tolist()
        v0 = theta.v0
        for m in range(g.n):
            best = 0
            for u in range(g.n):
                for v in range(g.n):
                    if median_of(dist, u, v, v0) == m:
                        best = max(best, dist[u][v])
            assert upsilon(index, m)[0] == best, (name, m)


def test_diameter_examples():
    for k in (1, 2, 3, 4):
        g = gen_hypercube(k)
        _, index = _prepared(g)
        value, (a, b) = diameter_via_upsilon(index)
        assert value == k and a == b ^ (g.n - 1)

    _, index = _prepared(fixture("gstar"))
    assert diameter_via_upsilon(index)[0] == 3

    _, index = _prepared(fixture("hstar"))
    assert diameter_via_upsilon(index)[0] == 6


def test_diameter_matches_oracle(small_corpus):
    for name, g in small_corpus:
        _, index = _prepared(g)
        value, (a, b) = diameter_via_upsilon(index)
        ora = brute_eccentricities(g)
        assert value == ora.diameter, name
        from medianecc import bfs
        assert bfs(g, a)[b] == value, name


def test_upsilon_requires_opposites():
    g = gen_grid(2, 2)
    theta = compute_theta(g)
    index = enumerate_cubes(g, theta)
    compute_phi(index, theta)
    with pytest.raises(RuntimeError, match="compute_opposites"):
        upsilon(index, 0)
