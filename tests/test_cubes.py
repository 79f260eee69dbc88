from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import pytest

from helpers import (anti_bases, bouquet, cogwheel, doctored, is_pof,
                     minus_vertex, ortho_pairs, record_id)

from medianecc import (NonMedianGraphError, bfs, build_graph, compute_theta,
                       enumerate_cubes, load_graph)
from medianecc import cubes, flat, flat_labels
from medianecc import theta as theta_mod
from medianecc.graph import FLAT_MIN_EDGES
from medianecc.generators import fixture, gen_grid, gen_hypercube


def _index_for(g, v0=0):
    theta = compute_theta(g, v0)
    return theta, enumerate_cubes(g, theta)


def test_single_edge_has_three_records():
    g = load_graph("2 1\n0 1")
    _, index = _index_for(g)
    assert len(index) == 3
    assert sorted(len(p) for p in index.pof) == [0, 0, 1]


def test_q3_census():
    g = gen_hypercube(3)
    for v0 in (0, 5):
        _, index = _index_for(g, v0)
        assert len(index) == 27  # 8 vertices + 12 edges + 6 squares + 1 cube
        assert len(set(index.pof)) == 8 == g.n
        assert index.dimension == 3


def test_fig3_pof_bijection_table():
    g = fixture("fig3")
    theta, index = _index_for(g, 0)
    cls = theta.edge_class
    e1, e2 = cls[g.neighbors[0][2]], cls[g.neighbors[2][5]]
    e3, e4 = cls[g.neighbors[0][1]], cls[g.neighbors[3][4]]
    expected = {
        0: (), 1: (e3,), 2: (e1,), 3: tuple(sorted((e1, e3))),
        4: (e4,), 5: (e2,), 6: tuple(sorted((e2, e3))),
        7: tuple(sorted((e2, e4))),
    }
    # the full ingoing set of each vertex is its pof under the bijection
    for v, pof in expected.items():
        assert theta.in_classes[v] == pof
        record_id(index, pof, anti_basis=v)
    assert set(index.pof) == set(expected.values())


def test_pof_extension_examples():
    g = fixture("fig3")
    theta, _ = _index_for(g, 0)
    e1 = theta.edge_class[g.neighbors[0][2]]
    assert e1 in theta.incident[0]

    tree = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    ttheta = compute_theta(tree, 0)
    far_class = ttheta.edge_class[tree.neighbors[2][3]]
    assert far_class not in ttheta.incident[0]

    grid = gen_grid(2, 3)  # columns 0..2; middle cut between columns 1 and 2
    gtheta = compute_theta(grid, 0)
    far_cut = gtheta.edge_class[grid.neighbors[1][2]]
    assert far_cut not in gtheta.incident[0]
    assert far_cut in gtheta.incident[1]


def test_lookup_roundtrips():
    g = fixture("fig3")
    theta, index = _index_for(g, 0)
    rid = record_id(index, (), basis=0)
    assert index.basis[rid] == 0 and anti_bases(index)[rid] == 0

    e1, e3 = (theta.edge_class[g.neighbors[0][2]],
              theta.edge_class[g.neighbors[0][1]])
    square = tuple(sorted((e1, e3)))
    rid = record_id(index, square, anti_basis=3)
    assert index.basis[rid] == 0  # square 0-1-3-2 hangs from the basepoint

    q3 = gen_hypercube(3)
    q3theta, q3index = _index_for(q3, 0)
    full = tuple(range(q3theta.q))
    rid = record_id(q3index, full, basis=0)
    assert anti_bases(q3index)[rid] == 7

    with pytest.raises(KeyError, match="no hypercube"):
        record_id(index, (e1,), basis=7)


def test_records_ordered_by_antibasis_level(small_corpus):
    for name, g in small_corpus:
        theta, index = _index_for(g)
        levels = [theta.dist0[v] for v in anti_bases(index)]
        assert levels == sorted(levels), name


def test_record_geometry_against_bfs(small_corpus):
    for name, g in small_corpus:
        if g.n > 100:
            continue
        theta, index = _index_for(g)
        anti_of = anti_bases(index)
        dist_cache = {}
        for rid in range(len(index)):
            basis = index.basis[rid]
            anti = anti_of[rid]
            pof = index.pof[rid]
            if basis not in dist_cache:
                dist_cache[basis] = bfs(g, basis)
            assert dist_cache[basis][anti] == len(pof), (name, rid)
            _assert_full_cube(g, theta, basis, pof, name)


def _assert_full_cube(g, theta, basis, pof, name):
    """All 2^|pof| corners exist, are distinct, and are wired per class."""
    corners = {(): basis}
    for c in pof:
        for sub, vertex in list(corners.items()):
            corner = theta.incident[vertex].get(c)
            assert corner is not None, (name, basis, pof)
            corners[tuple(sorted(sub + (c,)))] = corner
    assert len(set(corners.values())) == 1 << len(pof), (name, basis, pof)
    for sub, vertex in corners.items():
        for c in pof:
            if c in sub:
                continue
            other = corners[tuple(sorted(sub + (c,)))]
            eid = g.neighbors[vertex][other]
            assert theta.edge_class[eid] == c, (name, basis, pof)


def test_counting_identities(small_corpus):
    for name, g in small_corpus:
        theta, index = _index_for(g)
        distinct = set(index.pof)
        assert len(distinct) == g.n, name
        pairs = ortho_pairs(index)
        assert all(is_pof(pairs, p) for p in distinct if len(p) > 1)
        # sum 2^i beta_i, beta_i the distinct pofs of size i
        assert sum(1 << len(p) for p in distinct) == len(index)
        assert len(index) <= (1 << index.dimension) * g.n, name


def test_empty_pof_is_a_zero_cube_per_vertex(small_corpus):
    for _, g in small_corpus:
        _, index = _index_for(g)
        zero = [rid for rid in range(len(index)) if not index.pof[rid]]
        assert len(zero) == g.n
        anti = anti_bases(index)
        for rid in zero:
            assert index.basis[rid] == anti[rid]


def test_ingoing_ranges_partition_the_records(small_corpus):
    # with this, test_records_ordered_by_antibasis_level puts them in
    # level order
    for name, g in small_corpus:
        _, index = _index_for(g)
        ranges = sorted(index.ingoing, key=lambda ids: ids.start)
        assert all(type(ids) is range for ids in ranges), name
        assert ranges[0].start == 0 and ranges[-1].stop == len(index), name
        assert all(a.stop == b.start for a, b in zip(ranges, ranges[1:]))


def test_record_layout_follows_the_ingoing_class_bits(small_corpus):
    for name, g in small_corpus:
        theta, index = _index_for(g)
        for v in range(g.n):
            ids, inc = index.ingoing[v], theta.in_classes[v]
            assert len(ids) == 1 << len(inc), (name, v)
            assert index.basis[ids[0]] == v, (name, v)
            for mask, rid in enumerate(ids):
                bits = tuple(c for i, c in enumerate(inc) if mask >> i & 1)
                assert index.pof[rid] == bits, (name, v, mask)


def test_walk_failure_on_inconsistent_decomposition():
    g = build_graph(3, [(0, 1), (1, 2)])
    theta = compute_theta(g, 0)
    # claim vertex 2 has an ingoing class that has no edge there
    missing = theta.edge_class[g.neighbors[0][1]]
    broken = doctored(theta, theta.in_classes[:2]
                      + (tuple(sorted(theta.in_classes[2] + (missing,))),))
    with pytest.raises(NonMedianGraphError, match="stalled"):
        enumerate_cubes(g, broken)


def test_walk_refusal_on_an_upward_landing():
    g = build_graph(3, [(0, 1), (1, 2)])
    theta = compute_theta(g, 0)
    # claim edge (1, 2), which points up from vertex 1, is ingoing there
    up = theta.edge_class[g.neighbors[1][2]]
    broken = doctored(theta, (theta.in_classes[0],
                              tuple(sorted(theta.in_classes[1] + (up,))),
                              theta.in_classes[2]))
    with pytest.raises(NonMedianGraphError,
                       match=r"classes \(1,\) landed at vertex 2, "
                             r"not \|pof\| levels down"):
        enumerate_cubes(g, broken)


def test_dimension_guard(monkeypatch):
    # theta refuses a vertex with more ingoing classes than MAX_DIM before
    # the cube walk, on both paths; Q12 has 24,576 edges, so the flat path
    # runs first and must read the bound at call time
    monkeypatch.setattr(theta_mod, "MAX_DIM", 3)
    with pytest.raises(NonMedianGraphError,
                       match="^vertex 15 has 4 ingoing classes, above the "
                             "supported dimension 3$"):
        compute_theta(gen_hypercube(4))
    q12 = gen_hypercube(12)
    assert q12.m >= FLAT_MIN_EDGES
    monkeypatch.setattr(theta_mod, "MAX_DIM", 11)
    assert flat.compute_theta(q12, 0) is None
    with pytest.raises(NonMedianGraphError,
                       match="^vertex 4095 has 12 ingoing classes, above the "
                             "supported dimension 11$"):
        compute_theta(q12)


def test_records_share_thetas_class_tuples(small_corpus):
    # n distinct pofs, each some vertex's in_classes, held once each
    for name, g in small_corpus:
        _, index = _index_for(g)
        assert len({id(p) for p in index.pof}) == g.n, name


@pytest.mark.parametrize("make, small", [(bouquet, 2000), (cogwheel, 4000)])
def test_link_pass_memory_grows_with_the_squares(make, small):
    # vertex 0 has degree 2k in a bouquet and k in a cogwheel, and k
    # squares; four times the squares may cost about four times the
    # memory, not sixteen, in the scalar pass on the lists and in the
    # array pass on the records
    peaks = {"scalar": [], "array": []}
    for k in (small, 4 * small):
        g = make(k)
        theta = theta_mod._theta_scalar(g, 0)
        index = enumerate_cubes(g, theta)
        records = flat_labels.walk(flat.compute_theta(g, 0))
        for name, check in (("scalar", lambda: cubes._check_links(index,
                                                                  theta)),
                            ("array", lambda: flat_labels.links(records))):
            tracemalloc.start()
            try:
                assert check() in (None, True)
                peaks[name].append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    for name, (low, high) in peaks.items():
        assert high < 6 * low, (name, peaks)


def test_walk_reads_only_the_vertex_count(small_corpus):
    for name, g in small_corpus:
        theta, index = _index_for(g)
        bare = enumerate_cubes(SimpleNamespace(n=g.n), theta)
        assert bare.basis == index.basis, name
        assert bare.pof == index.pof, name
        assert bare.ingoing == index.ingoing, name


def test_layout_the_sweeps_read(small_corpus):
    # the phi and psi sweeps take their level order and each vertex's
    # local class count k from this layout instead of recomputing them
    graphs = list(small_corpus)
    graphs += [(f"cube{k}", gen_hypercube(k)) for k in range(1, 7)]
    for name, g in graphs:
        theta, index = _index_for(g)
        assert index.order == sorted(range(g.n),
                                     key=theta.dist0.__getitem__), name
        assert list(dict.fromkeys(anti_bases(index))) == index.order, name
        for b in range(g.n):
            outs = index.outgoing[b]
            assert outs[0] == index.ingoing[b][0], (name, b)
            sizes = [len(index.pof[r]) for r in outs]
            k = len(theta.incident[b]) - len(theta.in_classes[b])
            assert sizes[1:k + 1] == [1] * k, (name, b)
            assert sizes.count(1) == k, (name, b)
            assert sizes == sorted(sizes), (name, b)


@pytest.mark.parametrize("v0", [0, 1])
def test_link_check_refuses_q3_minus_a_vertex(v0):
    # theta passes from both basepoints. From 0 the three squares at 0
    # point away from it (out, out, out); from 1 the class of edge (0, 1)
    # points into 0 and is also into 2 and 4 but not into 6 (in, out, out)
    g = minus_vertex(gen_hypercube(3), 7)
    theta = compute_theta(g, v0)
    with pytest.raises(NonMedianGraphError,
                       match=r"^classes 0, 1 and 2 pairwise span squares at "
                             r"vertex 0 but no 3-cube \(the link of 0 is "
                             r"not flag\)$"):
        enumerate_cubes(g, theta)


@pytest.mark.parametrize("d", [5, 6])
def test_link_check_names_the_smaller_of_two_unfilled_in_classes(d):
    # Q_d from 0: vertex x = 2^(d-2) - 1 has the d - 2 low bits' classes
    # in and the two high ones out, and their square's anti-basis is the
    # top vertex w. With the classes of bits 1 and 2 taken off in(w), both
    # fail (in, out, out) at x, the first vertex to meet w so; the message
    # names the smaller. x has four ingoing classes in Q6 (bit masks) and
    # three in Q5 (class tuples)
    g = gen_hypercube(d)
    theta, index = _index_for(g)
    x, w = (1 << d - 2) - 1, (1 << d) - 1
    bit = [theta.incident[0][c] for c in range(d)]  # class -> its bit
    low = [c for c in theta.in_classes[x] if bit[c] in (2, 4)]
    high = sorted(c for c in theta.incident[x] if bit[c] >= 1 << d - 2)
    broken = doctored(theta, theta.in_classes[:w] + (tuple(
        c for c in theta.in_classes[w] if c not in low),))
    with pytest.raises(NonMedianGraphError,
                       match=f"^classes {min(low)}, {high[0]} and {high[1]} "
                             f"pairwise span squares at vertex {x} but no "
                             f"3-cube"):
        cubes._check_links(index, broken)


def test_no_triangle_count_at_complete_vertices(monkeypatch):
    # every vertex of a hypercube is complete, so the link pass never
    # counts its out-out triangles; the per-class neighbour sets it counts
    # them on are the only sets the pass builds, so a spy on ``set`` in
    # the module sees every count. Q3 minus a vertex, from 0, shows the
    # spy does see one
    built = []

    def spy(*args):
        built.append(args)
        return set(*args)

    monkeypatch.setattr(cubes, "set", spy, raising=False)
    for d in range(3, 9):
        g = gen_hypercube(d)
        for v0 in (0, g.n // 3):
            _index_for(g, v0)
    assert built == []
    g = minus_vertex(gen_hypercube(3), 7)
    with pytest.raises(NonMedianGraphError, match="no 3-cube"):
        _index_for(g)
    assert built


def test_link_check_names_the_one_unfilled_triangle():
    # Q4 minus vertex 14: at vertex 0 four link triangles, three filled
    g = minus_vertex(gen_hypercube(4), 14)
    theta = compute_theta(g, 0)
    with pytest.raises(NonMedianGraphError,
                       match="^classes 1, 2 and 3 pairwise span squares at "
                             "vertex 0 but no 3-cube"):
        enumerate_cubes(g, theta)
