from __future__ import annotations

import random
import time

import pytest

from medianecc import (build_graph, compute_phi, compute_opposites,
                       compute_theta, enumerate_cubes, run_pipeline)
from medianecc.generators import (cartesian_product, fixture, gen_grid,
                                  gen_hypercube, gen_tree,
                                  peripheral_expansion)
from medianecc.opposites import (RANKED_POFS, class_masks, dense,
                                 dense_opposites, disjoint_max,
                                 opposite_records)

from helpers import (brute_eccentricities, diameter_via_upsilon,
                     scan_opposites, upsilon)


def _prepared(g, v0=0):
    theta = compute_theta(g, v0)
    index = enumerate_cubes(g, theta)
    compute_phi(index, theta)
    compute_opposites(index)
    return theta, index


def _synthetic(entries):
    """Query over {pof: weight} returning the opposite of a listed pof."""
    rows = [(tuple(sorted(p)), w, i)
            for i, (p, w) in enumerate(entries.items())]
    opp = dict(zip((p for p, _, _ in rows), opposite_records(rows)))
    return lambda pof: rows[opp[pof]][0]


def _opposites_at(index, m):
    """Query over m's outgoing records returning the opposite pof."""
    rids = index.outgoing[m]
    opp = opposite_records((index.pof[r], index.phi[r], r) for r in rids)
    by_pof = {index.pof[r]: o for r, o in zip(rids, opp)}
    return lambda pof: index.pof[by_pof[pof]]


def test_leaf_of_a_tree_has_the_empty_opposite():
    g = gen_tree(8, 1)
    leaf = next(v for v in range(g.n) if len(g.neighbors[v]) == 1)
    # basepoint at the leaf: its single edge points out, so its outgoing
    # pofs are () and the edge class
    theta, index = _prepared(g, v0=leaf)
    find_opposite = _opposites_at(index, leaf)
    outgoing = [index.pof[r] for r in index.outgoing[leaf]]
    (single,) = [p for p in outgoing if p]
    assert len(single) == 1
    assert find_opposite(single) == ()
    assert find_opposite(()) == single


def test_nested_argmax_tree_and_opposite():
    i, j, h, r, ell = range(5)
    find_opposite = _synthetic({
        (): 0, (i,): 3, (j,): 3, (h,): 2, (r,): 2, (ell,): 6,
        (i, j): 10, (j, h): 4, (j, r): 4, (h, r): 4, (i, h): 4,
        (j, h, r): 9, (i, ell): 5,
    })
    assert find_opposite(()) == (i, j)
    assert find_opposite((i, ell)) == (j, h, r)
    # blocking i reaches (j, h, r); blocking i, then h, reaches (ell,)
    assert find_opposite((i,)) == (j, h, r)
    assert find_opposite((i, h)) == (ell,)


def test_three_branch_star_weights():
    find_opposite = _synthetic({(): 0, (0,): 3, (1,): 2, (2,): 1})
    assert find_opposite((0,)) == (1,)
    assert find_opposite((1,)) == (0,)
    assert find_opposite(()) == (0,)


def test_argmax_tie_breaks_prefer_small_then_lexicographic():
    find_opposite = _synthetic({(): 0, (0,): 5, (1, 2): 5, (1,): 5, (2,): 4})
    assert find_opposite(()) == (0,)  # weight tie broken by size, then lex


def test_opposites_match_quadratic_scan(small_corpus):
    for name, g in small_corpus:
        theta, index = _prepared(g)
        for m in range(g.n):
            rids = index.outgoing[m]
            entries = [(index.pof[r], index.phi[r], r) for r in rids]
            assert [index.opp[r] for r in rids] == scan_opposites(entries), \
                (name, m)


def _random_family(rng, closed):
    """(pof, weight, record id) triples over at most 7 classes with
    arbitrary ids, shuffled; downward-closed or not, always with ()."""
    k = rng.randint(1, 7)
    classes = sorted(rng.sample(range(3 * k), k))
    subsets = [tuple(c for i, c in enumerate(classes) if mask >> i & 1)
               for mask in range(1 << k)]
    if closed:
        tops = rng.sample(subsets, min(rng.randint(1, 3), len(subsets)))
        family = [p for p in subsets
                  if any(set(p).issubset(t) for t in tops)]
    else:
        keep = rng.random()
        family = [p for p in subsets if not p or rng.random() < keep]
    rng.shuffle(family)
    return [(p, rng.randint(1, 3), 1000 + i) for i, p in enumerate(family)]


def test_opposite_records_match_scan_on_random_families():
    # dense families (2^k at most twice their count over k classes) go to
    # the mask transform, with bit i the i-th smallest class, and the
    # others to the memo table, which answers any family
    rng = random.Random(4)
    sparse = 0
    for i in range(20000):
        entries = _random_family(rng, closed=i % 2 == 0)
        classes = sorted({c for p, _, _ in entries for c in p})
        k = len(classes)
        is_sparse = 2 ** k > 2 * len(entries)
        expected = scan_opposites(entries)
        assert opposite_records(entries) == expected, entries
        assert dense(len(entries), k) == (not is_sparse and
                                          len(entries) > 2), entries
        if not is_sparse:
            bit = {c: 1 << j for j, c in enumerate(classes)}
            masks = [sum(bit[c] for c in p) for p, _, _ in entries]
            weight = {r: w for _, w, r in entries}
            assert dense_opposites([r for _, _, r in entries], masks,
                                   weight, k) == expected, entries
        sparse += is_sparse
    # both regimes are exercised
    assert 0 < sparse < 20000 / 2, sparse


@pytest.mark.parametrize("scans", [True, False])
def test_disjoint_max_is_the_largest_disjoint_key(monkeypatch, scans):
    # each path of the kernel, forced, against a brute-force max over
    # seeded distinct masks and keys for k = 0..8; a query that meets every
    # item, and every query over no items, gives -1
    monkeypatch.setattr("medianecc.opposites._scans", lambda *a: scans)
    path = "scan" if scans else "transform"
    assert disjoint_max([], [0], 0) == ([-1], path)
    assert disjoint_max([(0, 5)], [0], 0) == ([5], path)
    assert disjoint_max([], [0, 1, 3], 2) == ([-1, -1, -1], path)
    assert disjoint_max([(1, 4), (2, 7)], [3, 1, 2, 0], 2) == \
        ([-1, 7, 4, 7], path)
    rng = random.Random(29)
    unmet = 0
    for k in range(9):
        for _ in range(40):
            masks = rng.sample(range(1 << k), rng.randint(0, 1 << k))
            keys = rng.sample(range(10 ** 6), len(masks))
            queries = [rng.randrange(1 << k)
                       for _ in range(rng.randint(0, 12))]
            expected = []
            for q in queries:
                fits = [key for m, key in zip(masks, keys) if m & q == 0]
                expected.append(max(fits) if fits else -1)
            unmet += expected.count(-1)
            assert disjoint_max(list(zip(masks, keys)), queries, k) == \
                (expected, path), (k, masks, keys, queries)
    assert unmet > 0


def _star(m):
    return build_graph(m + 1, [(0, v) for v in range(1, m + 1)])


def test_hub_opposites_cost_about_as_much_as_cubes():
    # K_{1,4000} x K_2: two hubs of degree 4001, where a per-query scan of
    # the ranked pof list would be quadratic in the degree (about 45x cubes)
    # at the basepoint's hub, whose squares keep it on the memo table; the
    # other hub has only 1-cubes, so the first ranked pofs answer there
    g = cartesian_product(_star(4000), gen_grid(1, 2))
    runs = [run_pipeline(g) for _ in range(3)]
    paths = runs[0].counters["opposites"]
    assert paths["memo"] == paths["ranked"] == 1, paths
    assert len(runs[0].index.pof[runs[0].index.outgoing[0][-1]]) == 2
    opposites = min(r.timings["opposites"] for r in runs)
    cubes = min(r.timings["cubes"] for r in runs)
    assert opposites <= 5 * cubes, (opposites, cubes)


def test_star_centre_takes_the_ranked_scan_at_the_cost_of_cubes():
    # K_{1,4000} from its centre: one flat vertex with 4,001 pofs, the
    # empty one and 4,000 edges, where the first or the second ranked pof
    # answers each query, so the scan is linear in the degree
    runs = [run_pipeline(_star(4000)) for _ in range(3)]
    assert runs[0].counters["opposites"] == {
        "trivial": 4000, "complement": 0, "ranked": 1, "dense": 0,
        "memo": 0}
    opposites = min(r.timings["opposites"] for r in runs)
    cubes = min(r.timings["cubes"] for r in runs)
    assert opposites <= 5 * cubes, (opposites, cubes)


def _rank_entries(index):
    """The floor of ``opposite_records`` at every vertex: build and rank
    its ``(pof, phi, rid)`` entries, with no table and no query."""
    pofs, phi = index.pof, index.phi
    for rids in index.outgoing:
        entries = [(pofs[r], phi[r], r) for r in rids]
        sorted(entries, key=lambda e: (-e[1], len(e[0]), e[0]))


def _transform_everywhere(index):
    """The subset transform of ``compute_opposites`` at every vertex of a
    hypercube with a table, 2^k pofs over k classes, the complete and flat
    ones that take the complement included."""
    phi = index.phi
    for rids in index.outgoing:
        if len(rids) > 2:
            k = len(rids).bit_length() - 1
            dense_opposites(rids, class_masks(index, rids, k), phi, k)


def test_dense_opposites_cost_about_as_much_as_cubes():
    # Q10: every vertex is dense, 2^k pofs over k classes. The yardstick is
    # ranking each vertex's entries, which every opposite answer needs:
    # the subset transform costs about 3x that, the memo table alone, with
    # one scan of the ranked pofs per miss, about 17x. compute_opposites
    # answers Q10 by complement, so the transform is timed on its own
    g = gen_hypercube(10)
    _, index = _prepared(g)
    opposites = ranking = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        _transform_everywhere(index)
        opposites = min(opposites, time.perf_counter() - t)
        t = time.perf_counter()
        _rank_entries(index)
        ranking = min(ranking, time.perf_counter() - t)
    assert opposites <= 6 * ranking, (opposites, ranking)


def _complete_and_flat(index, rids):
    """Whether ``rids`` holds every subset of its k classes, each at phi
    equal to its size, and that k."""
    pofs, phi = index.pof, index.phi
    k = sum(len(pofs[r]) == 1 for r in rids)
    return k > 1 and len(rids) == 1 << k and \
        all(phi[r] == len(pofs[r]) for r in rids), k


def test_complement_opposites_match_the_transform_and_the_scan():
    # at a complete, flat vertex each pof's complement is the one heaviest
    # disjoint pof, so the complement answers what the transform and the
    # plain scan answer; all of Q_d's vertices of out-degree 2 or more are
    # such, and the cube corners at the top of a tree or path factor
    graphs = [gen_hypercube(d) for d in range(2, 10)]
    graphs += [cartesian_product(gen_hypercube(3), gen_tree(40, 3)),
               cartesian_product(gen_hypercube(4), gen_grid(1, 12))]
    for g in graphs:
        _, index = _prepared(g)
        flat = 0
        for rids in index.outgoing:
            is_flat, k = _complete_and_flat(index, rids)
            if not is_flat:
                continue
            flat += 1
            expected = scan_opposites([(index.pof[r], index.phi[r], r)
                                       for r in rids])
            assert [index.opp[r] for r in rids] == expected
            assert dense_opposites(rids, class_masks(index, rids, k),
                                   index.phi, k) == expected
        assert flat == index.paths["opposites"]["complement"] > 0, g.n


def test_complete_vertex_above_its_sizes_keeps_the_transform(monkeypatch):
    # 3 x 3 x 3 x 3 grid from corner 0: each vertex whose four base-3
    # digits are below 2 has all 16 subsets of its upward classes, more
    # than RANKED_POFS, but an edge's phi reaches the far side, above its
    # size 1, except at the vertex next to the far corner, digits 1111
    g = cartesian_product(gen_grid(3, 3), gen_grid(3, 3))
    transformed = []

    def spy(rids, masks, weight, k):
        transformed.append(rids[0])  # the empty pof, whose basis is m
        return dense_opposites(rids, masks, weight, k)

    monkeypatch.setattr("medianecc.opposites.dense_opposites", spy)
    _, index = _prepared(g)
    complete = {v for v in range(g.n)
                if all(v // 3 ** i % 3 < 2 for i in range(4))}
    assert len(complete) == 16 > RANKED_POFS
    assert {index.basis[r] for r in transformed} == complete - {40}
    assert _complete_and_flat(index, index.outgoing[0]) == (False, 4)
    assert _complete_and_flat(index, index.outgoing[40]) == (True, 4)
    assert index.paths["opposites"]["dense"] == 15
    # 4 x 5 grid from corner 0: each vertex off the far sides has both
    # upward edges and their square, 4 pofs, so the ranked scan answers
    # where the complement does not: at all but the vertex next to the far
    # corner, whose edges' phi is their size 1
    g4x5 = gen_grid(4, 5)
    _, index4x5 = _prepared(g4x5)
    is_flat, k = _complete_and_flat(index4x5, index4x5.outgoing[0])
    assert k == 2 and not is_flat
    assert _complete_and_flat(index4x5, index4x5.outgoing[13]) == (True, 2)
    assert index4x5.paths["opposites"] == {
        "trivial": 8, "complement": 1, "ranked": 11, "dense": 0, "memo": 0}
    for g, index in ((g, index), (g4x5, index4x5)):
        for m in range(g.n):
            rids = index.outgoing[m]
            assert [index.opp[r] for r in rids] == scan_opposites(
                [(index.pof[r], index.phi[r], r) for r in rids]), (g.n, m)


def test_ranked_opposites_are_the_definition(monkeypatch):
    # trees, grids, tree x tree products and peripheral expansions from
    # three basepoints: every opposite is the plain scan's; the ranked
    # scan, seen as the one sort of a vertex's record ids, runs only at
    # vertices of at most RANKED_POFS pofs or of 1-cubes alone; and
    # p == 2^s, s the size of the last (largest) pof, holds exactly at
    # the complete vertices, which are flat where _complete_and_flat says
    scanned = []

    def spy(items, *, key=None):
        if key is not None and items and type(items[0]) is int:
            scanned.append(items)
        return sorted(items, key=key)

    monkeypatch.setattr("medianecc.opposites.sorted", spy, raising=False)
    rng = random.Random(24)
    graphs = [gen_tree(n, seed) for seed, n in enumerate((2, 9, 60, 400))]
    graphs.append(_star(12))  # from its centre: 13 pofs, 1-cubes alone
    graphs += [gen_grid(p, q) for p, q in ((1, 6), (3, 4), (7, 9))]
    graphs += [cartesian_product(gen_tree(8 + seed, seed),
                                 gen_tree(11, seed + 7)) for seed in range(3)]
    graphs += [peripheral_expansion(gen_tree(rng.randrange(1, 5), seed),
                                    seed, rng.randrange(1, 40), max_n=200)
               for seed in range(30)]
    ranked = wide = 0
    for g in graphs:
        for v0 in sorted({0, g.n // 2, g.n - 1}):
            scanned.clear()
            _, index = _prepared(g, v0)
            pofs, phi = index.pof, index.phi
            for m, rids in enumerate(index.outgoing):
                assert [index.opp[r] for r in rids] == scan_opposites(
                    [(pofs[r], phi[r], r) for r in rids]), (g.n, v0, m)
                p, s = len(rids), len(pofs[rids[-1]])
                is_flat, k = _complete_and_flat(index, rids)
                assert (p == 1 << s) == (p == 1 << k), (g.n, v0, m)
                assert is_flat == (s > 1 and p == 1 << s and sum(
                    phi[r] for r in rids) == s << (s - 1)), (g.n, v0, m)
            for rids in scanned:
                assert len(rids) <= RANKED_POFS or \
                    all(len(pofs[r]) <= 1 for r in rids), (g.n, v0, rids)
                wide += len(rids) > RANKED_POFS
            assert len(scanned) == index.paths["opposites"]["ranked"]
            ranked += len(scanned)
    assert ranked > 0 and wide > 0, (ranked, wide)


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

