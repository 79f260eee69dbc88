from __future__ import annotations

import random

import pytest

from helpers import (brute_phi_table, is_pof, ladder_set_oracle,
                     ortho_pairs, record_id, scan_phi, scan_psi)

from medianecc import (build_graph, compute_opposites, compute_phi,
                       compute_psi, compute_theta, enumerate_cubes,
                       run_pipeline)
from medianecc.generators import (cartesian_product, fixture, gen_hypercube,
                                  gen_tree, peripheral_expansion)
from medianecc.labels import blocked_masks
from medianecc.opposites import class_masks, dense
from medianecc.oracle import distance_matrix

# a strip of squares climbing from the basepoint into a 3-cube; vertex 2
# reaches the far cube corner 15 through the jumps 2 -> 6 -> 9 -> 15
LADDER_CUBE_GRAPH = (16, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 6),
                   (4, 7), (5, 6), (5, 8), (6, 7), (6, 9), (8, 9), (8, 10),
                   (8, 12), (9, 11), (9, 13), (10, 11), (10, 14), (11, 15),
                   (12, 13), (12, 14), (13, 15), (14, 15)])


def _labeled(g, v0=0):
    theta = compute_theta(g, v0)
    index = enumerate_cubes(g, theta)
    compute_phi(index, theta)
    return theta, index


def test_phi_on_a_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    theta, index = _labeled(g)
    first = theta.edge_class[g.neighbors[0][1]]
    second = theta.edge_class[g.neighbors[1][2]]
    r = record_id(index, (first,), basis=0)
    assert index.phi[r] == 2 and index.mu[r] == 2
    r = record_id(index, (second,), basis=1)
    assert index.phi[r] == 1 and index.mu[r] == 2


def test_phi_fig3_square_label_reaches_the_far_corner():
    g = fixture("fig3")
    theta, index = _labeled(g)
    e1, e3 = (theta.edge_class[g.neighbors[0][2]],
              theta.edge_class[g.neighbors[0][1]])
    square = tuple(sorted((e1, e3)))
    r = record_id(index, square, basis=0)
    # brute table value for this ladder set: vertex 7 sits at distance 4
    table = brute_phi_table(g, theta, distance_matrix(g))
    assert table[(0, square)] == 4
    assert index.phi[r] == 4 and index.phi[r] >= 2
    assert index.mu[r] == 7


def test_phi_full_hypercube_label_is_the_antipode():
    for k in (2, 3, 4):
        g = gen_hypercube(k)
        theta, index = _labeled(g)
        full = tuple(range(theta.q))
        r = record_id(index, full, basis=0)
        assert index.phi[r] == k
        assert index.mu[r] == g.n - 1


def test_phi_matches_brute_table_with_valid_witnesses(small_corpus):
    for name, g in small_corpus:
        theta, index = _labeled(g)
        dist = distance_matrix(g)
        table = brute_phi_table(g, theta, dist)
        for rid in range(len(index)):
            key = (index.basis[rid], index.pof[rid])
            assert key in table, (name, key)
            assert index.phi[rid] == table[key], (name, key)
            # witness attains the label and lies above the basis
            u, wit = index.basis[rid], index.mu[rid]
            assert dist[u][wit] == index.phi[rid], (name, key)
            assert theta.dist0[u] + dist[u][wit] == theta.dist0[wit]
            lad = ladder_set_oracle(g, theta, u, wit,
                                    dist_from_v=list(dist[wit]))
            assert lad == index.pof[rid], (name, key)


def sweep_corpus(small_corpus):
    """The small corpus and heavier families for the sweeps' four paths,
    as ``(name, graph, *basepoint)``."""
    graphs = list(small_corpus)
    # Q8 is the smallest cube with heavy vertices, all of them fully blocked
    graphs += [(f"cube{k}", gen_hypercube(k)) for k in range(1, 9)]
    for b, seed in [(8, 1), (12, 2)]:  # Q3 x tree is all light, Q4 x tree not
        for k in (3, 4):
            graphs.append((f"cube{k}_tree{b}", cartesian_product(
                gen_hypercube(k), gen_tree(b, seed))))
    graphs.append(("expand5_30", peripheral_expansion(gen_tree(1, 0), 5, 30,
                                                      max_n=300)))
    # from its last vertex, a heavy vertex of this one sees an opposite
    # tie with an ingoing psi that has another witness
    g = peripheral_expansion(gen_tree(1, 0), 116, 40, max_n=400)
    graphs.append(("expand116_40", g, g.n - 1))
    # a heavy vertex with more distinct blocked masks than the scan pays
    # for: both sweeps take the transform there
    graphs.append(("expand66_30", peripheral_expansion(gen_tree(1, 0), 66,
                                                       30, max_n=300)))
    return graphs


SWEEP_PATHS = ("loop", "blocked", "scan", "transform")


def test_labels_match_pair_scans(monkeypatch, small_corpus):
    # each path of each sweep (the pair loop, the fully blocked vertex, the
    # distinct-mask scan and the transform) must give the plain record
    # sweeps' labels and witnesses
    graphs = sweep_corpus(small_corpus)

    def check():
        """Path counts per stage, and the vertices each sweep visits:
        those with some ingoing cube, and with some outgoing cube."""
        paths = {stage: dict.fromkeys(SWEEP_PATHS, 0)
                 for stage in ("phi", "psi")}
        visited = {"phi": 0, "psi": 0}
        for name, g, *v0 in graphs:
            theta = compute_theta(g, *v0)
            index = enumerate_cubes(g, theta)
            compute_phi(index, theta)
            assert (index.phi, index.mu) == scan_phi(index, theta), name
            compute_opposites(index)
            compute_psi(index, theta)
            assert (index.psi, index.psi_witness) == scan_psi(index, theta), \
                name
            for stage in paths:
                for path, count in index.paths[stage].items():
                    paths[stage][path] += count
            visited["phi"] += sum(len(ids) > 1 for ids in index.ingoing)
            visited["psi"] += sum(len(ids) > 1 for ids in index.outgoing)
        for stage in paths:
            assert sum(paths[stage].values()) == visited[stage], paths
        return paths

    # as the rules stand, every path runs in both stages: most visited
    # vertices light, some heavy
    for stage, count in check().items():
        assert count["loop"] > count["scan"] + count["transform"], count
        assert count["scan"] > 0 and count["transform"] > 0, count
    # then each path in turn at every vertex that can take it, so the
    # tie rules of each meet the ties the others see
    monkeypatch.setattr("medianecc.labels._heavy_cost",
                        lambda k, n: 1 << 62)
    for count in check().values():
        assert count["blocked"] == count["scan"] == count["transform"] == 0, \
            count
    monkeypatch.setattr("medianecc.labels._heavy_cost", lambda k, n: -1)
    for scans in (True, False):
        monkeypatch.setattr("medianecc.labels._scans", lambda *a: scans)
        taken, other = ("scan", "transform") if scans else \
            ("transform", "scan")
        for count in check().values():
            assert count[taken] > 0 and count[other] == 0, count
            assert count["blocked"] > 0, count


OPPOSITES_PATHS = ("trivial", "complement", "ranked", "dense", "memo")


def test_sweep_path_counters(small_corpus):
    # Q_d: every class blocks every nonempty record, so each heavy vertex
    # is fully blocked and takes no mask path, and every vertex with two
    # or more out-classes holds each subset of them at phi = size, so it
    # takes its opposites by complement; the small corpus with the sweeps'
    # heavier families, Q4 x tree among them, whose heavy vertices have
    # some ingoing records fully blocked and some not, reaches every path
    for d in range(3, 10):
        counters = run_pipeline(gen_hypercube(d)).counters
        for stage in ("phi", "psi"):
            taken = {path for path, count in counters[stage].items() if count}
            assert taken <= {"loop", "blocked"}, (d, counters)
            assert counters[stage]["transform"] == 0, (d, counters)
        assert set(counters["opposites"]) == set(OPPOSITES_PATHS)
        assert sum(counters["opposites"].values()) == 1 << d
        # out-degree d - |v| >= 2 at all but v0's d + 1 tallest vertices
        assert counters["opposites"]["complement"] == (1 << d) - 1 - d
        assert counters["opposites"]["ranked"] == 0
        assert counters["opposites"]["dense"] == 0
        assert counters["opposites"]["memo"] == 0
    reached = set()
    for name, g, *v0 in sweep_corpus(small_corpus):
        counters = run_pipeline(g, *v0).counters
        assert sum(counters["opposites"].values()) == g.n, name
        reached |= {(stage, path) for stage in ("phi", "psi", "opposites")
                    for path, count in counters[stage].items() if count}
    assert reached == {(stage, path) for stage in ("phi", "psi")
                       for path in SWEEP_PATHS} | {
        ("opposites", path) for path in OPPOSITES_PATHS}


def test_psi_takes_the_path_of_phi(monkeypatch, small_corpus):
    # phi keeps the mask path it took at each vertex in index.mask_path;
    # psi takes that path with no heavy, dense or scan test of its own,
    # recomputes the blocked masks only where phi scanned or transformed,
    # and counts the same mask paths as phi
    calls = []

    def counted(index, theta, b, k):
        calls.append(b)
        return blocked_masks(index, theta, b, k)

    def untaken(*args):
        raise AssertionError("psi decided a path of its own")

    # the corpus has Q1..Q8
    graphs = sweep_corpus(small_corpus) + [("cube9", gen_hypercube(9))]
    totals = dict.fromkeys(("blocked", "scan", "transform"), 0)
    for name, g, *v0 in graphs:
        theta = compute_theta(g, *v0)
        index = enumerate_cubes(g, theta)
        compute_phi(index, theta)
        compute_opposites(index)
        monkeypatch.setattr("medianecc.labels.blocked_masks", counted)
        for hook in ("labels._heavy_cost", "labels._scans", "labels.dense",
                     "opposites.dense"):
            monkeypatch.setattr(f"medianecc.{hook}", untaken)
        calls.clear()
        compute_psi(index, theta)
        monkeypatch.undo()
        masked = [b for b, path in index.mask_path.items()
                  if path != "blocked"]
        assert sorted(calls) == sorted(masked), name
        for path in totals:
            assert index.paths["psi"][path] == index.paths["phi"][path] == \
                list(index.mask_path.values()).count(path), name
            totals[path] += index.paths["psi"][path]
        assert (index.psi, index.psi_witness) == scan_psi(index, theta), name
    # Q8, Q9 and Q4 x tree have fully blocked vertices; the heavy vertices
    # of the other mask paths take theirs
    assert totals["blocked"] > 100 and totals["scan"] > 0 and \
        totals["transform"] > 0, totals


def test_blocked_masks_follow_the_one_cubes(small_corpus):
    # the recurrence over the ingoing classes gives, for every ingoing
    # record t of a dense vertex b, the bits of b's classes incident to
    # t's basis, in class_masks' layout; None only where each of those
    # masks is full
    rng = random.Random(17)
    graphs = [g for _, g in small_corpus]
    graphs += [gen_hypercube(k) for k in range(1, 9)]
    for seed in range(300):
        graphs.append(peripheral_expansion(gen_tree(rng.randrange(1, 5),
                                                    seed), seed,
                                           rng.randrange(1, 40), max_n=200))
    dense_vertices = fully_blocked = 0
    for g in graphs:
        theta = compute_theta(g, rng.randrange(g.n))
        index = enumerate_cubes(g, theta)
        for b, outs in enumerate(index.outgoing):
            k = len(theta.incident[b]) - len(theta.in_classes[b])
            if not dense(len(outs), k):
                continue
            dense_vertices += 1
            found = blocked_masks(index, theta, b, k)
            masks = class_masks(index, outs, k)
            bits = {index.pof[r][0]: m for r, m in zip(outs[1:k + 1],
                                                       masks[1:k + 1])}
            # one bit per class, in ascending class order
            assert [bits[c] for c in sorted(bits)] == [1 << i
                                                       for i in range(k)]
            probes = [sum(bit for c, bit in bits.items()
                          if c in theta.incident[index.basis[t]])
                      for t in index.ingoing[b]]
            if found is None:
                fully_blocked += 1
                assert probes == [(1 << k) - 1] * len(probes)
            else:
                assert found == probes and min(probes) < (1 << k) - 1
    assert dense_vertices > 1000, dense_vertices
    assert 100 < fully_blocked < dense_vertices, fully_blocked


def test_ladder_set_of_a_vertex_with_itself_is_empty(small_corpus):
    for _, g in small_corpus[:4]:
        theta = compute_theta(g)
        for u in (0, g.n - 1):
            assert ladder_set_oracle(g, theta, u, u) == ()


def test_ladder_set_across_squares_and_cube():
    g = build_graph(*LADDER_CUBE_GRAPH)
    theta = compute_theta(g, 0)
    toward_right = theta.edge_class[g.neighbors[2][5]]
    upward = theta.edge_class[g.neighbors[2][3]]
    assert ladder_set_oracle(g, theta, 2, 15) == \
        tuple(sorted((toward_right, upward)))


def test_ladder_set_on_tree_is_first_edge_class():
    g = gen_tree(30, 2)
    theta = compute_theta(g)
    dist = distance_matrix(g)
    rng = random.Random(0)
    for _ in range(40):
        v = rng.randrange(g.n)
        # u between the root and v: pick any vertex on the (0, v) path
        candidates = [u for u in range(g.n)
                      if theta.dist0[u] + dist[u][v] == theta.dist0[v]]
        u = rng.choice(candidates)
        lad = ladder_set_oracle(g, theta, u, v, dist_from_v=list(dist[v]))
        if u == v:
            assert lad == ()
        else:
            nxt = next(x for x in g.neighbors[u]
                       if dist[x][v] == dist[u][v] - 1)
            assert lad == (theta.edge_class[g.neighbors[u][nxt]],)


def test_ladder_sets_are_pofs(small_corpus):
    rng = random.Random(5)
    for name, g in small_corpus:
        theta = compute_theta(g)
        pairs = ortho_pairs(enumerate_cubes(g, theta))
        dist = distance_matrix(g)
        for _ in range(25):
            v = rng.randrange(g.n)
            ups = [u for u in range(g.n)
                   if theta.dist0[u] + dist[u][v] == theta.dist0[v]]
            u = rng.choice(ups)
            lad = ladder_set_oracle(g, theta, u, v, dist_from_v=list(dist[v]))
            assert is_pof(pairs, lad), (name, u, v)


def test_ladder_set_precondition():
    g = build_graph(3, [(0, 1), (1, 2)])
    theta = compute_theta(g, 0)
    with pytest.raises(ValueError, match="not between"):
        ladder_set_oracle(g, theta, 2, 0)


def test_shortest_paths_use_one_edge_per_separating_class(small_corpus):
    rng = random.Random(11)
    for name, g in small_corpus:
        if g.n < 2:
            continue
        theta = compute_theta(g)
        dist = distance_matrix(g)
        for _ in range(15):
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            sigma = _signature(g, theta, dist, u, v)
            assert len(sigma) == dist[u][v], (name, u, v)
            path_classes = _random_shortest_path_classes(
                g, theta, dist, u, v, rng)
            assert len(path_classes) == len(set(path_classes))
            assert set(path_classes) == sigma, (name, u, v)


def _signature(g, theta, dist, u, v):
    out = set()
    for eid, (x, y) in enumerate(g.edges):
        if (dist[u][x] < dist[u][y]) != (dist[v][x] < dist[v][y]):
            out.add(theta.edge_class[eid])
    return out


def _random_shortest_path_classes(g, theta, dist, u, v, rng):
    classes = []
    cur = u
    while cur != v:
        step = rng.choice([x for x in g.neighbors[cur]
                           if dist[x][v] == dist[cur][v] - 1])
        classes.append(theta.edge_class[g.neighbors[cur][step]])
        cur = step
    return classes
