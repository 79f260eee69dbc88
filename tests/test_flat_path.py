"""The flat (numpy) and scalar paths give the same results and refuse the
same inputs: ``load_graph``'s array validation (``flat._build``) against
``build_graph``, the two paths of ``compute_theta``, and the cube walk and
link pass on flat theta's arrays (``flat_labels.walk`` and ``links``)
against the scalar ones in ``enumerate_cubes``.

The path functions are called directly, so the edge-count cut that picks
a path in the public functions is bypassed. A ``medianecc.flat`` function
returns None where it refuses an input; the public function then runs the
scalar one, which raises its own message. So the flat path agrees with the
scalar one exactly when it refuses the inputs the scalar path raises on
and returns equal results on all others. The input language of both
parsers is pinned in test_graph.py.
"""
from __future__ import annotations

import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from helpers import doctored, near_median_graphs

from medianecc import (CubeIndex, build_graph, compute_theta,
                       enumerate_cubes, load_graph, run_pipeline, save_graph)
from medianecc import cli, cubes, flat, flat_labels
from medianecc import graph as graph_mod
from medianecc import theta as theta_mod
from medianecc.generators import (cartesian_product, gen_grid,
                                  gen_hypercube, gen_tree)

FUZZ_GRAPHS = 2400


def theta_key(theta):
    """Every field, and each index flat theta builds on first read (they
    are not fields, so ``==`` does not compare them): ``edge_class``,
    ``incident`` with each map's insertion order, and ``in_classes``."""
    return (theta.v0, theta.dist0, theta.q, theta.edge_class,
            [list(d.items()) for d in theta.incident], theta.in_classes)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def assert_same_theta(g, v0):
    """Whether the scalar path accepts (g, v0), after checking that the
    flat one agrees."""
    flat_theta = flat.compute_theta(g, v0)
    scalar = outcome(theta_mod._theta_scalar, g, v0)
    if isinstance(scalar, tuple):
        assert flat_theta is None, f"flat path accepted, scalar raised {scalar}"
        return False
    assert flat_theta is not None, "flat path refused, scalar accepted"
    assert not {"edge_class", "incident", "in_classes"} & set(vars(flat_theta))
    assert theta_key(flat_theta) == theta_key(scalar)
    return True


def build_both(n, edges):
    """Outcomes of flat._build and of build_graph on an edge list."""
    return (flat._build(n, np.array(edges, dtype=np.int64).reshape(-1)),
            outcome(graph_mod.build_graph, n, edges))


def assert_same_graph(flat_graph, scalar):
    """The flat graph holds edge ends, not pairs: its ``m`` reads them, and
    the pairs built on first read (by ``hash``) share one int per id."""
    assert flat_graph.m == scalar.m and "edges" not in vars(flat_graph)
    assert hash(flat_graph) == hash(scalar)
    assert flat_graph == scalar
    assert flat_graph.edges == scalar.edges
    ids = [x for edge in flat_graph.edges for x in edge]
    assert len(set(map(id, ids))) == len(set(ids))
    assert [list(d.items()) for d in flat_graph.neighbors] == \
        [list(d.items()) for d in scalar.neighbors]


def corpus():
    """Median graphs, then inputs that each check of theta refuses."""
    graphs = [gen_hypercube(k) for k in range(1, 9)]
    graphs += [gen_grid(1, k) for k in range(1, 40, 3)]
    graphs += [gen_grid(k, k) for k in range(2, 30, 3)]
    graphs += [gen_tree(n, seed) for seed, n in enumerate((1, 2, 5, 40, 300))]
    graphs += [cartesian_product(gen_tree(9, 1), gen_tree(12, 2)),
               cartesian_product(gen_grid(3, 4), gen_tree(10, 3)),
               cartesian_product(gen_hypercube(3), gen_grid(1, 6))]
    q3_minus = [(a, b) for a, b in gen_hypercube(3).edges if 7 not in (a, b)]
    for n, edges in [
            (3, [(0, 1), (1, 2), (0, 2)]),  # odd cycle
            (6, [(i, (i + 1) % 6) for i in range(6)]),  # no square
            (5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)]),  # K_2,3
            # a square a-w1-b-w2 under z: a, b have two lower common
            # neighbours
            (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5),
                 (4, 5)]),
            (7, q3_minus)]:
        graphs.append(build_graph(n, edges))
    return graphs


def test_corpus_paths_agree(small_corpus):
    graphs = corpus() + [g for _, g in small_corpus]
    for g in graphs:
        flat, scalar = build_both(g.n, list(g.edges))
        assert_same_graph(flat, scalar)
        for v0 in sorted({0, g.n // 2, g.n - 1}):
            assert_same_theta(g, v0)


def random_connected(rng):
    """Edge list of a random connected graph on 3..12 vertices, bipartite
    (under a random 2-colouring) or not, edges shuffled and reoriented."""
    n = rng.randrange(3, 13)
    bipartite = rng.random() < 0.7
    side = [rng.randrange(2) for _ in range(n)]
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randrange(2 * n)):
        a, b = sorted(rng.sample(range(n), 2))
        if not (bipartite and side[a] == side[b]):
            edges.add((a, b))
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    return n, edges


def corrupt(n, edges, rng):
    """The same list with one fault that build_graph must refuse."""
    edges = list(edges)
    kind = rng.randrange(4)
    i = rng.randrange(len(edges))
    if kind == 0:
        edges.insert(i, (edges[i][1], edges[i][0]))  # reversed duplicate
    elif kind == 1:
        edges[i] = (edges[i][0], edges[i][0])  # self-loop
    elif kind == 2:
        edges[i] = (edges[i][0], rng.choice((n, n + 7, -1)))  # out of range
    else:
        n += 1  # an isolated vertex
    return n, edges


def test_fuzz_paths_agree():
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(FUZZ_GRAPHS):
        n, edges = random_connected(rng)
        flat, scalar = build_both(n, edges)
        assert_same_graph(flat, scalar)
        bad_n, bad_edges = corrupt(n, edges, rng)
        flat_bad, scalar_bad = build_both(bad_n, bad_edges)
        assert flat_bad is None and isinstance(scalar_bad, tuple)

        accepted += assert_same_theta(scalar, rng.randrange(n))
    # both outcomes are well represented
    assert FUZZ_GRAPHS // 5 < accepted < FUZZ_GRAPHS * 4 // 5


def test_large_input_builds_no_neighbor_maps():
    grid = gen_grid(120, 120)
    g = load_graph(save_graph(grid))
    assert g.m >= graph_mod.FLAT_MIN_EDGES and g == grid
    run_pipeline(g)
    assert "neighbors" not in vars(g)


def test_bfs_gives_the_scalar_distances(monkeypatch):
    # one numpy round per level while the levels are wide, Python steps once
    # they stay narrow; -1 where a vertex is unreached, here past the edges
    rounds = []
    ranges = flat._ranges

    def counted(first, lens):
        rounds.append(len(first))
        return ranges(first, lens)

    monkeypatch.setattr(flat, "_ranges", counted)

    def search(g, v0):
        """The distances from v0, and whether each level took a round."""
        rounds.clear()
        ends = np.array(g.edges, dtype=np.int64).reshape(-1)
        level = flat._bfs(g.n, flat._arcs(g.n, ends), v0)
        assert level.dtype == np.int32
        return level.tolist(), len(rounds) == level.max() + 1

    graphs = [gen_grid(1, k) for k in (1, 2, 7, 300)]
    graphs += [gen_grid(k, k) for k in (2, 5, 30)]
    graphs += [gen_tree(n, seed) for seed, n in enumerate((2, 50, 3000))]
    graphs += [cartesian_product(star(k), gen_grid(1, 2)) for k in (1, 9, 400)]
    graphs += [cartesian_product(gen_tree(9, 1), gen_tree(12, 2)),
               cartesian_product(gen_tree(40, 3), gen_tree(50, 4))]
    for g in graphs:
        apart = graph_mod.Graph(g.n + 2, g.edges)  # two isolated vertices
        for v0 in (0, g.n // 2, g.n - 1):
            assert search(g, v0)[0] == graph_mod.bfs(g, v0)
            assert search(apart, v0)[0] == graph_mod.bfs(apart, v0)
        assert search(apart, g.n + 1)[0] == graph_mod.bfs(apart, g.n + 1)

    for g, numpy_only in ((gen_grid(120, 120), True),
                          (gen_grid(2, 9000), False)):
        for v0 in (0, g.n // 2, g.n - 1):
            assert search(g, v0) == (graph_mod.bfs(g, v0), numpy_only)


def test_load_and_flat_theta_share_one_bfs(monkeypatch):
    # load_graph's connectivity check is flat theta's search from vertex 0;
    # other basepoints, and graphs built from pairs, search inside theta
    calls = []
    search = flat._bfs

    def counted(n, keys, v0):
        calls.append(v0)
        return search(n, keys, v0)

    monkeypatch.setattr(flat, "_bfs", counted)
    grid = gen_grid(120, 120)
    g = load_graph(save_graph(grid))
    assert calls == [0] and g.level0.dtype == np.int32
    result = run_pipeline(g)
    assert calls == [0] and "neighbors" not in vars(g)
    assert result.theta.arrays.level is g.level0
    assert compute_theta(g, 7).arrays is not None and calls == [0, 7]

    calls.clear()
    built = build_graph(grid.n, grid.edges)
    assert built.m >= graph_mod.FLAT_MIN_EDGES and calls == []
    assert compute_theta(built).arrays is not None and calls == [0]


def test_disconnected_large_text_is_refused_as_by_the_scalar_code(
        monkeypatch):
    # the header counts one vertex that no edge reaches: the flat BFS
    # refuses the text, and the line scanner names the fault
    grid = gen_grid(130, 130)
    text = save_graph(grid).replace(f"{grid.n} ", f"{grid.n + 1} ", 1)
    assert flat.load_graph(text) is None
    message = ("graph is disconnected: reached 16900 of 16901 vertices "
               "from vertex 0")
    errors = []
    for cut in (graph_mod.FLAT_MIN_EDGES, len(text)):  # flat, line scanner
        monkeypatch.setattr(graph_mod, "FLAT_MIN_EDGES", cut)
        with pytest.raises(graph_mod.GraphValidationError) as err:
            load_graph(text)
        errors.append((type(err.value), str(err.value)))
    assert errors == [(graph_mod.GraphValidationError, message)] * 2


def test_large_input_builds_no_edge_tuple():
    # flat theta keeps the parsed edge ends, not a copy; only == builds
    # the pairs. The index holds its record arrays under one name
    grid = gen_grid(120, 120)
    g = load_graph(save_graph(grid))
    assert g.ends is not None and g.m == grid.m
    result = run_pipeline(g)
    assert result.theta.arrays.ends is g.ends
    assert not hasattr(result.index, "arrays")
    assert "edges" not in vars(g)
    assert g == grid and g.edges == grid.edges


def test_refused_large_text_falls_back_to_the_scalar_code(tmp_path, capsys,
                                                         monkeypatch):
    # a 130 x 130 grid and a chord between vertices 2 and 131, both two
    # steps from vertex 0: flat theta refuses it, and the scalar code reads
    # the edge pairs, built from the ends, to name the fault
    grid = gen_grid(130, 130)
    edges = [*grid.edges, (2, 131)]
    text = save_graph(graph_mod.Graph(grid.n, tuple(edges)))
    g = load_graph(text)
    assert g.ends is not None and flat.compute_theta(g, 0) is None
    message = ("edge (2, 131) joins vertices at equal distance from the "
               "basepoint; graph is not bipartite")
    with pytest.raises(theta_mod.NonMedianGraphError) as flat_err:
        run_pipeline(g)
    with pytest.raises(theta_mod.NonMedianGraphError) as scalar_err:
        run_pipeline(build_graph(grid.n, edges))
    assert str(flat_err.value) == str(scalar_err.value) == message

    path = tmp_path / "chord.txt"
    path.write_text(text, encoding="utf-8")
    outputs = []
    for cut in (graph_mod.FLAT_MIN_EDGES, len(text)):  # flat, line scanner
        monkeypatch.setattr(graph_mod, "FLAT_MIN_EDGES", cut)
        assert cli.main(["check", str(path)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == (
        f"bipartite false\nmedian false\nrefused: {message}\n")


def test_large_input_builds_no_index_lists():
    # above the cut theta's indexes and the index's record lists are
    # views that no stage of an array run reads, counters included
    result = run_pipeline(gen_grid(120, 120))
    counters = result.counters
    assert counters["sweeps"] == "array"
    assert not {"dist0", "edge_class", "incident", "in_classes"} & \
        set(vars(result.theta))
    lists = ("order", "basis", "pof", "outgoing", "ingoing")
    assert not set(lists) & set(vars(result.index))
    # the views equal what the pair count reads from the arrays
    index = result.index
    assert counters["pairs"] == sum(
        (len(out) - 1) * (len(ins) - 1)
        for out, ins in zip(index.outgoing, index.ingoing))
    assert counters["records"] == len(index.pof) == len(index.basis)


def test_scaling_grids_take_the_flat_path(monkeypatch):
    # the grid sizes of test_criterion_6_near_linear_scaling
    flat_results = []
    flat_theta = flat.compute_theta

    def counted(g, v0):
        theta = flat_theta(g, v0)
        flat_results.append(theta is not None)
        return theta

    monkeypatch.setattr(flat, "compute_theta", counted)
    for n_target in (10_000, 20_000, 40_000, 80_000):
        p = max(1, int(n_target ** 0.5))
        theta_mod.compute_theta(gen_grid(p, (n_target + p - 1) // p))
    assert flat_results == [True] * 4


def test_generators_and_small_runs_leave_numpy_unloaded():
    # the cut keeps numpy's import and resident memory off every run up to
    # Q11; a generated grid, however large, is never re-validated on arrays
    code = ("import sys\n"
            "from medianecc import run_pipeline\n"
            "from medianecc.generators import gen_grid, gen_hypercube\n"
            "gen_grid(283, 283)\n"
            "run_pipeline(gen_hypercube(11))\n"
            "print('numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(graph_mod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == "False\n"


def walked(g, v0):
    """The scalar walk's outcome from v0 (an index, or the error's type and
    message), and the records of the array walk where it and the array
    link pass accept; None where flat theta refuses g."""
    flat_theta = flat.compute_theta(g, v0)
    if flat_theta is None:
        return None
    scalar = outcome(enumerate_cubes, g, theta_mod._theta_scalar(g, v0))
    records = flat_labels.walk(flat_theta)
    accepted = records is not None and flat_labels.links(records)
    return scalar, records if accepted else None


def assert_same_walk(g, v0):
    """Whether the scalar walk accepts (g, v0), after checking that the
    array walk and link pass agree, and give every record list."""
    found = walked(g, v0)
    if found is None:
        return False
    scalar, records = found
    if isinstance(scalar, tuple):
        assert records is None, f"array walk accepted, scalar raised {scalar}"
        return False
    assert records is not None, "array walk refused, scalar accepted"
    index = CubeIndex(g.n)
    index.records = records
    for name in ("order", "basis", "pof", "outgoing", "ingoing"):
        assert getattr(index, name) == getattr(scalar, name), name
    assert len(index) == len(scalar)
    assert records.size.tolist() == [len(p) for p in scalar.pof]
    assert len({id(p) for p in index.pof}) == g.n  # shared, as the scalar's
    return True


def test_walk_paths_agree(small_corpus):
    # corpus() holds Q1..Q8
    for g in corpus() + [g for _, g in small_corpus]:
        for v0 in sorted({0, g.n // 2, g.n - 1}):
            assert_same_walk(g, v0)


def test_walk_refusals_agree():
    # random graphs, and median graphs less a vertex or an edge, most of
    # which theta passes and the link pass refuses; then every accepted
    # input again with one class added to a vertex's ingoing classes,
    # which both walks refuse with the scalar walk's message
    rng = random.Random(20261019)
    draws = [(g, v0) for _, g, v0 in near_median_graphs(19, 1000)]
    for _ in range(FUZZ_GRAPHS):
        n, edges = random_connected(rng)
        draws.append((build_graph(n, edges), rng.randrange(n)))
    verdicts = []
    for g, v0 in draws:
        if walked(g, v0) is None:
            continue
        verdicts.append(assert_same_walk(g, v0))
        if not verdicts[-1]:
            continue
        scalar, flat_theta = compute_theta(g, v0), flat.compute_theta(g, v0)
        absent = [(v, c) for v, inc in enumerate(scalar.in_classes)
                  for c in range(scalar.q) if c not in inc]
        if not absent:
            continue
        v, c = rng.choice(absent)
        ins = list(scalar.in_classes)
        ins[v] = tuple(sorted(ins[v] + (c,)))
        broken = doctored(scalar, tuple(ins))
        message = outcome(enumerate_cubes, g, broken)
        assert message[0] is theta_mod.NonMedianGraphError, message
        assert flat_labels.walk(doctored(flat_theta, tuple(ins))) is None
        assert outcome(enumerate_cubes, g,
                       doctored(flat_theta, tuple(ins))) == message
    # both outcomes are well represented
    assert 100 < verdicts.count(False) and 100 < verdicts.count(True)


def star(m):
    return build_graph(m + 1, [(0, v) for v in range(1, m + 1)])


def best_of_3(fn):
    times = []
    for _ in range(3):
        t = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t)
    return out, min(times)


@pytest.mark.parametrize("make, v0", [
    pytest.param(lambda: cartesian_product(star(40_000), gen_grid(1, 2)), v0,
                 id=f"star_x_edge-v0={v0}") for v0 in (0, 1)] + [
    pytest.param(lambda: cartesian_product(star(200), star(200)), 0,
                 id="star_x_star")])
def test_hub_link_pass(make, v0):
    # K_1,40000 x K_2 has two hubs of 40,001 classes; the centre of
    # K_1,200 x K_1,200 has the link K_200,200, 40,000 squares and no
    # triangle. The array pass accepts as the scalar one does, no slower
    g = make()
    scalar_theta = theta_mod._theta_scalar(g, v0)
    index = enumerate_cubes(g, scalar_theta)
    records = flat_labels.walk(flat.compute_theta(g, v0))
    accepted, array_s = best_of_3(lambda: flat_labels.links(records))
    refused, scalar_s = best_of_3(lambda: cubes._check_links(index,
                                                             scalar_theta))
    assert accepted is True and refused is None
    assert array_s <= scalar_s, (array_s, scalar_s)


def test_records_preflight():
    # Q14's 3^14 records are refused from theta's ingoing counts, before
    # the walk allocates any; Q13's 3^13 fit the budget. One run is timed,
    # another traced for its peak allocation
    assert 3 ** 13 <= cubes.MAX_RECORDS < 3 ** 14
    q14 = gen_hypercube(14)
    message = ("^the cube walk would emit 4,782,969 records, above the "
               "budget of 4,194,304$")
    t = time.perf_counter()
    with pytest.raises(MemoryError, match=message):
        run_pipeline(q14)
    elapsed = time.perf_counter() - t
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=message):
            run_pipeline(q14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 100 << 20, (elapsed, peak)


def test_records_preflight_on_the_scalar_path(monkeypatch):
    monkeypatch.setattr(cubes, "MAX_RECORDS", 26)
    g = gen_hypercube(3)
    with pytest.raises(MemoryError, match="emit 27 records, above the "
                                          "budget of 26$"):
        enumerate_cubes(g, compute_theta(g))
    monkeypatch.setattr(cubes, "MAX_RECORDS", 27)
    assert len(enumerate_cubes(g, compute_theta(g))) == 27
