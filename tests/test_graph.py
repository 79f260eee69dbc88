from __future__ import annotations

import random

import pytest

from medianecc import (GraphFormatError, GraphValidationError, bfs,
                       build_graph, load_graph, save_graph)
from medianecc.generators import fixture, gen_grid, gen_hypercube


def test_load_single_edge():
    g = load_graph("2 1\n0 1")
    assert g.n == 2 and g.m == 1
    assert g.edges == ((0, 1),)


def test_load_path():
    g = load_graph("3 2\n0 1\n1 2")
    assert g.n == 3 and g.m == 2
    assert list(g.neighbors[1]) == [0, 2]


def test_load_gstar_matches_fixture():
    g = load_graph("5 5\n0 1\n0 2\n1 3\n2 3\n3 4")
    assert g == fixture("gstar")


def test_load_comments_and_blank_lines():
    text = "# a square\n\n4 4\n0 1\n# middle comment\n1 2\n2 3\n\n0 3\n"
    g = load_graph(text)
    assert g.n == 4 and g.m == 4


def test_roundtrip_is_bit_exact():
    for name in ("gstar", "hstar", "fig3", "cogwheel", "fig2c"):
        g = fixture(name)
        text = save_graph(g)
        assert load_graph(text) == g
        assert save_graph(load_graph(text)) == text


@pytest.mark.parametrize("text,fragment,line", [
    ("nonsense", "header", 1),
    ("2", "header", 1),
    ("2 a\n0 1", "non-integer", 1),
    ("2 1\n0", "edge", 2),
    ("2 1\n0 x", "non-integer", 2),
    ("2 2\n0 1\n0 1\n1 0", "more than the declared", 4),
])
def test_format_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(GraphFormatError) as err:
        load_graph(text)
    assert fragment in str(err.value)
    assert f"line {line}" in str(err.value)


def test_missing_edges_is_an_error():
    with pytest.raises(GraphFormatError, match="declares 3 edges but 1"):
        load_graph("3 3\n0 1")


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n0 0", "self-loop"),
    ("2 2\n0 1\n1 0", "duplicate edge"),
    ("3 1\n0 2", "disconnected"),
    # refused from the edge count, before any adjacency is allocated
    ("200000 1\n0 1", "disconnected: 1 edges cannot connect 200000"),
    ("2 1\n0 5", "outside"),
])
def test_validation_errors(text, fragment):
    with pytest.raises(GraphValidationError, match=fragment):
        load_graph(text)


def test_bfs_path():
    g = load_graph("3 2\n0 1\n1 2")
    assert bfs(g, 0) == [0, 1, 2]


def test_bfs_gstar_pendant_to_far_corner():
    g = fixture("gstar")
    assert bfs(g, 4)[0] == 3


def test_bfs_hypercube_max_is_dimension():
    g = gen_hypercube(3)
    for src in range(g.n):
        assert max(bfs(g, src)) == 3


def test_bfs_source_out_of_range():
    with pytest.raises(ValueError):
        bfs(fixture("gstar"), 9)


def test_bfs_parity_across_edges(small_corpus):
    for _, g in small_corpus:
        dist = bfs(g, 0)
        for u, v in g.edges:
            assert abs(dist[u] - dist[v]) == 1


def test_bfs_metric_symmetry_and_triangle():
    rng = random.Random(7)
    triangle_graph = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    for g in (fixture("hstar"), gen_grid(4, 5), triangle_graph, c6):
        rows = {v: bfs(g, v) for v in range(g.n)}
        for _ in range(30):
            x, y, z = (rng.randrange(g.n) for _ in range(3))
            assert rows[x][y] == rows[y][x]
            assert rows[x][z] <= rows[x][y] + rows[y][z]


def test_edge_helpers():
    g = fixture("gstar")
    eid = g.neighbors[3][4]
    assert g.edges[eid] in {(3, 4), (4, 3)}
    assert g.other_endpoint(eid, 3) == 4
    with pytest.raises(KeyError):
        g.neighbors[0][4]


def test_single_vertex_graph():
    g = load_graph("1 0")
    assert g.n == 1 and g.m == 0
    assert bfs(g, 0) == [0]
