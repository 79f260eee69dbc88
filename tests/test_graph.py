from __future__ import annotations

import random

import pytest

from medianecc import (Graph, GraphFormatError, GraphValidationError, bfs,
                       build_graph, flat, load_graph, save_graph)
from medianecc import graph as graph_mod
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


PATH = "3 2\n0 1\n1 2\n"
P3 = (3, ((0, 1), (1, 2)))
COMMENTED = "# c\n3 2\n  # indented\n0 1\n#x\n1 2\n"
CRLF = PATH.replace("\n", "\r\n")
PLUS = "3 2\n0 +1\n+1 2\n"
FULL_WIDTH = "\uff13 \uff12\n\uff10 \uff11\n\uff11 \uff12\n"  # digits
NO_BREAK = "3 2\n0\u00a01\n1 2\n"  # a no-break space between ids
# valid texts that the flat parser leaves to the line scanner
SCANNER_ONLY = {COMMENTED, CRLF, PLUS, FULL_WIDTH, NO_BREAK}


@pytest.mark.parametrize("text,expected", [
    (COMMENTED, P3),
    ("\n3 2\n\n   \n0 1\n\n1 2\n\n", P3),
    (CRLF, P3),
    ("3\t2\n0\t1\n1\t\t2\n", P3),
    ("  3 2  \n 0 1\n1 2   \n", P3),
    ("3 2\n0 1 # first\n1 2\n",
     (GraphFormatError, 2, "line 2: expected edge 'u v', got '0 1 # first'")),
    (PLUS, P3),
    ("3 2\n0 1.0\n1 2\n",
     (GraphFormatError, 2, "line 2: non-integer vertex id in '0 1.0'")),
    ("3 2\n0 1e3\n1 2\n",
     (GraphFormatError, 2, "line 2: non-integer vertex id in '0 1e3'")),
    ("3 2\n0 99999999999999999999\n1 2\n",
     (GraphValidationError, 2, "line 2: edge (0, 99999999999999999999) "
      "has a vertex id outside 0..2")),
    ("2 1\n1 0\n", (2, ((1, 0),))),
    ("3 2 1\n0 1\n1 2\n",
     (GraphFormatError, 1, "line 1: expected header 'n m', got '3 2 1'")),
    ("3 -2\n", (GraphFormatError, 1, "line 1: negative edge count -2")),
    ("3 1\n0 1\n1 2\n",
     (GraphFormatError, 3, "line 3: more than the declared 1 edges")),
    ("3 2\n0 1\n",
     (GraphFormatError, None, "header declares 2 edges but 1 were given")),
    ("3 3\n0 1\n1 2\n1 0\n",
     (GraphValidationError, 4, "line 4: duplicate edge (1, 0)")),
    (FULL_WIDTH, P3),
    (NO_BREAK, P3),
])
@pytest.mark.parametrize("path", ["default", "flat-first"])
def test_input_language(text, expected, path, monkeypatch):
    """What load_graph accepts, as the graph it gives or the error it
    raises; "flat-first" lowers the cut so every text tries the flat
    parser, whose refusals fall back to the line scanner. The flat parser
    itself must give the graph of every valid text but SCANNER_ONLY, and
    None for the rest."""
    if path == "flat-first":
        monkeypatch.setattr(graph_mod, "FLAT_MIN_EDGES", 0)
        direct = flat.load_graph(text)
        if isinstance(expected[0], int) and text not in SCANNER_ONLY:
            assert direct == Graph(*expected)
        else:
            assert direct is None
    if isinstance(expected[0], int):
        g = load_graph(text)
        assert (g.n, g.edges) == expected
        return
    error, line, message = expected
    with pytest.raises(error) as err:
        load_graph(text)
    assert type(err.value) is error
    assert (err.value.line, str(err.value)) == (line, message)


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
    with pytest.raises(KeyError):
        g.neighbors[0][4]


def test_single_vertex_graph():
    g = load_graph("1 0")
    assert g.n == 1 and g.m == 0
    assert bfs(g, 0) == [0]
