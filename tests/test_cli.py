from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from medianecc import build_graph, load_graph, save_graph
from medianecc import cli
from medianecc import graph as graph_mod
from medianecc import theta as theta_mod
from medianecc.generators import (cartesian_product, fixture, gen_grid,
                                  gen_hypercube)
from medianecc.cli import main
from medianecc.graph import FLAT_MIN_EDGES

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def gstar_file(tmp_path):
    path = tmp_path / "gstar.txt"
    path.write_text(save_graph(fixture("gstar")), encoding="utf-8")
    return str(path)


@pytest.fixture()
def hstar_file(tmp_path):
    path = tmp_path / "hstar.txt"
    path.write_text(save_graph(fixture("hstar")), encoding="utf-8")
    return str(path)


@pytest.fixture()
def bfs_calls(monkeypatch):
    """The sources of the searches the CLI runs itself, in call order."""
    calls = []
    real_bfs = cli.bfs

    def counted(g, source):
        calls.append(source)
        return real_bfs(g, source)

    monkeypatch.setattr(cli, "bfs", counted)
    return calls


def test_ecc_output(gstar_file, capsys):
    assert main(["ecc", gstar_file]) == 0
    out = capsys.readouterr().out
    assert "diameter 3 radius 2" in out
    assert "center 1" in out
    assert "diametral pair 0 4" in out


def test_ecc_csv(gstar_file, tmp_path, capsys):
    out_csv = tmp_path / "ecc.csv"
    assert main(["ecc", gstar_file, "--csv", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "vertex,ecc,witness"
    assert lines[1] == "0,3,4"
    assert len(lines) == 6


def test_sweep_output(gstar_file, hstar_file, capsys):
    assert main(["sweep", gstar_file, "--k", "2", "--start", "1"]) == 0
    assert "distance 2 pair 2 1" in capsys.readouterr().out
    assert main(["sweep", hstar_file, "--k", "4", "--start", "0"]) == 0
    assert "distance 5" in capsys.readouterr().out


def test_sweep_bad_start(gstar_file, capsys):
    assert main(["sweep", gstar_file, "--start", "99"]) == 1
    assert capsys.readouterr().err == "error: source 99 out of range 0..4\n"


def test_phi_dump(gstar_file, capsys):
    assert main(["phi", gstar_file]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(len(line.split()) == 4 for line in lines)


def test_check_output(gstar_file, capsys, bfs_calls):
    assert main(["check", gstar_file]) == 0
    out = capsys.readouterr().out
    assert "bipartite true" in out
    assert "median true" in out
    assert "q 3" in out
    assert "euler_check 2" in out
    assert "records 11" in out
    assert "distinct_pofs 5 n 5 ok" in out
    assert "MISMATCH" not in out
    # theta's acceptance is the bipartite verdict; no search of its own
    assert bfs_calls == []


def test_check_reports_non_median(tmp_path, capsys, bfs_calls):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    # theta refuses a bipartite graph here, so one search decides it
    assert bfs_calls == [0]
    assert "bipartite true" in out
    assert "median false" in out
    assert "refused: ingoing edges of vertex 3 through 2 and 4 close no " \
        "square" in out


def test_check_refuses_an_unfilled_link_above_128_vertices(tmp_path, capsys):
    # Q3 minus a vertex, times a path: theta passes from vertex 0 and only
    # the link check refuses, at the corner whose three squares have lost
    # their 3-cube
    q3 = gen_hypercube(3)
    g = cartesian_product(build_graph(7, [e for e in q3.edges if 7 not in e]),
                          gen_grid(1, 19))
    assert g.n == 133
    path = tmp_path / "q3_minus_x_path.txt"
    path.write_text(save_graph(g), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "bipartite true", "q 21",
        "class_sizes " + ",".join(["7"] * 18 + ["57"] * 3),
        "euler_check -52", "median false",
        "refused: classes 18, 19 and 20 pairwise span squares at vertex 0 "
        "but no 3-cube (the link of 0 is not flag)"]


def test_check_is_exact_on_the_readme_grid(tmp_path, capsys, bfs_calls):
    # 40,000 vertices, with no budget and no sampling
    path = str(tmp_path / "grid.txt")
    assert main(["gen", "--kind", "grid", "--p", "200", "--q", "200",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["check", path]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "bipartite true", "q 398", "class_sizes " + ",".join(["200"] * 398),
        "euler_check 2", "d 2", "records 159201", "beta 1,398,39601",
        "distinct_pofs 40000 n 40000 ok",
        "weighted_sum 159201 records 159201 ok",
        "records 159201 bound 160000 ok", "median true"]
    assert bfs_calls == []


def test_check_is_the_same_from_every_basepoint(small_corpus, tmp_path,
                                                capsys):
    # classes, beta and the record count are invariants of the graph
    rng = random.Random(5)
    graphs = small_corpus + [(p.stem, load_graph(p.read_text()))
                             for p in sorted(GOLDEN.glob("*.txt"))]
    for name, g in graphs:
        path = tmp_path / "g.txt"
        path.write_text(save_graph(g), encoding="utf-8")
        outs = set()
        for v0 in (0, g.n // 2, g.n - 1, rng.randrange(g.n)):
            assert main(["check", str(path), "--v0", str(v0)]) == 0
            outs.add(capsys.readouterr().out)
        assert len(outs) == 1 and "median true" in outs.pop(), name


def test_phi_above_the_edge_cut(tmp_path, capsys, monkeypatch):
    # the array label path, read through the CubeIndex views, equals the
    # scalar path on the same text
    g = gen_grid(130, 130)
    assert g.m >= FLAT_MIN_EDGES
    text = save_graph(g)
    path = tmp_path / "grid.txt"
    path.write_text(text, encoding="utf-8")
    arrays = []
    real_enumerate = cli.enumerate_cubes

    def spied(g, theta):
        index = real_enumerate(g, theta)
        arrays.append(index.records is not None)
        return index

    monkeypatch.setattr(cli, "enumerate_cubes", spied)
    outs = []
    for cut in (FLAT_MIN_EDGES, len(text)):  # arrays, then scalar
        monkeypatch.setattr(graph_mod, "FLAT_MIN_EDGES", cut)
        monkeypatch.setattr(theta_mod, "FLAT_MIN_EDGES", cut)
        assert main(["phi", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert arrays == [True, False]
    assert outs[0] == outs[1]
    assert outs[0].count("\n") == 130 * 130 + g.m + 129 * 129


def test_check_reports_odd_cycle_as_not_bipartite(tmp_path, capsys,
                                                  bfs_calls):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert bfs_calls == [0]
    assert "bipartite false" in out
    assert "median false" in out


def test_check_basepoint_out_of_range_prints_only_the_error(gstar_file,
                                                            capsys):
    assert main(["check", gstar_file, "--v0", "9"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: basepoint 9 out of range 0..4\n")


@pytest.mark.parametrize("exc, line", [
    # numpy's wording for an array that does not fit
    (MemoryError("Unable to allocate 11.9 GiB for an array with shape "
                 "(40000, 40000) and data type float64"),
     "error: Unable to allocate 11.9 GiB for an array with shape "
     "(40000, 40000) and data type float64\n"),
    # the interpreter raises it without a message
    (MemoryError(), "error: MemoryError\n"),
])
def test_check_out_of_memory_is_an_error_line(gstar_file, capsys,
                                              monkeypatch, exc, line):
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr("medianecc.cli.enumerate_cubes", no_memory)
    assert main(["check", gstar_file]) == 1
    assert capsys.readouterr().err == line


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "fixture", "--name", "hstar",
                 "--out", str(out)]) == 0
    assert main(["ecc", str(out)]) == 0
    assert "diameter 6" in capsys.readouterr().out

    assert main(["gen", "--kind", "grid", "--p", "4", "--q", "5",
                 "--out", str(out)]) == 0
    assert main(["ecc", str(out)]) == 0
    assert "diameter 7" in capsys.readouterr().out

    for kind, extra in [("tree", ["--n", "30"]),
                        ("cube", ["--k", "3"]),
                        ("product", ["--n", "5", "--q", "6"]),
                        ("expand", ["--steps", "8", "--max-n", "80"])]:
        assert main(["gen", "--kind", kind, "--seed", "3",
                     "--out", str(out)] + extra) == 0
        assert main(["check", str(out)]) == 0
        assert "median true" in capsys.readouterr().out


def test_missing_file_is_input_error(capsys):
    assert main(["ecc", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n", encoding="utf-8")
    assert main(["ecc", str(path)]) == 1
    err = capsys.readouterr().err
    assert "self-loop" in err


def test_usage_error_exits_2(gstar_file):
    # unknown subcommands and options
    for argv in (["frobnicate"], ["theta", gstar_file], ["cubes", gstar_file],
                 ["diam", gstar_file], ["phi", gstar_file, "--dump"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_golden_outputs_replay_byte_for_byte(tmp_path, capsys):
    cases = sorted(p.stem for p in GOLDEN.glob("*.txt"))
    assert len(cases) == 8
    for case in cases:
        graph = str(GOLDEN / f"{case}.txt")
        csv = tmp_path / f"{case}.csv"
        for cmd, extra in [("check", []), ("phi", []),
                           ("ecc", ["--csv", str(csv)])]:
            assert main([cmd, graph] + extra) == 0
            want = (GOLDEN / f"{case}.{cmd}.out").read_bytes()
            assert capsys.readouterr().out.encode() == want, (case, cmd)
        assert csv.read_bytes() == (GOLDEN / f"{case}.ecc.csv").read_bytes()


def test_package_and_cli_run_without_scipy(tmp_path):
    # scipy is a test dependency: the package, the pipeline on both sides
    # of the edge cut and the check and ecc commands never import it
    small, large = gen_grid(5, 5), gen_grid(100, 100)
    assert small.m < FLAT_MIN_EDGES <= large.m
    for name, g in (("small", small), ("large", large)):
        (tmp_path / f"{name}.txt").write_text(save_graph(g), encoding="utf-8")
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from medianecc import load_graph, run_pipeline\n"
            "from medianecc.cli import main\n"
            "for name in ('small', 'large'):\n"
            "    with open(name + '.txt', encoding='utf-8') as f:\n"
            "        result = run_pipeline(load_graph(f.read()))\n"
            "    print(result.counters['sweeps'], result.report.diameter)\n"
            "    assert main(['check', name + '.txt']) == 0\n"
            "    assert main(['ecc', name + '.txt']) == 0\n"
            "print('oracle loaded', 'medianecc.oracle' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=300).stdout.splitlines()
    assert out[0] == "scalar 8" and "array 198" in out, out
    assert out.count("median true") == 2, out
    assert "diameter 8 radius 4" in out and "diameter 198 radius 100" in out
    assert out[-1] == "oracle loaded False", out
