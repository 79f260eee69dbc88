from __future__ import annotations

from pathlib import Path

import pytest

from medianecc import save_graph
from medianecc.generators import fixture
from medianecc.cli import main

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


def test_diam_output(hstar_file, capsys):
    assert main(["diam", hstar_file]) == 0
    assert "diameter 6" in capsys.readouterr().out


def test_theta_output(gstar_file, capsys):
    assert main(["theta", gstar_file]) == 0
    out = capsys.readouterr().out
    assert "q 3" in out
    assert "euler_check 2" in out


def test_cubes_output(gstar_file, capsys):
    assert main(["cubes", gstar_file]) == 0
    out = capsys.readouterr().out
    assert "records 11" in out
    assert "distinct_pofs 5 n 5 ok" in out
    assert "MISMATCH" not in out


def test_phi_dump(gstar_file, capsys):
    assert main(["phi", gstar_file, "--dump"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    assert all(len(line.split()) == 4 for line in lines)


def test_check_output(gstar_file, capsys):
    assert main(["check", gstar_file]) == 0
    out = capsys.readouterr().out
    assert "bipartite true" in out
    assert "median true" in out
    assert "euler_check 2" in out


def test_check_reports_non_median(tmp_path, capsys):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "median false" in out
    assert "theta failed" in out


def test_check_reports_odd_cycle_as_not_bipartite(tmp_path, capsys):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bipartite false" in out
    assert "median false" in out


@pytest.mark.parametrize("exc, line", [
    # numpy reports a distance matrix that does not fit as a MemoryError
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

    monkeypatch.setattr("medianecc.oracle.dijkstra", no_memory)
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
    assert main(["diam", str(out)]) == 0
    assert "diameter 7" in capsys.readouterr().out

    for kind, extra in [("tree", ["--n", "30"]),
                        ("cube", ["--k", "3"]),
                        ("product", ["--n", "5", "--q", "6"]),
                        ("expand", ["--steps", "8", "--max-n", "80"])]:
        assert main(["gen", "--kind", kind, "--seed", "3",
                     "--out", str(out)] + extra) == 0
        assert main(["check", str(out)]) == 0
        assert "median true" in capsys.readouterr().out


def test_bench_csv_format(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--kind", "grid", "--sizes", "100,200",
                 "--csv", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("size,d,time_theta,time_cubes,time_phi,"
                        "time_opposites,time_psi,time_ecc,total")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 100 and int(first[1]) == 2
    for row in lines[1:]:
        times = [float(x) for x in row.split(",")[2:]]
        # seven fields, each rounded to 6 decimals
        assert abs(sum(times[:-1]) - times[-1]) <= 7 * 0.5e-6 + 1e-9, row


def test_bench_doubling_range(capsys):
    assert main(["bench", "--kind", "grid", "--sizes", "64..256"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    sizes = [int(row.split(",")[0]) for row in lines[1:]]
    # grids round the target up to the nearest p*q factorization
    assert len(sizes) == 3
    for got, target in zip(sizes, (64, 128, 256)):
        assert target <= got <= target * 1.1


@pytest.mark.parametrize("sizes", ["0..10", "-4..10", "100,0"])
def test_bench_non_positive_sizes_are_usage_errors(sizes, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", f"--sizes={sizes}"])
    assert exc.value.code == 2
    assert "sizes must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, message", [
    ("inf", "sizes must be finite"), ("1e400", "sizes must be finite"),
    ("1..inf", "sizes must be finite"), ("10..5", "no sizes in '10..5'")])
def test_bench_infinite_or_empty_sizes_are_usage_errors(sizes, message,
                                                        capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench", f"--sizes={sizes}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_missing_file_is_input_error(capsys):
    assert main(["ecc", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\n", encoding="utf-8")
    assert main(["ecc", str(path)]) == 1
    err = capsys.readouterr().err
    assert "self-loop" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_golden_outputs_replay_byte_for_byte(tmp_path, capsys):
    cases = sorted(p.stem for p in GOLDEN.glob("*.txt"))
    assert len(cases) == 8
    for case in cases:
        graph = str(GOLDEN / f"{case}.txt")
        csv = tmp_path / f"{case}.csv"
        for cmd, extra in [("theta", []), ("cubes", []), ("phi", ["--dump"]),
                           ("diam", []), ("ecc", ["--csv", str(csv)])]:
            assert main([cmd, graph] + extra) == 0
            want = (GOLDEN / f"{case}.{cmd}.out").read_bytes()
            assert capsys.readouterr().out.encode() == want, (case, cmd)
        assert csv.read_bytes() == (GOLDEN / f"{case}.ecc.csv").read_bytes()
