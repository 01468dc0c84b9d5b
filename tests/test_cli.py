import json
import math

import numpy as np
import pytest

from delone.cli import main
from delone.generators import PointSetWindow


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_gen_lattice_point_count(tmp_path, capsys):
    out = str(tmp_path / "lat.pts")
    code, stdout, _ = run(capsys, "gen", "lattice", "--d", "2", "--W", "10",
                          "--out", out)
    assert code == 0
    summary = last_json(stdout)
    assert summary["n_points"] == 317
    assert summary["delone_ok"] is True
    assert PointSetWindow.load(out).n_points == 317


def test_gen_unknown_kind_fails_with_json_error(tmp_path, capsys):
    code, _, err = run(capsys, "density", str(tmp_path / "missing.json"),
                       "--F", "AREA", "--alpha-min", "1", "--alpha-max", "2")
    assert code == 1
    payload = json.loads(err.strip())
    assert "error" in payload and "message" in payload


def test_tri_and_density_roundtrip(tmp_path, capsys):
    pts = str(tmp_path / "w.pts")
    code, stdout, _ = run(capsys, "gen", "lattice", "--W", "12", "--jitter",
                          "--seed", "3", "--out", pts)
    assert code == 0
    tri = str(tmp_path / "w.tri.json")
    code, stdout, _ = run(capsys, "tri", pts, "--out", tri)
    assert code == 0
    cells = last_json(stdout)["cells"]
    assert cells > 100

    csv_path = str(tmp_path / "dens.csv")
    code, stdout, _ = run(
        capsys, "density", tri, "--F", "AREA", "--alpha-min", "4",
        "--alpha-max", "9", "--ratio", "1.2", "--window-radius", "12",
        "--q-bound", "0.8", "--out", csv_path,
    )
    assert code == 0
    lines = open(csv_path).read().splitlines()
    assert lines[0].startswith("alpha,cells_vertexrule")
    assert len(lines) > 3
    manifest = json.loads(open(csv_path + ".manifest.json").read())
    assert manifest["schema"] == 1 and manifest["command"] == "density"


def test_density_rerun_byte_identical(tmp_path, capsys):
    pts = str(tmp_path / "w.pts")
    run(capsys, "gen", "lattice", "--W", "10", "--jitter", "--seed", "5",
        "--out", pts)
    tri = str(tmp_path / "w.tri.json")
    run(capsys, "tri", pts, "--out", tri)
    outs = []
    for name in ("a.csv", "b.csv"):
        path = str(tmp_path / name)
        code, _, _ = run(capsys, "density", tri, "--F", "F5", "--alpha-min",
                         "3", "--alpha-max", "7", "--window-radius", "10",
                         "--q-bound", "0.8", "--out", path)
        assert code == 0
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]


def test_legalize_flow(tmp_path, capsys):
    from delone.delaunay import delaunay_2d
    from delone.triangulation import is_locally_delaunay, reverse_flip

    rng = np.random.default_rng(12)
    cx = delaunay_2d(rng.uniform(size=(18, 2)) * 5).copy()
    flipped = 0
    for facet in list(cx.interior_facets()):
        if flipped >= 4:
            break
        try:
            if is_locally_delaunay(cx, facet):
                reverse_flip(cx, facet)
                flipped += 1
        except Exception:
            continue
    src = tmp_path / "scrambled.json"
    src.write_text(cx.to_json())
    out = str(tmp_path / "legal.json")
    code, stdout, _ = run(capsys, "tri", "--legalize", str(src), "--out", out)
    assert code == 0
    assert last_json(stdout)["flips"] >= flipped
    log = json.loads(open(out + ".fliplog.json").read())
    for entry in log["flips"]:
        assert entry["after"] <= entry["before"] + 1e-9


def test_flipcheck_cli(tmp_path, capsys):
    out = str(tmp_path / "fc.json")
    code, stdout, _ = run(capsys, "flipcheck", "--F", "F5", "--trials", "40",
                          "--seed", "1", "--out", out)
    assert code == 0
    assert last_json(stdout)["violations"] == 0
    report = json.loads(open(out).read())
    assert report["trials"] == 40 and report["passed"] is True


def test_flipcheck_threads_env(tmp_path, capsys, monkeypatch):
    results = []
    for workers in ("1", "2"):
        monkeypatch.setenv("DELONE_THREADS", workers)
        out = str(tmp_path / f"fc{workers}.json")
        code, stdout, _ = run(capsys, "flipcheck", "--F", "F1:c1=1",
                              "--trials", "30", "--seed", "2", "--out", out)
        assert code == 0
        assert last_json(stdout)["passed"] is True
        results.append(json.loads(open(out).read()))
    assert results[0] == results[1]  # worker count must not change the trials


@pytest.mark.parametrize("value, cpus, tasks, workers", [
    (None, 8, 100, 1), ("1", 8, 100, 1), ("3", 8, 100, 3), ("500", 4, 1000, 4),
    ("500", None, 1000, 1), ("6", 8, 2, 2), (" 2 ", 8, 100, 2),
])
def test_worker_count_is_capped(monkeypatch, value, cpus, tasks, workers):
    from delone import cli

    if value is None:
        monkeypatch.delenv("DELONE_THREADS", raising=False)
    else:
        monkeypatch.setenv("DELONE_THREADS", value)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli.worker_count(tasks) == workers


@pytest.mark.parametrize("value", ["0", "-2", "2.5", "two", "", "\u00b2"])
def test_worker_count_rejects_non_positive_integers(monkeypatch, value):
    from delone import cli

    monkeypatch.setenv("DELONE_THREADS", value)
    with pytest.raises(ValueError, match="DELONE_THREADS must be a positive integer"):
        cli.worker_count(100)


def test_flipcheck_bad_threads_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELONE_THREADS", "many")
    code, _, err = run(capsys, "flipcheck", "--F", "F5", "--trials", "5",
                       "--out", str(tmp_path / "fc.json"))
    assert code == 1
    assert json.loads(err.strip())["error"] == "ValueError"


@pytest.mark.parametrize("trials, workers, chunks", [
    (10, 1, [(0, 10)]), (10, 3, [(0, 4), (4, 4), (8, 2)]),
    (10, 4, [(0, 3), (3, 3), (6, 3), (9, 1)]), (4, 3, [(0, 2), (2, 2)]),
    (2, 2, [(0, 1), (1, 1)]),
])
def test_trial_chunks_cover_the_trials_once(trials, workers, chunks):
    from delone.cli import _trial_chunks

    assert _trial_chunks(trials, workers) == chunks


def test_trial_chunks_reject_no_trials():
    from delone.cli import _trial_chunks

    with pytest.raises(ValueError, match="trials must be positive"):
        _trial_chunks(0, 1)


def test_gcheck_cli(tmp_path, capsys):
    out = str(tmp_path / "gc.json")
    code, stdout, _ = run(capsys, "gcheck", "--F", "FE", "--trials", "8",
                          "--n", "5..7", "--seed", "3", "--out", out)
    assert code == 0
    assert last_json(stdout)["violations"] == 0


def test_strips_cli(tmp_path, capsys):
    out = str(tmp_path / "strips.csv")
    code, stdout, _ = run(
        capsys, "strips", "--F", "F1:c1=1", "--blocks", "4",
        "--a", "1", "--phi", repr(math.pi / 6),
        "--c", "1.6", "--psi", repr(math.pi / 5), "--out", out,
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["verdict"] == "PASS"
    assert len(open(out).read().splitlines()) == 5


def test_cube3d_cli(tmp_path, capsys):
    out = str(tmp_path / "cube.csv")
    code, stdout, _ = run(capsys, "cube3d", "--window", "4", "--out", out)
    assert code == 0
    summary = last_json(stdout)
    assert summary["all_seven"] is True
    assert summary["tent_volume_max_error"] < 1e-9
    # CSV cells must be plain round-trip decimals
    lines = open(out).read().splitlines()
    assert len(lines) == summary["interior_cubes"] + 1
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 8
        assert repr(float(cells[4])) == cells[4]
        assert float(cells[4]) == pytest.approx(float(cells[6]), abs=1e-9)


def test_counts_cli(tmp_path, capsys):
    pts = str(tmp_path / "w.pts")
    run(capsys, "gen", "lattice", "--W", "14", "--jitter", "--seed", "9",
        "--out", pts)
    out = str(tmp_path / "counts.json")
    code, stdout, _ = run(capsys, "counts", pts, "--out", out)
    assert code == 0
    assert last_json(stdout)["ok"] is True


def test_compare_cli(tmp_path, capsys):
    pts = str(tmp_path / "w.pts")
    run(capsys, "gen", "lattice", "--W", "16", "--jitter", "--seed", "4",
        "--out", pts)
    out = str(tmp_path / "cmp.csv")
    code, stdout, _ = run(capsys, "compare", pts, "--F", "F5",
                          "--reverse-flips", "8", "--seed", "4",
                          "--alpha-min", "5", "--alpha-max", "11",
                          "--out", out)
    assert code == 0
    assert last_json(stdout)["passed"] is True


ORACLE_POINTS = """\
2 0.01 2.0 2.0
0.25714040553839923 0.9985557248802299
1.202996715246715 0.05737801674388909
0.29585216915491186 1.856422045920739
0.14084115230839367 0.25954789879859597
1.8966569065835501 1.2437671855927657
0.737986247459582 1.0227800436065253
1.3256859050335985 0.5506176315222586
"""


@pytest.mark.parametrize("spec, want", [
    ("F5", '{"schema": 1, "n_triangulations": 19, "best_sum": 6.687882644190788, '
           '"ties": 1, "argmin_is_delaunay": true, "argmin_cells": [[0, 2, 3], '
           '[0, 2, 5], [0, 3, 5], [1, 3, 5], [1, 4, 6], [1, 5, 6], [2, 4, 5], [4, 5, 6]]}'),
    ("AREA", '{"schema": 1, "n_triangulations": 19, "best_sum": 2.025809503618531, '
             '"ties": 19, "argmin_is_delaunay": false, "argmin_cells": [[0, 1, 3], '
             '[0, 1, 5], [0, 2, 3], [0, 2, 4], [0, 4, 5], [1, 4, 6], [1, 5, 6], [4, 5, 6]]}'),
])
def test_oracle_cli_json_is_unchanged(tmp_path, capsys, spec, want):
    # recorded from the version that enumerated twice and rebuilt the
    # Delaunay triangulation a third time; AREA ties everywhere, so its
    # argmin is not the Delaunay triangulation
    pts = tmp_path / "small.pts"
    pts.write_text(ORACLE_POINTS)
    out = tmp_path / "oracle.json"
    code, _, _ = run(capsys, "oracle", str(pts), "--F", spec, "--out", str(out))
    assert code == 0
    assert out.read_text() == want


def test_oracle_cli(tmp_path, capsys):
    rng = np.random.default_rng(7)
    w = PointSetWindow(dim=2, points=rng.uniform(size=(6, 2)) * 2,
                       r=0.01, R=2.0, window_radius=2.0)
    pts = str(tmp_path / "small.pts")
    w.save(pts)
    out = str(tmp_path / "oracle.json")
    code, stdout, _ = run(capsys, "oracle", pts, "--F", "F5", "--out", out)
    assert code == 0
    assert last_json(stdout)["argmin_is_delaunay"] is True
    report = json.loads(open(out).read())
    assert report["n_triangulations"] >= 1


def test_tri_rejects_a_nan_point_as_bad_input(tmp_path, capsys):
    pts = tmp_path / "nan.pts"
    pts.write_text("2 0.5 1.5 3.0\n0 0\n1 0\nnan 1\n0 1\n")
    code, stdout, err = run(capsys, "tri", str(pts))
    assert code == 1 and stdout == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "point 2 has a non-finite coordinate: [nan, 1.0]",
    }
    assert not (tmp_path / "nan.pts.delaunay.json").exists()


@pytest.mark.parametrize("text, message", [
    ("2 0.5 1.5 3.0\n", "{path}: no points after the header"),
    ("2 0.5 1.5 3.0\n0 0\n1\n0 1\n", "{path} line 3: expected 2 coordinates, got 1"),
    ("2 0.5 1.5 3.0\n0 0\n\n1 0\n0 x\n", "{path} line 5: could not convert string to float: 'x'"),
    ("2 0.5 1.5\n0 0\n1 0\n0 1\n", '{path} line 1: expected the header "d r R W"'),
    ("2.0 0.5 1.5 3.0\n0 0\n1 0\n0 1\n", '{path} line 1: expected the header "d r R W"'),
    ("", '{path} line 1: expected the header "d r R W"'),
])
def test_tri_names_the_bad_line_of_a_point_file(tmp_path, capsys, text, message):
    pts = tmp_path / "bad.pts"
    pts.write_text(text)
    code, stdout, err = run(capsys, "tri", str(pts))
    assert code == 1 and stdout == ""
    assert json.loads(err) == {"error": "ValueError", "message": message.format(path=pts)}
