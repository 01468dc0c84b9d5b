import argparse
import ast
import itertools
import json
import math
import os
import pathlib
import re
import stat
import types

import numpy as np
import pytest

from delone import cli
from delone import density as density_mod
from delone.cli import main
from delone.generators import PointSetWindow
from delone.triangulation import TriangulationComplex


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


FC_WITNESS = ("[[0.8995977959166565, 0.5619468620985577, 0.7168373475395349], "
              "[0.35828139355655364, 0.017023727657043297, 0.45555621869369856], "
              "[0.6279429097388475, 0.6974528275500885, 0.8596431639089931], "
              "[0.17545374402505554, 0.6699361422488682, 0.2777580620494967], "
              "[0.3293490532010417, 0.9659364001012728, 0.8888953016777466]]")


@pytest.mark.parametrize("argv, code, text", [
    (["flipcheck", "--F", "F1", "--d", "3", "--trials", "5", "--seed", "0"], 3,
     '{"schema": 1, "functional": "F1:c1=1.0", "trials": 5, "violations": 3, '
     f'"passed": false, "witness": {FC_WITNESS}, '
     '"notes": {"min_margin": -0.36757398493558646, "d": 3}}'),
    (["gcheck", "--F", "FE", "--trials", "3", "--n", "5..8", "--seed", "3"], 0,
     '{"schema": 1, "functional": "FE", "trials": 3, "violations": 0, "passed": true, '
     '"witness": null, '
     '"notes": {"min_margin": 0.7960189872748539, "n_range": [5, 8]}}'),
], ids=["flipcheck", "gcheck"])
def test_trial_battery_reports_are_pinned(tmp_path, capsys, argv, code, text):
    """The exact bytes both batteries write, and their summary."""
    out = tmp_path / "report.json"
    got, stdout, _ = run(capsys, *argv, "--out", str(out))
    report = json.loads(text)
    assert got == code and out.read_text() == text
    assert last_json(stdout) == {"out": str(out), "violations": report["violations"],
                                 "passed": report["passed"], "ok": report["passed"]}


@pytest.mark.parametrize("command", ["flipcheck", "gcheck"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_trial_batteries_refuse_fewer_than_one_trial(tmp_path, capsys, command, trials):
    out = tmp_path / "report.json"
    code, stdout, err = run(capsys, command, "--F", "FE", "--trials", trials, "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert json.loads(err) == {"error": "ValueError", "message": "trials must be positive"}


COMPLEX_FAULTS = ["non-integer-id", "dimension", "not-json", "top-level-list", "cells-not-a-list",
                  "nan-point", "provenance-int", "provenance-list"]


def bad_complex_file(tmp_path, fault):
    data = {"schema": 1, "dimension": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]],
            "cells": [[0, 1, 2], [1, 2, 3]]}
    if fault == "dimension":
        data["dimension"] = 3
    elif fault == "non-integer-id":
        data["cells"][1][1] = 2.9  # once read as vertex 2
    elif fault == "cells-not-a-list":
        data["cells"] = 5
    elif fault == "nan-point":
        data["points"][3][1] = math.nan  # written as NaN
    elif fault == "provenance-int":
        data["provenance"] = 5
    elif fault == "provenance-list":
        data["provenance"] = [1, 2]
    path = tmp_path / "bad.json"
    text = json.dumps([data] if fault == "top-level-list" else data)
    path.write_text(text[1:] if fault == "not-json" else text)
    return str(path)


@pytest.mark.parametrize("fault", COMPLEX_FAULTS)
def test_density_on_a_bad_complex_file_exits_1(tmp_path, capsys, fault):
    code, stdout, err = run(capsys, "density", bad_complex_file(tmp_path, fault), "--F", "AREA",
                            "--alpha-min", "1", "--alpha-max", "2", "--out", str(tmp_path / "bad.csv"))
    assert code == 1 and stdout == ""
    assert json.loads(err)["error"] == "InvalidComplexError"


@pytest.mark.parametrize("fault", COMPLEX_FAULTS)
def test_tri_legalize_on_a_bad_complex_file_exits_1(tmp_path, capsys, fault):
    out = tmp_path / "legal.json"
    code, stdout, err = run(capsys, "tri", "--legalize", bad_complex_file(tmp_path, fault),
                            "--out", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert json.loads(err)["error"] == "InvalidComplexError"


def test_tri_without_a_point_file_or_legalize_exits_1(tmp_path, capsys):
    code, stdout, err = run(capsys, "tri", "--out", str(tmp_path / "t.json"))
    assert code == 1 and stdout == ""
    assert json.loads(err) == {"error": "ValueError",
                               "message": "tri needs a point file or --legalize COMPLEX"}


@pytest.mark.parametrize("kind", ["lattice", "poisson"])
def test_gen_runs_the_delone_check_once(tmp_path, capsys, monkeypatch, kind):
    """``gen poisson`` reports the verdict of the sampler's last check, which
    passed, instead of checking the window again."""
    from delone import generators

    checks, check = [], generators._delone_check

    def counted(window):
        checks.append(window.n_points)
        return check(window)

    monkeypatch.setattr(generators, "_delone_check", counted)
    out = tmp_path / "w.pts"
    code, stdout, _ = run(capsys, "gen", kind, "--W", "10", "--out", str(out))
    summary = last_json(stdout)
    assert code == 0 and summary["delone_ok"] is True and summary["ok"] is True
    assert checks == [summary["n_points"]]
    assert check(PointSetWindow.load(out))[0].ok


# the README pipeline: a 2D lattice, a Poisson window and a 3D lattice
README_PIPELINE = """\
# 2D lattice
gen lattice --d 2 --W 30 --jitter --seed 3 --out lat30.pts
tri lat30.pts --out lat30.tri.json
density lat30.tri.json --F F5 --alpha-min 8 --alpha-max 24 --center 3,0 --window-radius 30 --q-bound 0.71 --out density.csv
compare lat30.pts --F F5 --reverse-flips 50 --seed 4 --out compare.csv
counts lat30.pts --out lat30.counts.json

gen poisson --r 0.4 --R 1.5 --W 20 --seed 7 --out poisson.pts
tri poisson.pts --out poisson.tri.json
counts poisson.pts --out poisson.counts.json
gen lattice --d 3 --W 7 --jitter --seed 3 --out l3.pts
tri l3.pts --out l3.json  # 3D
density l3.json --F FR --alpha-min 1.75 --alpha-max 4.5 --window-radius 7 --q-bound 0.8661 --out l3.density.csv
counts l3.pts --out l3.counts.json
"""
# a point file and a complex file rewritten at the same paths from another seed
# before they are read again, so a stale record would show as other bytes
REWRITES = """\
gen lattice --d 2 --W 30 --jitter --seed 5 --out lat30.pts
tri lat30.pts --out lat30.tri.json
density lat30.tri.json --F F5 --alpha-min 8 --alpha-max 24 --window-radius 30 --q-bound 0.71 --out density5.csv
counts lat30.pts --out lat30.5.counts.json
"""


def test_batch_writes_the_bytes_of_separate_runs(tmp_path, capsys, monkeypatch):
    """One ``delone batch`` of the README pipeline and the rewrites writes the
    files and the summaries that its lines write one by one, each with no
    point file, complex, cell geometry or build kept from an earlier line (as
    in a fresh process)."""
    import shlex

    from delone import memo

    (tmp_path / "pipeline.txt").write_text(README_PIPELINE + REWRITES)
    separate, batch = tmp_path / "separate", tmp_path / "batch"
    separate.mkdir()
    batch.mkdir()
    monkeypatch.chdir(separate)
    summaries = ""
    for line in (README_PIPELINE + REWRITES).splitlines():
        if shlex.split(line, comments=True):
            memo.clear()
            code, stdout, _ = run(capsys, *shlex.split(line, comments=True))
            assert code == 0, line
            summaries += stdout
    monkeypatch.chdir(batch)
    assert run(capsys, "batch", str(tmp_path / "pipeline.txt")) == (0, summaries, "")
    names = sorted(os.listdir(separate))
    assert names == sorted(os.listdir(batch)) and len(names) == 21
    for name in names:
        assert (separate / name).read_bytes() == (batch / name).read_bytes(), name


@pytest.mark.parametrize("line, code", [
    ("tri missing.pts --out m.json", 1),  # FileNotFoundError
    ("gen lattice --bogus 1", 2),  # argparse
    ("frobnicate", 2),
])
def test_batch_stops_at_the_first_failing_line_and_names_it(tmp_path, capsys, monkeypatch,
                                                            line, code):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("b.txt").write_text(f"gen lattice --W 8 --out a.pts  # runs\n\n{line}\n"
                                     "gen lattice --W 8 --out c.pts\n")
    got, stdout, err = run(capsys, "batch", "b.txt")
    assert got == code and os.path.exists("a.pts") and not os.path.exists("c.pts")
    assert len(stdout.splitlines()) == 1
    assert json.loads(err.splitlines()[-1]) == {"batch_line": 3, "line": line, "exit": code}


def test_batch_reads_stdin_and_refuses_a_nested_batch(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("gen lattice --W 8 --out s.pts\n"))
    assert run(capsys, "batch", "-")[0] == 0 and os.path.exists("s.pts")
    pathlib.Path("b.txt").write_text("gen lattice --W 8 --out a.pts\nbatch b.txt\n")
    code, _, err = run(capsys, "batch", "b.txt")
    assert code == 1
    assert json.loads(err) == {"error": "ValueError",
                               "message": "b.txt line 2: a batch cannot run batch"}
    pathlib.Path("q.txt").write_text('gen "lattice\n')
    code, _, err = run(capsys, "batch", "q.txt")
    assert code == 1
    assert json.loads(err) == {"error": "ValueError", "message": "q.txt line 1: No closing quotation"}


def test_gcheck_cli(tmp_path, capsys):
    out = str(tmp_path / "gc.json")
    code, stdout, _ = run(capsys, "gcheck", "--F", "FE", "--trials", "8",
                          "--n", "5..7", "--seed", "3", "--out", out)
    assert code == 0
    assert last_json(stdout)["violations"] == 0


@pytest.mark.parametrize("n_range", ["8..5", "2..3", "9..10"])
def test_gcheck_names_a_bad_point_count_range(tmp_path, capsys, n_range):
    code, _, err = run(capsys, "gcheck", "--F", "FE", "--trials", "2", "--n", n_range,
                       "--out", str(tmp_path / "gc.json"))
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "ValueError" and f"n_range {n_range}" in error["message"]


def test_gcheck_on_three_points(tmp_path, capsys):
    out = tmp_path / "gc.json"
    code, stdout, _ = run(capsys, "gcheck", "--F", "FE", "--trials", "3", "--n", "3..3",
                          "--out", str(out))
    assert code == 0 and last_json(stdout)["passed"] is True
    assert json.loads(out.read_text())["notes"]["n_range"] == [3, 3]


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
    # a degenerate pair keeps blocks of 3 and reports its verdict
    code, stdout, _ = run(
        capsys, "strips", "--F", "AREA", "--blocks", "3",
        "--a", "1", "--phi", repr(math.pi / 6),
        "--c", "1.6", "--psi", repr(math.pi / 5), "--out", out,
    )
    assert code == 0
    summary = last_json(stdout)
    assert summary["verdict"] == "DEGENERATE" and summary["block_sizes"] == [3, 3, 3]


def test_gen_strips_sizes_blocks_as_strips_does(tmp_path, capsys):
    # a degenerate pair (F = AREA) gets blocks of 3 from gen too, not a ValueError
    for F in ("AREA", "F1:c1=1"):
        out = str(tmp_path / f"{F}.pts")
        code, _, _ = run(capsys, "gen", "strips", "--F", F, "--blocks", "2",
                         "--a", "1", "--phi", repr(math.pi / 6),
                         "--c", "1.6", "--psi", repr(math.pi / 5), "--out", out)
        assert code == 0
        assert TriangulationComplex.from_json(open(out + ".complex.json").read()).n_cells > 0


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


def test_counts_on_a_window_too_small_names_the_window(tmp_path, capsys):
    """The certificate's alpha range [max(4R, W/8), W - 2q - 1] is empty at
    W = 6 in 3D; ``counts`` takes no alpha options, so the error names W."""
    pts = str(tmp_path / "w.pts")
    assert run(capsys, "gen", "lattice", "--d", "3", "--W", "6", "--jitter", "--seed", "3",
               "--out", pts)[0] == 0
    code, stdout, err = run(capsys, "counts", pts, "--out", str(tmp_path / "counts.json"))
    assert code == 1 and stdout == ""
    e = json.loads(err)
    assert e["error"] == "WindowError"
    assert e["message"].startswith("window radius W = 6.0 is too small for the count certificate")
    lo, hi = map(float, re.search(r"\[(.+), (.+)\] is empty$", e["message"]).groups())
    assert lo == pytest.approx(4 * (math.sqrt(3) / 2 + 5e-7)) and hi < lo
    assert not (tmp_path / "counts.json").exists()


def test_tri_and_counts_never_run_the_mesh(tmp_path, capsys, monkeypatch):
    """Qhull proposes the cells of a 2D window, and neither the commands nor
    a reader of the complex's facets runs ``_Mesh2D``."""
    from delone import delaunay

    pts = str(tmp_path / "w.pts")
    run(capsys, "gen", "lattice", "--W", "14", "--jitter", "--seed", "9",
        "--out", pts)
    insert, inserted = delaunay._Mesh2D.insert, []

    def counted(mesh, q):
        inserted.append(q)
        return insert(mesh, q)

    monkeypatch.setattr(delaunay._Mesh2D, "insert", counted)
    assert run(capsys, "tri", pts, "--out", str(tmp_path / "w.json"))[0] == 0
    assert run(capsys, "counts", pts, "--out", str(tmp_path / "counts.json"))[0] == 0
    assert inserted == []
    window = PointSetWindow.load(pts)
    cx = delaunay.delaunay_of(window.points)
    assert window.n_points >= delaunay.QHULL_MIN_POINTS and cx.interior_facets()
    assert inserted == []


def test_outputs_do_not_depend_on_qhulls_row_order(lattice_complex, tmp_path, capsys, monkeypatch):
    """From 32 points on, the cell set fills in the order of Qhull's rows.
    ``tri`` and ``counts`` write the same bytes when Qhull lists its rows
    reversed and rotated (``tri`` asks Qhull, and ``counts`` reuses its
    complex), and ``compare`` builds with the mesh, never asking Qhull."""
    import scipy.spatial

    from delone import memo

    pts, _ = lattice_complex
    files = [str(tmp_path / "w.tri.json"), str(tmp_path / "w.counts.json")]

    def outputs():
        assert run(capsys, "tri", pts, "--out", files[0])[0] == 0
        assert run(capsys, "counts", pts, "--out", files[1])[0] == 0
        return [pathlib.Path(f).read_bytes() for f in files]

    want, qhull, proposed = outputs(), scipy.spatial.Delaunay, []

    def reordered(points):
        proposed.append(len(points))
        return types.SimpleNamespace(simplices=np.roll(qhull(points).simplices[::-1], 1, axis=1))

    monkeypatch.setattr(scipy.spatial, "Delaunay", reordered)
    memo.clear()  # else ``tri`` reuses the first pass's complex
    assert outputs() == want
    assert len(proposed) == 1 and min(proposed) >= 32

    def refused(points):
        raise AssertionError("compare asked Qhull for the cells")

    monkeypatch.setattr(scipy.spatial, "Delaunay", refused)
    code, stdout, _ = run(capsys, "compare", pts, "--F", "F5", "--reverse-flips", "8",
                          "--seed", "4", "--alpha-min", "5", "--alpha-max", "11",
                          "--out", str(tmp_path / "cmp.csv"))
    assert code == 0 and last_json(stdout)["passed"] is True


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


@pytest.fixture(scope="module")
def lattice_complex(tmp_path_factory):
    """A 2D jittered lattice window and its Delaunay complex, as files."""
    root = tmp_path_factory.mktemp("lattice")
    pts, tri = str(root / "w.pts"), str(root / "w.tri.json")
    assert main(["gen", "lattice", "--W", "16", "--jitter", "--seed", "4", "--out", pts]) == 0
    assert main(["tri", pts, "--out", tri]) == 0
    return pts, tri


@pytest.mark.parametrize("extra", [
    ("--center", "1"),  # a 2D complex: read as (1, 1) by broadcasting before
    ("--center", "1,0,0"),
    ("--alpha-max", "inf"),  # a grid that never ends
    # a finite grid of about 1.4e15 entries
    ("--alpha-min", "1e-300", "--alpha-max", "1e300", "--ratio", "1.000000000001"),
])
def test_density_cli_rejects_bad_center_and_grid(lattice_complex, tmp_path, capsys, extra):
    _, tri = lattice_complex
    args = {"--alpha-min": "3", "--alpha-max": "8"} | dict(zip(extra[::2], extra[1::2]))
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "density", tri, "--F", "F5",
                       *itertools.chain(*args.items()), "--out", str(out))
    assert code == 1 and json.loads(err)["error"] == "ValueError"
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (("--center", "nan,0"), "the center must be finite, not [nan, 0.0]"),
    (("--center", "inf,0"), "the center must be finite, not [inf, 0.0]"),
    (("--window-radius", "nan"), "window_radius must be finite, not nan"),
    (("--window-radius", "inf"), "window_radius must be finite, not inf"),
    (("--window-radius", "16", "--q-bound", "nan"), "q_bound must be finite, not nan"),
    (("--window-radius", "16", "--q-bound", "-5"), "q_bound must be positive, not -5.0"),
    (("--window-radius", "16", "--q-bound", "0"), "q_bound must be positive, not 0.0"),
    (("--q-bound", "1"), "q_bound is given without window_radius"),
])
def test_density_cli_refuses_non_finite_window_options(
        lattice_complex, tmp_path, capsys, extra, message):
    # a NaN would turn the safe-window guard off, and a NaN center write a zero f_z column;
    # a negative q bound widened the safe window, and one without a radius went unused
    _, tri = lattice_complex
    out = tmp_path / "d.csv"
    code, _, err = run(capsys, "density", tri, "--F", "F5", "--alpha-min", "3",
                       "--alpha-max", "6", *extra, "--out", str(out))
    assert code == 1 and not out.exists()
    assert json.loads(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("center, calls", [
    ((), 1), (("--center", "0,0"), 1), (("--center", "0.5,-0.25"), 2),
])
def test_density_cli_runs_the_origin_sequence_once(
        lattice_complex, tmp_path, capsys, monkeypatch, center, calls):
    # the f_z column of a run about the origin is the origin sequence itself
    _, tri = lattice_complex
    centers = []
    sequence = density_mod.density_sequence
    monkeypatch.setattr(density_mod, "density_sequence",
                        lambda cx, spec, c, *a, **k: centers.append(c) or sequence(cx, spec, c, *a, **k))
    out = tmp_path / "d.csv"
    code, _, _ = run(capsys, "density", tri, "--F", "F5", "--alpha-min", "3",
                     "--alpha-max", "6", *center, "--out", str(out))
    assert code == 0 and len(centers) == calls
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert (calls == 1) == all(row[4] == row[5] for row in rows)


def test_compare_cli_alpha_max_zero_is_given(lattice_complex, tmp_path, capsys):
    pts, _ = lattice_complex
    code, _, err = run(capsys, "compare", pts, "--F", "F5", "--alpha-max", "0",
                       "--out", str(tmp_path / "c.csv"))
    assert code == 1 and json.loads(err)["error"] == "ValueError"
    assert "alpha_min <= alpha_max" in json.loads(err)["message"]


def test_compare_refuses_negative_reverse_flips(lattice_complex, tmp_path, capsys):
    pts, _ = lattice_complex
    code, _, err = run(capsys, "compare", pts, "--F", "F5", "--reverse-flips", "-2",
                       "--out", str(tmp_path / "c.csv"))
    assert code == 1
    assert json.loads(err) == {"error": "ValueError", "message": "n_flips must be >= 0, not -2"}


@pytest.mark.parametrize("r", ["-0.4", "0", "nan"])
def test_gen_poisson_refuses_non_positive_r(tmp_path, capsys, r):
    out = tmp_path / "p.pts"
    code, _, err = run(capsys, "gen", "poisson", "--r", r, "--W", "10", "--out", str(out))
    assert code == 1 and not out.exists()
    assert json.loads(err) == {"error": "ValueError", "message": f"need r > 0, not {float(r)}"}



@pytest.mark.parametrize("argv, message", [
    (["poisson", "--R", "nan"], "R must be finite, not nan"),
    (["poisson", "--W", "inf"], "W must be finite, not inf"),
    (["lattice", "--W", "nan"], "W must be finite, not nan"),
    (["lattice", "--d", "3", "--W", "inf"], "W must be finite, not inf"),
])
def test_gen_refuses_non_finite_parameters(tmp_path, capsys, argv, message):
    out = tmp_path / "p.pts"
    code, _, err = run(capsys, "gen", *argv, "--out", str(out))
    assert code == 1 and not out.exists()
    assert json.loads(err) == {"error": "ValueError", "message": message}


LATTICE_GEN = ("gen", "lattice", "--d", "2", "--W", "6", "--jitter", "--seed", "3")


def test_rerun_replaces_gen_and_tri_outputs_with_the_same_bytes(tmp_path, capsys):
    """A re-run over its own outputs writes each one as a new file (the old
    one, held open here, keeps its inode) with the same bytes."""
    pts = tmp_path / "w.pts"
    argvs = [(*LATTICE_GEN, "--out", str(pts)), ("tri", str(pts))]
    outputs = [pts, tmp_path / "w.pts.manifest.json", tmp_path / "w.pts.delaunay.json"]
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0
    first = [p.read_bytes() for p in outputs]
    held = [os.open(p, os.O_RDONLY) for p in outputs]
    try:
        for argv in argvs:
            assert run(capsys, *argv)[0] == 0
        for p, fd, data in zip(outputs, held, first):
            assert p.read_bytes() == data
            assert os.stat(p).st_ino != os.fstat(fd).st_ino, p
    finally:
        for fd in held:
            os.close(fd)


def test_a_symlinked_out_is_written_through(tmp_path, capsys):
    plain, target, link = tmp_path / "plain.pts", tmp_path / "target.pts", tmp_path / "link.pts"
    assert run(capsys, *LATTICE_GEN, "--out", str(plain))[0] == 0
    target.write_text("old\n")
    link.symlink_to(target)
    assert run(capsys, *LATTICE_GEN, "--out", str(link))[0] == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == plain.read_bytes()


def test_a_hard_linked_output_is_written_in_place(tmp_path, capsys):
    out, other = tmp_path / "w.pts", tmp_path / "other.pts"
    out.write_text("old\n")
    os.link(out, other)
    inode = os.stat(out).st_ino
    assert run(capsys, *LATTICE_GEN, "--out", str(out))[0] == 0
    assert os.stat(out).st_ino == inode
    assert other.read_bytes() == out.read_bytes() != b"old\n"


def test_a_read_only_output_is_refused_and_left_unchanged(tmp_path, capsys):
    out = tmp_path / "w.pts"
    out.write_text("old\n")
    out.chmod(0o444)
    code, stdout, err = run(capsys, *LATTICE_GEN, "--out", str(out))
    assert code == 1 and stdout == ""
    assert json.loads(err) == {"error": "PermissionError",
                               "message": f"[Errno 13] Permission denied: '{out}'"}
    assert out.read_text() == "old\n" and stat.S_IMODE(os.stat(out).st_mode) == 0o444


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o664, 0o755], ids=oct)
def test_a_replaced_output_keeps_its_mode_bits(tmp_path, capsys, mode):
    out = tmp_path / "w.pts"
    out.write_text("old\n")
    out.chmod(mode)
    inode = os.stat(out).st_ino
    with open(out):  # keeps the old inode from being reused
        assert run(capsys, *LATTICE_GEN, "--out", str(out))[0] == 0
        assert os.stat(out).st_ino != inode
    assert stat.S_IMODE(os.stat(out).st_mode) == mode


def _files_opened_for_writing(source: str) -> list:
    """Lines of ``source`` that open a file for writing outside ``write_text``:
    an ``open`` whose mode is not a literal of r, b and t, or a
    ``.write_text``/``.write_bytes`` method call."""
    found = []

    class Finder(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            if node.name != "write_text":
                self.generic_visit(node)

        def visit_Call(self, node):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg in ("mode", "flags")), None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and isinstance(mode.value, str)
                                             and set(mode.value) <= set("rbt")):
                    found.append(node.lineno)
            elif name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
                found.append(node.lineno)
            self.generic_visit(node)

    Finder().visit(ast.parse(source))
    return found


def test_only_write_text_opens_a_file_for_writing():
    """Every output goes through ``write_text``, so none is truncated in place."""
    src = pathlib.Path(cli.__file__).parent
    found = {p.name: lines for p in sorted(src.glob("*.py"))
             if (lines := _files_opened_for_writing(p.read_text()))}
    assert found == {}
    planted = ("def save(p, t):\n    with open(p, 'w') as fh:\n        fh.write(t)\n"
               "def log(p):\n    open(p, mode='a')\n    os.open(p, os.O_WRONLY)\n"
               "    pathlib.Path(p).write_text('x')\n    open(p, 'rb')\n    open(p)\n")
    assert _files_opened_for_writing(planted) == [2, 5, 6, 7]


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
    ("2 0.5 1.5 3.0\n0 0 0\n1 0 0\n0 1 0\n", "{path} line 2: expected 2 coordinates, got 3"),
    # a header r <= 0 would fail counts' certificate (exit 3), not the input
    ("2 -1 1.5 3.0\n0 0\n1 0\n0 1\n", "{path} line 1: r must be finite and positive, not -1.0"),
    ("2 0 1.5 3.0\n0 0\n1 0\n0 1\n", "{path} line 1: r must be finite and positive, not 0.0"),
    ("2 0.5 nan 3.0\n0 0\n1 0\n0 1\n", "{path} line 1: R must be finite and positive, not nan"),
    ("2 0.5 1.5 nan\n0 0\n1 0\n0 1\n", "{path} line 1: W must be finite and positive, not nan"),
    ("2 0.5 1.5 inf\n0 0\n1 0\n0 1\n", "{path} line 1: W must be finite and positive, not inf"),
])
def test_tri_names_the_bad_line_of_a_point_file(tmp_path, capsys, text, message):
    pts = tmp_path / "bad.pts"
    pts.write_text(text)
    code, stdout, err = run(capsys, "tri", str(pts))
    assert code == 1 and stdout == ""
    assert json.loads(err) == {"error": "ValueError", "message": message.format(path=pts)}


def test_main_builds_one_parser_and_runs_the_command_it_finds(tmp_path, capsys, monkeypatch):
    """The parser is built on the first ``main`` call and kept; the command
    is looked up on the module per call, so a replaced ``cmd_density`` is
    the one the next call runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        if kwargs.get("prog") == "delone":
            built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    missing = str(tmp_path / "missing.json")
    argv = ("density", missing, "--F", "AREA", "--alpha-min", "1", "--alpha-max", "2")
    code, _, err = run(capsys, *argv)
    assert code == 1 and json.loads(err)["error"] == "FileNotFoundError"
    monkeypatch.setattr(cli, "cmd_density", lambda args: {"out": args.complexfile, "ok": False})
    code, stdout, _ = run(capsys, *argv)
    assert code == 3 and last_json(stdout) == {"out": missing, "ok": False}
    assert len(built) == 1
