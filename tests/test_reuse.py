"""What one process reuses between CLI stages (``delone.memo``): the last
point file saved, the last complex text written, the circumcentres of the
last validated complex and the last ``delaunay_of`` build.  Each record
holds one entry keyed by exact bytes, and a hit must be what parsing or
computing the same bytes gives."""

import json
import re

import numpy as np
import pytest

from delone import density, memo, triangulation
from delone.delaunay import delaunay_of
from delone.errors import DegenerateSimplexError, GeometryError, InvalidComplexError
from delone.functionals import FunctionalSpec
from delone.generators import PointSetWindow, lattice_window, poisson_delone_window
from delone.triangulation import TriangulationComplex, is_locally_delaunay, reverse_flip

WINDOWS = {
    "lattice2d": lambda: lattice_window(2, 10.0, jitter=True, seed=3),
    "poisson": lambda: poisson_delone_window(0.4, 1.5, 10.0, seed=7),
    "lattice3d": lambda: lattice_window(3, 4.0, jitter=True, seed=3),
}


@pytest.fixture(autouse=True)
def fresh_records():
    memo.clear()
    yield
    memo.clear()


def _refuse(*args, **kwargs):
    raise AssertionError("parsed or built again")


def counted(monkeypatch, module, name):
    """A list that grows by one at each call of ``module.name``."""
    calls, call = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or call(*a, **k))
    return calls


def assert_same_window(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    assert got.points.shape == want.points.shape and got.points.dtype == want.points.dtype
    assert got.points.flags.writeable and got.points.flags.c_contiguous
    assert (got.dim, got.r, got.R, got.window_radius) == (want.dim, want.r, want.R,
                                                          want.window_radius)
    assert got.provenance == want.provenance


def sums(cx):
    spec = FunctionalSpec.parse("F5" if cx.dim == 2 else "FR")
    alphas = density.geometric_grid(1.0, 3.0)
    return density.density_sequence(cx, spec, np.zeros(cx.dim), alphas).sums


def assert_same_complex(got, want):
    assert got.points.tobytes() == want.points.tobytes()
    assert got.points.shape == want.points.shape and got.points.dtype == want.points.dtype
    assert got.points.flags.writeable
    assert got.dim == want.dim and got.provenance == want.provenance
    assert np.array_equal(got.cells_array(), want.cells_array())
    assert not got.cells_array().flags.writeable
    assert got.interior_facets() == want.interior_facets()
    assert list(got.facet_adjacency.items()) == list(want.facet_adjacency.items())
    memo.drop("geometry")
    got_sums = sums(got)
    memo.drop("geometry")
    assert got_sums.tobytes() == sums(want).tobytes()


def test_each_kind_keeps_one_entry_matched_by_an_equal_key():
    memo.keep("window", "a", 1)
    memo.keep("build", ((2,), b"a"), 2)
    assert memo.get("window", "a") == 1 and memo.get("build", ((2,), b"a")) == 2
    assert memo.get("window", "b") is None and memo.get("complex", "a") is None
    memo.keep("window", "b", 3)
    assert memo.get("window", "a") is None and memo.get("window", "b") == 3
    memo.drop("window")
    assert memo.get("window", "b") is None and memo.get("build", ((2,), b"a")) == 2
    memo.clear()
    assert memo.get("build", ((2,), b"a")) is None


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_a_saved_point_file_loads_as_its_parse(tmp_path, monkeypatch, name):
    """Only ``save`` keeps a text: a parsed file is parsed again."""
    path = tmp_path / "w.pts"
    WINDOWS[name]().save(path)
    memo.clear()
    with monkeypatch.context() as m:
        loadtxt = counted(m, np, "loadtxt")
        parsed = PointSetWindow.load(path)
        assert_same_window(PointSetWindow.load(path), parsed)
        assert loadtxt == [1, 1]
    WINDOWS[name]().save(path)
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", _refuse)
        saved = PointSetWindow.load(path)
        assert_same_window(saved, parsed)
        saved.points[0] += 1.0  # the hit is the caller's copy
        assert_same_window(PointSetWindow.load(path), parsed)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_a_written_complex_text_reads_as_its_parse(monkeypatch, name):
    """Only ``to_json`` keeps a text: a parsed text is parsed again."""
    window = WINDOWS[name]()
    text = delaunay_of(window.points, provenance=dict(window.provenance)).to_json()
    memo.clear()
    with monkeypatch.context() as m:
        built = counted(m, triangulation, "build_complex")
        parsed = TriangulationComplex.from_json(text)
        assert_same_complex(TriangulationComplex.from_json(text), parsed)
        assert built == [1, 1]
    written = delaunay_of(window.points, provenance=dict(window.provenance))
    assert written.to_json() == text
    with monkeypatch.context() as m:
        m.setattr(triangulation, "build_complex", _refuse)
        hit = TriangulationComplex.from_json(text)
        assert_same_complex(hit, parsed)
        hit.points[0] += 1.0  # the hit is the caller's copy
        hit.provenance["edited"] = True
        again = TriangulationComplex.from_json(text)
    assert_same_complex(again, parsed)
    assert again.to_json() == text


def test_a_complex_text_with_unsorted_cells_reads_in_its_own_order(monkeypatch):
    """A text that ``to_json`` did not write, its cells out of sorted order,
    fills the cell set in the file's order on every read; writing it back
    keeps the sorted text, which then reads as its own parse."""
    cx = delaunay_of(lattice_window(2, 8.0, jitter=True, seed=2).points)
    data = json.loads(cx.to_json())
    data["cells"] = [row[::-1] for row in data["cells"][::-1]]
    text = json.dumps(data)
    memo.clear()
    first = TriangulationComplex.from_json(text)
    assert list(first.facet_adjacency.items()) != list(cx.facet_adjacency.items())
    built = counted(monkeypatch, triangulation, "build_complex")
    second = TriangulationComplex.from_json(text)
    assert built == [1]
    assert list(second._cells) == list(first._cells)
    assert list(second.facet_adjacency.items()) == list(first.facet_adjacency.items())
    assert second.interior_facets() == first.interior_facets()
    sorted_text = second.to_json()
    assert sorted_text == cx.to_json()
    hit = TriangulationComplex.from_json(sorted_text)
    assert built == [1]
    memo.clear()
    assert_same_complex(hit, TriangulationComplex.from_json(sorted_text))


def _edit_last_digit(text):
    """``text`` with the last digit of its last coordinate changed."""
    head = text.split('"cells"')[0]  # a point file has no cells
    i = max(i for i, ch in enumerate(head) if ch.isdigit())
    return text[:i] + ("1" if text[i] == "2" else "2") + text[i + 1:]


def error_of(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_an_edited_point_file_misses_and_parses(tmp_path, name):
    """A one-byte edit parses anew; a broken file raises what it raises
    with nothing kept."""
    path = tmp_path / "w.pts"
    WINDOWS[name]().save(path)
    text = path.read_text()
    path.write_text(_edit_last_digit(text))
    edited = PointSetWindow.load(path)
    assert edited.points[-1, -1] != float(text.split()[-1])
    memo.clear()
    assert_same_window(edited, PointSetWindow.load(path))
    head, _, body = text.partition("\n")
    for broken in (head.rsplit(" ", 1)[0] + " nan\n" + body, text + "1.0 x\n"):
        WINDOWS[name]().save(path)
        path.write_text(broken)
        kept = error_of(lambda: PointSetWindow.load(path))
        memo.clear()
        assert kept == error_of(lambda: PointSetWindow.load(path))
        assert kept[0] is ValueError and "line" in kept[1]


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_an_edited_complex_text_misses_and_parses(monkeypatch, name):
    window = WINDOWS[name]()
    text = delaunay_of(window.points).to_json()
    edited_text = _edit_last_digit(text)
    built = counted(monkeypatch, triangulation, "build_complex")
    edited = TriangulationComplex.from_json(edited_text)
    assert built == [1]
    assert edited.points[-1, -1] != json.loads(text)["points"][-1][-1]
    memo.clear()
    assert_same_complex(edited, TriangulationComplex.from_json(edited_text))
    missing = text.replace('"cells": [[', f'"cells": [[{len(window.points)}, ', 1)
    for broken in (text[1:], missing):
        delaunay_of(window.points).to_json()
        kept = error_of(lambda: TriangulationComplex.from_json(broken))
        memo.clear()
        assert kept == error_of(lambda: TriangulationComplex.from_json(broken))
        assert kept[0] is InvalidComplexError


@pytest.mark.parametrize("cells, error, message", [
    ({(0, 1, 2), (1, 4, 0)}, DegenerateSimplexError, "cell (0, 1, 4) is degenerate"),
    ({(0, 1, 2), (2, 1, 0)}, InvalidComplexError, "duplicate cell (0, 1, 2)"),
], ids=["degenerate", "repeated"])
def test_a_directly_built_complex_is_not_kept(cells, error, message):
    """A complex that ``build_complex`` did not validate is written but not
    kept, and drops the kept text, so reading its text validates it."""
    kept_text = delaunay_of(np.random.default_rng(1).uniform(size=(10, 2))).to_json()
    assert memo.get("complex", kept_text) is not None
    points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.1], [2.0, 0.0]])
    text = TriangulationComplex(2, points, set(cells)).to_json()
    assert memo.get("complex", kept_text) is None and memo.get("complex", text) is None
    with pytest.raises(error, match="^" + re.escape(message)):
        TriangulationComplex.from_json(text)


def _flip_one(cx):
    """Reverse-flip the first locally Delaunay interior facet that flips."""
    for facet in sorted(cx.interior_facets()):
        try:
            if is_locally_delaunay(cx, facet):
                return reverse_flip(cx, facet)
        except GeometryError:
            continue
    raise AssertionError("no facet flips")


def test_a_flipped_complex_is_not_kept(monkeypatch):
    cx = delaunay_of(lattice_window(2, 8.0, jitter=True, seed=1).points)
    assert cx.validated
    _flip_one(cx)
    assert not cx.validated
    text = cx.to_json()
    assert memo.get("complex", text) is None
    built = counted(monkeypatch, triangulation, "build_complex")
    back = TriangulationComplex.from_json(text)
    assert built == [1] and back.cells == cx.cells


def _geometry_key(cx):
    return cx.points.shape, cx.points.tobytes(), cx.cells_array().tobytes()


def test_each_record_keeps_one_entry(tmp_path, monkeypatch):
    """After a second window is saved, serialised and measured, the first is
    no longer kept."""
    first, second = (lattice_window(2, 8.0, jitter=True, seed=s) for s in (1, 2))
    paths = tmp_path / "a.pts", tmp_path / "b.pts"
    first.save(paths[0])
    second.save(paths[1])
    assert memo.get("window", paths[0].read_text()) is None
    assert memo.get("window", paths[1].read_text()) is not None
    texts = [delaunay_of(w.points).to_json() for w in (first, second)]
    assert memo.get("complex", texts[0]) is None and memo.get("complex", texts[1]) is not None
    cxs = [TriangulationComplex.from_json(t) for t in texts]
    for cx in cxs:
        sums(cx)
    assert memo.get("geometry", _geometry_key(cxs[0])) is None
    assert memo.get("geometry", _geometry_key(cxs[1])) is not None
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", _refuse)
        with pytest.raises(AssertionError, match="parsed or built again"):
            PointSetWindow.load(paths[0])
    built = counted(monkeypatch, triangulation, "build_complex")
    TriangulationComplex.from_json(texts[0])
    assert built == [1]


def test_a_flipped_copy_does_not_replace_the_kept_geometry(monkeypatch):
    cx = delaunay_of(lattice_window(2, 8.0, jitter=True, seed=1).points)
    want = sums(cx)
    flipped = cx.copy()
    _flip_one(flipped)
    sums(flipped)
    assert memo.get("geometry", _geometry_key(cx)) is not None
    assert memo.get("geometry", _geometry_key(flipped)) is None
    monkeypatch.setattr(density, "circumcenters", _refuse)
    assert sums(cx).tobytes() == want.tobytes()
