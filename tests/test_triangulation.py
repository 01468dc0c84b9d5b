import hashlib
import itertools
import json
import re
from collections import Counter

import numpy as np
import pytest

from delone.delaunay import delaunay_2d, delaunay_3d
from delone import delaunay, geometry, oracle, triangulation
from delone.density import density_sequence
from delone.errors import (
    DegenerateSimplexError,
    GeometryError,
    InvalidComplexError,
    NonGenericError,
)
from delone.functionals import FunctionalSpec
from delone.generators import distorted_cubic_window, lattice_window, poisson_delone_window
from delone.geometry import (
    Side,
    circumradii,
    circumradius,
    circumsphere,
    in_sphere,
    measure,
    orientation,
    point_in_simplex,
)
from delone.triangulation import (
    FROM_DELAUNAY,
    TO_DELAUNAY,
    FlipRecord,
    TriangulationComplex,
    build_complex,
    build_unbounded_prefix,
    certify_tiling,
    first_non_delaunay_facet,
    flip,
    is_locally_delaunay,
    legalize_to_delaunay,
    reverse_flip,
    uniform_bound_q,
)

# a generic convex quadrilateral (a 3x1 rectangle would be cocircular)
QUAD = np.array([(0.0, 0.0), (3.0, 0.0), (3.2, 1.1), (0.0, 1.0)])


def quad_complex(diagonal_03=True):
    # diagonal vertices 0-2 or the other one, 1-3
    if diagonal_03:
        cells = [(0, 1, 2), (0, 2, 3)]
    else:
        cells = [(0, 1, 3), (1, 2, 3)]
    return build_complex(QUAD, cells)


def scrambled(points, seed, flips=8):
    """A valid but generally non-Delaunay triangulation of the points."""
    cx = delaunay_2d(points).copy()
    rng = np.random.default_rng(seed)
    for _ in range(flips):
        candidates = []
        for facet in cx.interior_facets():
            try:
                if is_locally_delaunay(cx, facet):
                    candidates.append(facet)
            except NonGenericError:
                continue
        if not candidates:
            break
        facet = candidates[int(rng.integers(len(candidates)))]
        try:
            reverse_flip(cx, facet)
        except InvalidComplexError:
            continue
    return cx


def test_build_complex_quad():
    cx = quad_complex()
    assert cx.n_cells == 2
    assert len(cx.interior_facets()) == 1
    assert len([f for f, cs in cx.facet_adjacency.items() if len(cs) == 1]) == 4


def test_build_complex_nonmanifold():
    pts = [(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)]
    with pytest.raises(InvalidComplexError):
        build_complex(pts, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def test_build_complex_missing_vertex():
    with pytest.raises(InvalidComplexError):
        build_complex(QUAD, [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4)])


def test_build_complex_coverage_mismatch():
    # two cells that leave a hole in the hull of the used vertices
    pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)]
    with pytest.raises(InvalidComplexError):
        certify_tiling(build_complex(pts, [(0, 1, 4), (2, 3, 4)]))


def test_build_complex_interior_point_not_vertex():
    pts = [(0, 0), (4, 0), (0, 4), (1, 1)]
    with pytest.raises(InvalidComplexError):
        certify_tiling(build_complex(pts, [(0, 1, 2)]))


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_CELLS = [(0, 1, 3), (1, 2, 3)]  # interior edge 1-3


@pytest.mark.parametrize("point", [(0.25, 0.25), (0.5, 0.5), (0.5, 0.0)],
                         ids=["inside-cell", "on-interior-edge", "on-hull-edge"])
def test_coverage_scan_names_covered_non_vertex(point):
    pts = SQUARE + [(2.0, 2.0), point, (0.75, 0.5)]
    with pytest.raises(InvalidComplexError, match="^point 5 lies in the underlying"):
        certify_tiling(build_complex(pts, SQUARE_CELLS))
    certify_tiling(build_complex(SQUARE + [(2.0, 2.0), (1.0 + 2**-52, 0.5)], SQUARE_CELLS))


def test_coverage_scan_reaches_every_chunk():
    # enough unused points that the scan runs in several chunks; only the
    # last one lies in the complex
    rng = np.random.default_rng(5)
    inner = rng.uniform(0, 1, size=(120, 2))
    cx = delaunay_2d(inner)
    ring = rng.uniform(0, 2 * np.pi, size=1000)
    outer = 1.8 * np.c_[np.cos(ring), np.sin(ring)] + 0.5
    pts = np.vstack([inner, outer, [cx.points[list(cx.cells[-1])].mean(axis=0)]])
    assert len(outer) > (1 << 16) // cx.n_cells
    certify_tiling(build_complex(pts[:-1], cx.cells))
    with pytest.raises(InvalidComplexError, match=f"^point {len(pts) - 1} lies"):
        certify_tiling(build_complex(pts, cx.cells))


def test_certify_tiling_has_no_size_cap():
    from scipy.spatial import Delaunay

    pts = lattice_window(2, 45, jitter=True, seed=4).points
    tri = Delaunay(pts)
    cells = tri.simplices.tolist()
    assert len(cells) > 10_000
    certify_tiling(build_complex(pts, cells))

    # a hull cell whose vertices all stay in use without it
    hull = [k for k in np.flatnonzero((tri.neighbors == -1).any(axis=1))
            if np.isin(tri.simplices[k], np.delete(tri.simplices, k, axis=0)).all()]
    holed = build_complex(pts, cells[:hull[0]] + cells[hull[0] + 1:])
    with pytest.raises(InvalidComplexError, match="^cell measures sum to "):
        certify_tiling(holed)

    inside = pts[tri.simplices[len(cells) // 2]].mean(axis=0)
    with pytest.raises(InvalidComplexError,
                       match=f"^point {len(pts)} lies in the underlying space"):
        certify_tiling(build_complex(np.vstack([pts, inside]), cells))


def test_build_complex_reports_degenerate_cell():
    pts = SQUARE + [(0.5, 0.5)]
    with pytest.raises(DegenerateSimplexError, match=r"cell \(0, 2, 4\) is degenerate"):
        build_complex(pts, [(0, 1, 3), (0, 2, 4)])


def test_prefix_builder_containing_cell_is_first_in_iteration_order():
    from delone.triangulation import _PrefixBuilder

    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=(30, 2))
    b = _PrefixBuilder(pts)
    for cell in delaunay_2d(pts).cells:
        b.cx._add_cell(cell)
    queries = [pts[v] for v in range(len(pts))]  # vertices lie in several cells
    queries += [(pts[u] + pts[v]) / 2 for u, v in list(b.cx.facet_adjacency)[:20]]
    queries += list(rng.uniform(-1.2, 1.2, size=(40, 2)))
    for q in queries:
        want = next((c for c in b.cx._cells if point_in_simplex(pts[list(c)], q)), None)
        assert b._containing_cell(np.asarray(q)) == want


def test_coverage_identity():
    rng = np.random.default_rng(8)
    pts = rng.uniform(size=(40, 2))
    cx = delaunay_2d(pts)
    from scipy.spatial import ConvexHull

    assert cx.cell_measures().sum() == pytest.approx(
        ConvexHull(pts).volume, rel=1e-12
    )


def test_is_locally_delaunay_against_in_sphere_oracle():
    # exactly one diagonal of the quadrilateral is locally Delaunay
    results = {}
    for diag in (True, False):
        cx = quad_complex(diag)
        (facet,) = cx.interior_facets()
        results[diag] = is_locally_delaunay(cx, facet)
        # direct oracle: opposite vertex against the in_sphere classification
        c0, c1 = cx.facet_cells(facet)
        (v,) = set(c1) - set(facet)
        side = in_sphere(cx.points[list(c0)], cx.points[v])
        assert results[diag] == (side == Side.OUTSIDE)
    assert sorted(results.values()) == [False, True]


def test_is_locally_delaunay_boundary_raises():
    cx = quad_complex()
    with pytest.raises(InvalidComplexError):
        is_locally_delaunay(cx, next(f for f, cs in cx.facet_adjacency.items() if len(cs) == 1))


def reference_is_locally_delaunay(cx, facet):
    """``is_locally_delaunay`` as it was in 2D: the opposite vertex against
    ``in_sphere`` of the first cell's coordinates."""
    facet = tuple(sorted(facet))
    incident = cx.facet_cells(facet)
    if len(incident) != 2:
        raise InvalidComplexError(f"facet {facet} is not interior")
    c0, c1 = incident
    (v1,) = set(c1) - set(facet)
    side = in_sphere(cx.points[list(c0)], cx.points[v1])
    if side == Side.ON:
        raise NonGenericError(f"facet {facet}: cospherical opposite vertex")
    return side == Side.OUTSIDE


def outcome(test, cx, facet):
    try:
        return test(cx, facet)
    except (InvalidComplexError, DegenerateSimplexError, NonGenericError) as exc:
        return type(exc).__name__, str(exc)


def nudged_quads():
    """Seeded random quadrilaterals (convex or not), a collinear one, and two
    exactly cocircular ones with each coordinate moved by one ulp each way."""
    rng = np.random.default_rng(61)
    yield from rng.uniform(-1.0, 1.0, size=(300, 4, 2))
    yield np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (0.0, 1.0)])
    circles = (
        np.array([(5.0, 0.0), (3.0, 4.0), (-4.0, 3.0), (0.0, -5.0)]),
        np.array([(1.25, 0.5), (0.25, 1.5), (-0.75, 0.5), (0.25, -0.5)]),
    )
    for quad in circles:
        yield quad
        for k, c, toward in itertools.product(range(4), range(2), (-np.inf, np.inf)):
            nudged = quad.copy()
            nudged[k, c] = np.nextafter(nudged[k, c], toward)
            yield nudged


def test_is_locally_delaunay_2d_matches_in_sphere_reference():
    seen = Counter()
    for quad in nudged_quads():
        for cells in ([(0, 1, 2), (0, 2, 3)], [(0, 1, 3), (1, 2, 3)]):
            # unvalidated, so that degenerate and overlapping cells get in
            cx = TriangulationComplex(2, quad, set(cells))
            for facet in cx.facets():
                want = outcome(reference_is_locally_delaunay, cx, facet)
                assert outcome(is_locally_delaunay, cx, facet) == want, (quad, cells, facet)
                seen[want if isinstance(want, bool) else want[0]] += 1
    assert seen[True] > 100 and seen[False] > 100
    assert seen["NonGenericError"] >= 4 and seen["DegenerateSimplexError"] >= 1
    assert seen["InvalidComplexError"] > 1000


def test_flip_bad_diagonal():
    bad = next(d for d in (True, False) if not is_locally_delaunay(
        quad_complex(d), quad_complex(d).interior_facets()[0]))
    cx = quad_complex(bad)
    (facet,) = cx.interior_facets()
    rec = flip(cx, facet)
    assert rec.direction == TO_DELAUNAY
    assert rec.after_max_circumradius <= rec.before_max_circumradius + 1e-9
    (new_facet,) = cx.interior_facets()
    assert new_facet != facet
    assert is_locally_delaunay(cx, new_facet)
    # direct circumradius oracle on both diagonal choices
    both = {
        d: max(
            circumradius(quad_complex(d).points[list(c)])
            for c in quad_complex(d).cells
        )
        for d in (True, False)
    }
    assert rec.before_max_circumradius == pytest.approx(both[bad], rel=1e-12)
    assert rec.after_max_circumradius == pytest.approx(both[not bad], rel=1e-12)


def test_flip_rejects_locally_delaunay_edge():
    good = next(d for d in (True, False) if is_locally_delaunay(
        quad_complex(d), quad_complex(d).interior_facets()[0]))
    cx = quad_complex(good)
    with pytest.raises(InvalidComplexError):
        flip(cx, cx.interior_facets()[0])


def test_reverse_flip_roundtrip():
    good = next(d for d in (True, False) if is_locally_delaunay(
        quad_complex(d), quad_complex(d).interior_facets()[0]))
    cx = quad_complex(good)
    (facet,) = cx.interior_facets()
    rec = reverse_flip(cx, facet)
    assert rec.direction == FROM_DELAUNAY
    assert rec.after_max_circumradius >= rec.before_max_circumradius - 1e-12
    assert not is_locally_delaunay(cx, cx.interior_facets()[0])


def test_legalize_small_sets_match_delaunay():
    rng = np.random.default_rng(123)
    for trial in range(25):
        pts = rng.uniform(size=(9, 2)) * 4
        dt = delaunay_2d(pts)
        cx = scrambled(pts, seed=trial)
        out, records = legalize_to_delaunay(cx)
        assert sorted(out.cells) == sorted(dt.cells)
        for rec in records:
            assert rec.after_max_circumradius <= rec.before_max_circumradius + 1e-9


def test_flip_records_equal_scalar_circumsphere_radii():
    """Replays each legalization's flips on a copy of its input: the
    recorded radii equal the larger scalar ``circumsphere`` radius of the
    two cells before and after the flip."""
    rng = np.random.default_rng(321)
    flips = 0
    for trial in range(50):
        pts = rng.uniform(size=(int(rng.integers(8, 25)), 2)) * 4
        cx = scrambled(pts, seed=trial, flips=int(rng.integers(1, 12)))
        replay = cx.copy()
        _, records = legalize_to_delaunay(cx)
        for rec in records:
            old = replay.facet_cells(rec.facet)
            a, b = [sum(c) - sum(rec.facet) for c in old]
            new = [tuple(sorted((a, b, w))) for w in rec.facet]
            radius = lambda cells: max(
                circumsphere(replay.points[list(c)]).radius for c in cells)
            assert rec.before_max_circumradius == radius(old)
            assert rec.after_max_circumradius == radius(new)
            for cell in old:
                replay._remove_cell(cell)
            for cell in new:
                replay._add_cell(cell)
            flips += 1
    assert flips > 100


def _per_flip_records(cx, records):
    """Replays the flips of ``records`` on a copy of ``cx`` with one
    ``circumradii`` call per flip over its old and new cells, made before
    the complex changes: the log of a flip-by-flip legalization."""
    replay = cx.copy()
    log = []
    for rec in records:
        u, v = rec.facet
        old = replay.facet_cells(rec.facet)
        a, b = [sum(c) - sum(rec.facet) for c in old]
        new = [tuple(sorted((a, b, u))), tuple(sorted((a, b, v)))]
        radii = circumradii(replay.points[np.array(old + new, dtype=np.int64)])
        log.append(FlipRecord(rec.facet, float(radii[:2].max()), float(radii[2:].max()),
                              TO_DELAUNAY))
        for cell in old:
            replay._remove_cell(cell)
        for cell in new:
            replay._add_cell(cell)
    return log, replay


def test_legalize_records_equal_per_flip_circumradii():
    rng = np.random.default_rng(606)
    flips = 0
    for trial in range(60):
        n = 10 + trial % 21
        pts = rng.uniform(size=(n, 2)) * 6
        cx = scrambled(pts, seed=trial, flips=1 + trial % 11)
        out, records = legalize_to_delaunay(cx)
        log, replay = _per_flip_records(cx, records)
        assert records == log
        assert replay.cells == out.cells
        flips += len(records)
    assert flips > 200


def test_legalize_radius_failure_raises_and_keeps_input(monkeypatch):
    rng = np.random.default_rng(11)
    cx = scrambled(rng.uniform(size=(20, 2)) * 4, seed=3, flips=10)
    cells, adjacency = set(cx._cells), {f: list(cs) for f, cs in cx.facet_adjacency.items()}
    assert first_non_delaunay_facet(cx) is not None

    def failing(stack):
        raise DegenerateSimplexError("circumsphere solve lost accuracy")

    monkeypatch.setattr(triangulation, "circumradii", failing)
    with pytest.raises(DegenerateSimplexError, match="lost accuracy"):
        legalize_to_delaunay(cx)
    assert cx._cells == cells and cx.facet_adjacency == adjacency


def test_copies_share_the_float_rows():
    cx = quad_complex()
    rows = cx.point_rows
    assert rows == QUAD.tolist() and cx.point_rows is rows
    assert cx.copy().point_rows is rows


def test_legalize_already_delaunay_zero_flips():
    rng = np.random.default_rng(5)
    dt = delaunay_2d(rng.uniform(size=(20, 2)))
    out, records = legalize_to_delaunay(dt)
    assert records == []
    assert sorted(out.cells) == sorted(dt.cells)


def test_legalize_postcondition_raises(monkeypatch):
    # a flip loop that wrongly sees every edge as locally Delaunay leaves the
    # non-Delaunay diagonal in place; the final check must catch it
    real = triangulation.is_locally_delaunay
    cx = next(c for c in map(quad_complex, (True, False))
              if not all(real(c, f) for f in c.interior_facets()))
    calls = []

    def blind_first_pass(c, facet):
        calls.append(facet)
        return True if len(calls) <= len(cx.interior_facets()) else real(c, facet)

    monkeypatch.setattr(triangulation, "is_locally_delaunay", blind_first_pass)
    with pytest.raises(InvalidComplexError, match="non-Delaunay"):
        legalize_to_delaunay(cx)


def test_legalize_idempotent():
    rng = np.random.default_rng(9)
    cx = scrambled(rng.uniform(size=(15, 2)) * 3, seed=2)
    once, rec1 = legalize_to_delaunay(cx)
    twice, rec2 = legalize_to_delaunay(once)
    assert rec2 == []
    assert sorted(once.cells) == sorted(twice.cells)


def test_legalize_max_circumradius_monotone():
    rng = np.random.default_rng(77)
    cx = scrambled(rng.uniform(size=(25, 2)) * 5, seed=7, flips=20)
    before_q = uniform_bound_q(cx)
    out, records = legalize_to_delaunay(cx)
    assert uniform_bound_q(out) <= before_q + 1e-9


def test_uniform_bound_q_single_triangle():
    cx = build_complex([(0, 0), (4, 0), (0, 3)], [(0, 1, 2)])
    assert uniform_bound_q(cx) == pytest.approx(2.5, abs=1e-12)


def test_legalize_cocircular_raises_jitter_advice():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    cx = build_complex(square, [(0, 1, 2), (0, 2, 3)])
    with pytest.raises(NonGenericError, match="jitter"):
        legalize_to_delaunay(cx)


def test_json_roundtrip_bit_exact():
    rng = np.random.default_rng(1)
    cx = delaunay_2d(rng.normal(size=(12, 2)))
    from delone.triangulation import TriangulationComplex

    back = TriangulationComplex.from_json(cx.to_json())
    assert np.array_equal(back.points, cx.points)
    assert back.cells == cx.cells


@pytest.mark.parametrize("key, value", [
    ("schema", 2), ("schema", None), ("dimension", 3), ("dimension", None),
    ("points", None), ("cells", None),
], ids=["schema", "no-schema", "dimension", "no-dimension", "no-points", "no-cells"])
def test_from_json_refuses_a_file_that_does_not_describe_the_complex(key, value):
    data = json.loads(quad_complex().to_json())
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(InvalidComplexError, match=key):
        TriangulationComplex.from_json(json.dumps(data))


@pytest.mark.parametrize("edit, message", [
    (lambda text: text[1:], "a complex file must be JSON: Extra data"),
    (lambda text: f"[{text}]", "a complex file is a JSON object, not list"),
    (lambda text: re.sub(r'"cells": \[.*?\]\]', '"cells": 5', text), "cells must be a list, not int"),
    (lambda text: text.replace('"provenance": {}', '"provenance": 5'),
     "provenance must be a JSON object, not int"),
    (lambda text: text.replace('"provenance": {}', '"provenance": [1, 2]'),
     "provenance must be a JSON object, not list"),
    (lambda text: re.sub(r'"points": \[.*?\]\]', '"points": "abc"', text),
     "points must be rows of numbers: could not convert"),
    (lambda text: re.sub(r'"points": \[\[.*?\]', '"points": [[0.0]', text),
     "points must be rows of numbers: setting an array element"),
    # a null is read as NaN; each is refused before the cells are built
    *((lambda text, token=token: text.replace("1.1", token, 1),
       f"point 2 has a non-finite coordinate: [3.2, {value}]")
      for token, value in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"),
                           ("null", "nan"))),
], ids=["not-json", "top-level-list", "cells-5", "provenance-5", "provenance-list",
        "points-text", "ragged-points", "nan-point", "infinite-point", "negative-infinite-point", "null-point"])
def test_from_json_names_text_that_is_not_a_complex(edit, message):
    text = edit(quad_complex().to_json())
    with pytest.raises(InvalidComplexError, match="^" + re.escape(message)):
        TriangulationComplex.from_json(text)


@pytest.mark.parametrize("edit", [
    lambda data: data.pop("provenance"),
    lambda data: data.update(provenance=None),
], ids=["missing", "null"])
def test_from_json_reads_a_missing_or_null_provenance_as_empty(edit):
    data = json.loads(quad_complex().to_json())
    edit(data)
    cx = TriangulationComplex.from_json(json.dumps(data))
    assert cx.provenance == {} and cx.copy().provenance == {}


def per_float_json(cx):
    """``to_json`` with one ``float`` per coordinate and one list per cell
    tuple: the reference for its bytes."""
    return json.dumps(
        {
            "schema": 1,
            "dimension": cx.dim,
            "points": [[float(x) for x in p] for p in cx.points],
            "cells": [list(c) for c in cx.cells],
            "provenance": cx.provenance,
        }
    )


JSON_COMPLEXES = {
    "lattice-2d-24": lambda: delaunay_2d(lattice_window(2, 24, jitter=True, seed=3).points),
    "lattice-3d-7": lambda: delaunay._lower_hull_complex(
        lattice_window(3, 7, jitter=True, seed=3).points, {"generator": "lattice"}),
    "reverse-flipped": lambda: scrambled(
        lattice_window(2, 8, jitter=True, seed=1).points, seed=2, flips=30),
}


@pytest.mark.parametrize("case", sorted(JSON_COMPLEXES))
def test_to_json_writes_the_per_float_bytes(case):
    cx = JSON_COMPLEXES[case]()
    # array-built complexes come with their cell array; flipped ones do not
    assert (cx._cells_array is None) == (case == "reverse-flipped")
    assert cx.to_json() == per_float_json(cx)


class _MiniWindow:
    def __init__(self, points, radius):
        self.points = points
        self.window_radius = radius


def _jittered_grid_window():
    rng = np.random.default_rng(4)
    # a blue-noise-ish cloud: grid plus jitter keeps spacing positive
    g = np.arange(-12, 13, dtype=float)
    xs, ys = np.meshgrid(g, g)
    pts = np.c_[xs.ravel(), ys.ravel()] + rng.uniform(-0.35, 0.35, (len(g) ** 2, 2))
    keep = np.linalg.norm(pts, axis=1) <= 12
    return _MiniWindow(pts[keep], 12.0)


def test_build_unbounded_prefix_small():
    cx = build_unbounded_prefix(_jittered_grid_window(), phases=3)
    edges = {
        e
        for cell in cx.cells
        for e in ((cell[0], cell[1]), (cell[1], cell[2]), (cell[0], cell[2]))
    }
    longest = max(np.linalg.norm(cx.points[a] - cx.points[b]) for a, b in edges)
    assert longest > 3.0
    # every covered window point is a vertex (exact closed containment)
    unused = np.setdiff1d(np.arange(len(cx.points)), cx.vertices_used())
    hits, _ = triangulation._containing_pairs(cx.points[cx.cells_array()],
                                              cx.points[unused])
    assert len(hits) == 0


def test_vertices_used_are_the_unique_cell_vertices():
    """One counting pass gives what ``np.unique`` of the cells gives, on a
    prefix complex that leaves most window points unused and after flips."""
    cx = build_unbounded_prefix(_jittered_grid_window(), phases=2).copy()
    rng = np.random.default_rng(6)
    for flips in range(7):
        if flips:  # one more reverse flip, at a random edge that takes one
            facets = sorted(cx.interior_facets())
            for k in rng.permutation(len(facets)):
                try:
                    reverse_flip(cx, facets[k])
                    break
                except GeometryError:
                    continue
        want = np.unique(np.array(cx.cells, dtype=np.int64))
        got = cx.vertices_used()
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert len(got) < len(cx.points)


def test_prefix_builder_splits_point_on_boundary_edge():
    # a covered point lying exactly inside a hull edge must split that edge
    # and keep the hull cycle consistent
    from delone.triangulation import _PrefixBuilder

    pts = np.array([
        (0.0, 0.0), (4.0, 0.0), (2.0, 3.0),  # seed triangle
        (2.0, 0.0),  # exactly on the hull edge 0-1
        (1.0, 1.0),  # strictly inside
    ])
    b = _PrefixBuilder(pts)
    b.seed(0, 1, 2)
    b.split_interior_points([3, 4])
    assert b.is_vertex.all()
    cx = build_complex(pts, b.cx.cells)
    assert cx.n_cells == 4
    assert 3 in b.hull and len(b.hull) == 4
    # every cell uses the on-edge point or the interior point correctly
    assert cx.cell_measures().sum() == pytest.approx(6.0, rel=1e-12)


def test_prefix_point_in_space_norm_prefilter_keeps_the_scan():
    """The squared-norm rejection agrees with the full ``orient2d`` scan of
    the hull for every point, while growing a hull star by star."""
    from delone.triangulation import _PrefixBuilder

    window = poisson_delone_window(0.4, 1.5, 8, seed=2)
    pts = np.asarray(window.points, dtype=float)
    order = np.argsort(np.linalg.norm(pts, axis=1), kind="stable").tolist()
    b = _PrefixBuilder(pts)
    b.seed(*order[:3])
    rejected = 0
    for w in order[3:40]:
        hull, xy = b.hull, b.xy
        for idx in range(len(pts)):
            scan = all(
                geometry.orient2d(*xy[hull[t]], *xy[hull[(t + 1) % len(hull)]], *xy[idx]) >= 0
                for t in range(len(hull)))
            assert b.point_in_space(idx) == scan
            rejected += b.sq[idx] > b.reach * (1.0 + 1e-12)
        if not b.point_in_space(w):
            b.star_exterior(w)
    assert rejected > 1000


# Recorded when the prefix builder still passed NumPy rows to its exact
# predicates: (number of cells, sha256 of repr(list(cx._cells)) to 16 hex
# digits, provenance["long_edges"]).  The predicates are exact on the same
# doubles, so any change of input type must leave the cells and their order.
PREFIX_PINS = {
    0: (68, "e5f4e611f9f9d9ae", [[89, 105], [89, 111], [78, 61]]),
    1: (68, "db4c819d5d851210", [[42, 17], [17, 149], [27, 108]]),
    2: (60, "a4c6c1b12ba54515", [[41, 126], [41, 113], [19, 102]]),
    "grid": (103, "f561c2c4fd243501", [[224, 218], [218, 214], [178, 150]]),
}


@pytest.mark.parametrize("case", list(PREFIX_PINS))
def test_build_unbounded_prefix_pinned(case):
    if case == "grid":
        window = _jittered_grid_window()
    else:
        window = poisson_delone_window(0.4, 1.5, 10, seed=case)
    cx = build_unbounded_prefix(window, phases=3)
    n_cells, digest, long_edges = PREFIX_PINS[case]
    cells = repr(list(cx._cells))
    assert (len(cx._cells), hashlib.sha256(cells.encode()).hexdigest()[:16]) == (n_cells, digest)
    assert cx.provenance["long_edges"] == long_edges


def test_scalar_predicates_receive_python_floats(monkeypatch):
    # orient2d/incircle2d take about 7x longer on np.float64 scalars than on
    # Python floats; np.float64 subclasses float, so test the exact type
    calls = Counter()

    def checked(module, name):
        pred = getattr(geometry, name)

        def wrapper(*args):
            coords = [c for a in args for c in (a if name == "on_open_segment" else [a])]
            assert all(type(c) is float for c in coords), (module.__name__, name, args)
            calls[module.__name__, name] += 1
            return pred(*args)
        return wrapper

    for module in (triangulation, oracle, delaunay):
        for name in ("orient2d", "incircle2d", "on_open_segment"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, checked(module, name))
    window = poisson_delone_window(0.4, 1.5, 10, seed=0)
    build_unbounded_prefix(window, phases=2)
    oracle.noncrossing_triangulations(np.random.default_rng(3).uniform(size=(6, 2)))
    delaunay._mesh_delaunay_2d(window.points, {})  # compare's build
    assert {key for key, n in calls.items() if n} == {
        ("delone.triangulation", "orient2d"),
        ("delone.triangulation", "on_open_segment"),
        ("delone.oracle", "orient2d"),
        ("delone.oracle", "on_open_segment"),
        ("delone.delaunay", "orient2d"),
        ("delone.delaunay", "incircle2d"),
    }


def test_build_unbounded_prefix_phase_edges_grow():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-10, 10, size=(600, 2))
    keep = np.linalg.norm(pts, axis=1) <= 10
    window = _MiniWindow(pts[keep], 10.0)
    cx = build_unbounded_prefix(window, phases=2)
    for k, (a, b) in enumerate(cx.provenance["long_edges"], start=1):
        assert np.linalg.norm(cx.points[a] - cx.points[b]) > k


# ---------------------------------------------------------------------------
# facet adjacency filled on first use, and build-time validation


def cell_set_by_loop(cells):
    """The cell set as the per-cell build loop filled it: each cell's sorted
    tuple added in input order."""
    cell_set = set()
    for cell in cells:
        cell_set.add(tuple(sorted(int(v) for v in cell)))
    return cell_set


def eager_adjacency(cells, dim):
    """The build-time loop that filled ``facet_adjacency`` on every build:
    the cells deduplicated into a set, then each cell's facets appended in
    set iteration order."""
    adjacency = {}
    for cell in list(cell_set_by_loop(cells)):
        for facet in itertools.combinations(cell, dim):
            adjacency.setdefault(facet, []).append(cell)
    return adjacency


def first_error_by_cell_loop(points, cells):
    """The per-cell validation loop of ``build_complex`` before its checks
    were batched: (exception type, message) of the first failure, or None."""
    points = np.asarray(points, dtype=float)
    n, dim = points.shape
    cell_set = set()
    for cell in cells:
        cell = tuple(sorted(int(v) for v in cell))
        if len(cell) != dim + 1 or len(set(cell)) != dim + 1:
            return InvalidComplexError, f"cell {cell} is not a {dim}-simplex"
        if cell[0] < 0 or cell[-1] >= n:
            return InvalidComplexError, f"cell {cell} references missing points"
        if cell in cell_set:
            return InvalidComplexError, f"duplicate cell {cell}"
        cell_set.add(cell)
    adjacency = {}
    for cell in list(cell_set):
        if orientation(points[list(cell)]) == 0:
            return DegenerateSimplexError, f"cell {cell} is degenerate"
        for facet in itertools.combinations(cell, dim):
            adjacency.setdefault(facet, []).append(cell)
    for facet, incident in adjacency.items():
        if len(incident) > 2:
            return (InvalidComplexError,
                    f"facet {facet} is shared by {len(incident)} cells (non-manifold)")
    return None


ADJACENCY_WINDOWS = {
    "lattice-2d": lambda: delaunay_2d(lattice_window(2, 8, jitter=True, seed=1).points),
    "poisson-2d": lambda: delaunay_2d(poisson_delone_window(0.5, 1.5, 8, seed=2).points),
    "lattice-3d": lambda: delaunay_3d(lattice_window(3, 3, jitter=True, seed=3).points),
    "distorted-cube-6": lambda: delaunay_3d(distorted_cubic_window(6).points),
}


def _feeds(cells, seed):
    shuffled = list(cells)
    np.random.default_rng(seed).shuffle(shuffled)
    rotated = [c[k % len(c):] + c[:k % len(c)] for k, c in enumerate(reversed(cells))]
    return {"as-is": list(cells), "shuffled": shuffled, "reversed-rotated": rotated}


@pytest.mark.parametrize("window", sorted(ADJACENCY_WINDOWS))
def test_facet_adjacency_filled_on_first_use_equals_eager_loop(window):
    cx = ADJACENCY_WINDOWS[window]()
    for feed in _feeds(cx.cells, seed=len(window)).values():
        fresh = build_complex(cx.points, feed)
        assert fresh._adjacency is None
        want = eager_adjacency(feed, cx.dim)
        assert list(fresh.facet_adjacency.items()) == list(want.items())
        assert fresh.interior_facets() == [f for f, cs in want.items() if len(cs) == 2]


CHEV = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 2.0), (3.0, 0.5), (2.0, 0.0)]


@pytest.mark.parametrize("cells", [
    [(0, 1, 2), (0, 1)],  # ragged
    [(0, 1, 2), (1, 2, 3, 4)],
    [(0, 1, 9), (0, 1)],  # out of range before wrong length
    [(0, 1, -1)],
    [(0, 0, 1)],
    [(0, 1, 2), (1, 3, 2), (2, 1, 0)],  # duplicate
    [(0, 1, 2), (1, 2, 3), (0, 1, 5)],  # degenerate (0, 1, 5)
    [(0, 1, 5), (1, 3, 5), (0, 1, 2), (1, 4, 5)],  # degenerate, and non-manifold
    [(0, 1, 2), (1, 2, 3), (1, 3, 4), (1, 2, 4)],  # non-manifold (1, 2)
    [(1, 3, 4), (1, 2, 4), (0, 1, 2), (1, 2, 3), (1, 4, 5), (3, 4, 5)],
    [(0, 1, 2), (1, 2, 3), (2, 3, 4)],  # valid
], ids=["ragged", "wrong-length", "range-before-length", "negative", "repeated-vertex",
        "duplicate", "degenerate", "degenerate-and-non-manifold", "non-manifold",
        "two-non-manifold", "valid"])
def test_build_complex_raises_the_cell_loops_first_error(cells):
    want = first_error_by_cell_loop(CHEV, cells)
    if want is None:
        build_complex(CHEV, cells)
        return
    with pytest.raises(want[0]) as info:
        build_complex(CHEV, cells)
    assert type(info.value) is want[0] and str(info.value) == want[1]


@pytest.mark.parametrize("form", [list, np.array], ids=["list", "ndarray"])
def test_non_integer_vertex_ids_are_refused(form):
    cells = form([(1, 3, 4), (0, 1, 2.9)])
    assert first_error_by_cell_loop(CHEV, cells) is None  # the loop read (0, 1, 2)
    with pytest.raises(InvalidComplexError, match="integers"):
        build_complex(CHEV, cells)
    text = json.dumps({"schema": 1, "dimension": 2, "points": CHEV,
                       "cells": [[1, 3, 4], [0, 1, 2.9]]})
    with pytest.raises(InvalidComplexError, match="integers"):
        TriangulationComplex.from_json(text)



@pytest.mark.parametrize("cells", [[(0, 1, (2, 3))], [(0, 1, None)], [0, 1, 2], [[0, 1, 2], 5]],
                         ids=["nested", "none", "flat", "scalar-row"])
def test_malformed_rows_are_refused(cells):
    with pytest.raises(InvalidComplexError):  # the loop raised a TypeError
        build_complex(CHEV, cells)


def assert_same_build(cx, ref):
    assert cx.cells == ref.cells
    assert list(cx._cells) == list(ref._cells)
    assert list(cx.facet_adjacency.items()) == list(ref.facet_adjacency.items())
    assert cx.provenance == ref.provenance


def test_restrictions_equal_build_complex_of_their_cells():
    rng = np.random.default_rng(6)
    built = 0
    while built < 20:
        pts = rng.uniform(size=(int(rng.integers(5, 9)), 2)) * 4.0
        try:
            tris = oracle.enumerate_triangulations_2d(pts)
        except NonGenericError:
            continue
        region_cells = [c for c in tris[-1].cells if rng.random() < 0.6] or tris[-1].cells
        sub = delaunay.restrict_delaunay(tris[0], build_complex(pts, region_cells))
        # restrict_delaunay built its result from the kept cells in sorted order
        assert_same_build(sub, build_complex(pts, sub.cells, provenance=sub.provenance))
        built += 1


def test_g_trial_regions_equal_build_complex_of_their_cells(monkeypatch):
    regions = []
    check = oracle.check_g_inequality

    def spy(spec, region, dcx):
        regions.append(region)
        return check(spec, region, dcx)

    monkeypatch.setattr(oracle, "check_g_inequality", spy)
    oracle.run_g_trials(FunctionalSpec("FE"), 20, seed=2)
    assert len(regions) == 20
    for region in regions:  # the trial's cells, in sorted order
        assert_same_build(region, build_complex(region.points, region.cells))


def test_builds_that_read_no_facet_leave_the_adjacency_unfilled():
    assert delaunay_3d(lattice_window(3, 3, jitter=True, seed=3).points)._adjacency is None
    w = lattice_window(2, 8, jitter=True, seed=1)
    cx = TriangulationComplex.from_json(delaunay_2d(w.points).to_json())
    density_sequence(cx, FunctionalSpec("AREA"), (0, 0), [2.0, 4.0],
                     window_radius=w.window_radius, q_bound=w.R)
    assert cx._adjacency is None


def test_builds_that_read_no_cell_set_never_build_it():
    cx3 = delaunay_3d(lattice_window(3, 3, jitter=True, seed=3).points)
    assert cx3._cell_set is None and cx3.n_cells == len(cx3.cells)
    w = lattice_window(2, 8, jitter=True, seed=1)
    text = delaunay_2d(w.points).to_json()
    cx = TriangulationComplex.from_json(text)
    assert cx.to_json() == text
    density_sequence(cx, FunctionalSpec("AREA"), (0, 0), [2.0, 4.0],
                     window_radius=w.window_radius, q_bound=w.R)
    assert cx.n_cells == len(json.loads(text)["cells"])
    uniform_bound_q(cx)
    assert cx._cell_set is None
    # the first read builds it from the input rows, as the per-cell loop did
    assert list(cx._cells) == list(cell_set_by_loop(json.loads(text)["cells"]))


def _reverse_flips(cx, facet):
    try:
        reverse_flip(cx.copy(), facet)
    except InvalidComplexError:
        return False
    return True


def test_mutations_of_a_fresh_complex_match_an_eagerly_filled_one():
    dcx = delaunay_2d(lattice_window(2, 8, jitter=True, seed=1).points)
    facet = next(f for f in sorted(dcx.interior_facets()) if _reverse_flips(dcx, f))
    new = next(c for c in itertools.combinations(range(5), 3) if not dcx.has_cell(c))

    def pair():
        fresh = build_complex(dcx.points, dcx.cells)
        eager = build_complex(dcx.points, dcx.cells)
        eager._adjacency = eager_adjacency(dcx.cells, 2)
        assert fresh._adjacency is None
        return fresh, eager

    ops = {
        "add": lambda cx: cx._add_cell(new),
        "remove": lambda cx: cx._remove_cell(dcx.cells[3]),
        "flip": lambda cx: reverse_flip(cx, facet),
        "copy": lambda cx: cx.copy(),
    }
    for name, op in ops.items():
        fresh, eager = pair()
        out_fresh, out_eager = op(fresh), op(eager)
        if name == "copy":
            fresh, eager = out_fresh, out_eager
        assert list(fresh.facet_adjacency.items()) == list(eager.facet_adjacency.items()), name


def test_cells_array_is_read_only_and_refreshed_after_a_flip():
    cx = quad_complex()
    arr = cx.cells_array()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0, 0] = 1
    assert cx.cells_array() is arr
    flip(cx, (0, 2))
    assert cx.cells_array().tolist() == [list(c) for c in cx.cells] == [[0, 1, 3], [1, 2, 3]]
    assert arr.tolist() == [[0, 1, 2], [0, 2, 3]]


# ---------------------------------------------------------------------------
# array validation against the per-cell loop it replaced


def builder_feed(build, points):
    """The cells argument a Delaunay builder hands ``build_complex``."""
    feeds = []

    def spy(pts, cells, **kw):
        feeds.append(cells)
        return build_complex(pts, cells, **kw)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(delaunay, "build_complex", spy)
        build(points)
    return np.asarray(points, dtype=float), feeds[0]


ARRAY_WINDOWS = {
    "lattice-2d-24": lambda: builder_feed(
        delaunay_2d, lattice_window(2, 24, jitter=True, seed=3).points),
    "poisson-2d-26": lambda: builder_feed(
        delaunay_2d, poisson_delone_window(0.5, 1.5, 26, seed=1).points),
    "lattice-3d-7": lambda: builder_feed(
        lambda p: delaunay._lower_hull_complex(p), lattice_window(3, 7, jitter=True, seed=3).points),
    "distorted-cube-6": lambda: builder_feed(
        lambda p: delaunay._lower_hull_complex(p), distorted_cubic_window(6).points),
}


@pytest.fixture(scope="module", params=sorted(ARRAY_WINDOWS))
def array_window(request):
    return ARRAY_WINDOWS[request.param]()


def _input_forms(cells, seed):
    tuples = [tuple(int(v) for v in c) for c in cells]
    forms = _feeds(tuples, seed)
    forms["lists"] = [list(c) for c in tuples]
    forms["ndarray"] = np.array(tuples)
    return forms


def assert_builds_like_the_loop(cx, points, cells):
    """``cx`` is what the per-cell loop built from ``cells``: no error, the
    same cell set in the same order, the sorted cells, and the adjacency."""
    assert first_error_by_cell_loop(points, cells) is None
    want = cell_set_by_loop(cells)
    assert list(cx._cells) == list(want)
    assert cx.cells == sorted(want)
    assert cx.cells_array().tolist() == [list(c) for c in sorted(want)]
    assert not cx.cells_array().flags.writeable
    assert list(cx.facet_adjacency.items()) == list(eager_adjacency(cells, cx.dim).items())


def test_array_path_builds_what_the_loop_builds(array_window):
    points, feed = array_window
    forms = {"builder": feed, **_input_forms(feed, seed=len(feed))}
    for cells in forms.values():
        assert_builds_like_the_loop(build_complex(points, cells), points, cells)


def test_small_builds_match_the_loop():
    # from no cell up: orientations switches to NumPy at 8 cells
    points, feed = ARRAY_WINDOWS["poisson-2d-26"]()
    for m in (0, 1, 2, 7, 8, 63, 64):
        cells = list(feed)[:m]
        assert_builds_like_the_loop(build_complex(points, cells), points, cells)


def test_builds_whose_cell_keys_overflow_int64_match_the_loop():
    # cell keys are vertex ids as digits in base n: n**4 >= 2**63 in 3D, where
    # the rows are lexsorted instead; zero pages use no memory
    pts = lattice_window(3, 3, jitter=True, seed=3).points
    cx = delaunay._lower_hull_complex(pts)
    cells, k = cx.cells, len(pts)
    a, b, c = sorted(cx.interior_facets())[0]
    third = next((a, b, c, w) for w in range(k) if len({a, b, c, w}) == 4
                 and orientation(pts[[a, b, c, w]]) != 0 and not cx.has_cell((a, b, c, w)))
    faults = {
        "duplicate": cells[:9] + [cells[5][::-1]] + cells[9:],
        "degenerate": cells[:9] + [(k, k + 1, k + 2, k + 3)] + cells[9:],
        "non-manifold": cells[:9] + [third] + cells[9:],
    }
    for n in (55_108, 55_109):
        points = np.zeros((n, 3))
        points[:k] = pts
        assert_builds_like_the_loop(build_complex(points, cells), points, cells)
        for name, feed in faults.items():
            want = first_error_by_cell_loop(points, feed)
            assert want is not None, name
            with pytest.raises(want[0]) as info:
                build_complex(points, feed)
            assert type(info.value) is want[0] and str(info.value) == want[1], (n, name)


def test_certificate_refuses_facet_keys_that_overflow_int64():
    # facet keys are vertex ids as digits in base n: n**3 >= 2**63 in 3D
    cx = delaunay._lower_hull_complex(lattice_window(3, 3, jitter=True, seed=3).points)
    for n in (2**21 - 1, 2**21):
        points = np.zeros((n, 3))  # untouched pages: no memory is used
        points[:len(cx.points)] = cx.points
        wide = TriangulationComplex(dim=3, points=points, _cell_set=None,
                                    _cells_array=cx.cells_array())
        if n < 2**21:
            assert first_non_delaunay_facet(wide) == first_non_delaunay_facet(cx)
        else:
            with pytest.raises(ValueError, match="overflow int64"):
                first_non_delaunay_facet(wide)


FAULTS = ["ragged", "wrong-length", "out-of-range", "negative", "repeated-vertex",
          "duplicate", "duplicate-apart", "degenerate", "non-manifold",
          "degenerate-and-non-manifold", "out-of-range-then-duplicate"]


@pytest.fixture(scope="module")
def faulty():
    """Points, a valid complex, and that complex with each fault of FAULTS
    injected."""
    w = lattice_window(2, 8, jitter=True, seed=1)
    valid = delaunay_2d(w.points)
    n = len(valid.points)
    # three exactly collinear points for the degenerate cell, and a triangle
    # apart from the window, whose facets no other cell shares
    points = np.vstack([valid.points, [[20.0, 20.0], [21.0, 21.0], [22.0, 22.0]],
                        [[30.0, 30.0], [31.0, 30.0], [30.0, 31.0]]])
    cells = list(valid._cells)
    k = len(cells) // 2
    u, v = sorted(valid.interior_facets())[k]  # an interior edge
    w3 = next(x for x in range(n) if x not in {u, v} and not valid.facet_cells((u, x))
              and not valid.facet_cells((v, x)))
    third = (u, v, w3)  # a third cell on the interior edge (u, v)
    a, b, c = cells[k]
    faults = {
        "ragged": cells[:k] + [(a, b)] + cells[k:],
        "wrong-length": cells[:k] + [(a, b, c, (c + 1) % n)] + cells[k + 1:],
        "out-of-range": cells[:k] + [(a, b, len(points) + 3)] + cells[k + 1:],
        "negative": cells[:k] + [(a, b, -1)] + cells[k + 1:],
        "repeated-vertex": cells[:k] + [(a, b, b)] + cells[k + 1:],
        "duplicate": cells[:k] + [(c, a, b)] + cells[k:],
        "duplicate-apart": cells + [(n + 3, n + 4, n + 5), (n + 5, n + 4, n + 3)],
        "degenerate": cells[:k] + [(n, n + 1, n + 2)] + cells[k:],
        "non-manifold": cells[:k] + [third] + cells[k:],
        "degenerate-and-non-manifold": [third] + cells + [(n + 2, n + 1, n)],
        "out-of-range-then-duplicate":
            cells[:3] + [(a, b, len(points))] + cells[3:] + [cells[0]],
    }
    assert sorted(faults) == sorted(FAULTS)
    return points, cells, faults


@pytest.mark.parametrize("n_pad", [0, 55_109], ids=["keyed", "lexsorted"])
def test_random_faults_raise_the_loops_first_error(n_pad):
    """Subsets of a valid complex with up to three random faults: each build
    raises what the loop raised first, or builds what it built."""
    rng = np.random.default_rng(5)
    for d, valid in ((2, delaunay_2d(lattice_window(2, 4, jitter=True, seed=1).points)),
                     (3, delaunay_3d(lattice_window(3, 2, jitter=True, seed=1).points))):
        n = len(valid.points)  # ids n.. are at the origin: a degenerate cell
        points = np.vstack([valid.points, np.zeros((max(n_pad - n, d + 1), d))])
        for _ in range(150):
            cells = [list(valid.cells[i]) for i in rng.permutation(valid.n_cells)]
            cells = cells[:rng.integers(len(cells) + 1)]
            for _ in range(rng.integers(4)):
                fault = [
                    lambda: list(reversed(cells[rng.integers(len(cells))])) if cells else [],
                    lambda: rng.integers(-2, n + 5, size=d + 1).tolist(),
                    lambda: rng.integers(n, size=rng.choice([d, d + 1, d + 2])).tolist(),
                    lambda: list(range(n, n + d + 1)),
                    lambda: list(valid.cells[rng.integers(valid.n_cells)][:d]) + [rng.integers(n)],
                ][rng.integers(5)]()
                cells.insert(rng.integers(len(cells) + 1), fault)
            want = first_error_by_cell_loop(points, cells)
            if want is None:
                assert_builds_like_the_loop(build_complex(points, cells), points, cells)
                continue
            with pytest.raises(want[0]) as info:
                build_complex(points, cells)
            assert str(info.value) == want[1], cells


def test_a_duplicate_in_the_3d_hull_array_raises_the_loops_message():
    points, feed = ARRAY_WINDOWS["lattice-3d-7"]()
    assert isinstance(feed, np.ndarray)
    feed = np.insert(feed, 40, feed[3][::-1], axis=0)
    want = first_error_by_cell_loop(points, feed)
    assert want == (InvalidComplexError, f"duplicate cell {tuple(sorted(map(int, feed[3])))}")
    with pytest.raises(InvalidComplexError) as info:
        build_complex(points, feed)
    assert str(info.value) == want[1]


@pytest.mark.parametrize("fault", FAULTS)
def test_array_path_raises_the_loops_first_error(fault, faulty):
    points, cells, faults = faulty
    assert build_complex(points, cells)._cells_array is not None
    want = first_error_by_cell_loop(points, faults[fault])
    assert want is not None
    feeds = [faults[fault], [list(c) for c in faults[fault]]]
    if fault not in ("ragged", "wrong-length"):
        feeds.append(np.array(faults[fault]))
    for feed in feeds:
        with pytest.raises(want[0]) as info:
            build_complex(points, feed)
        assert type(info.value) is want[0] and str(info.value) == want[1]
