import itertools
import re
import types
from fractions import Fraction

import numpy as np
import pytest

from delone import delaunay, geometry, memo
from delone.delaunay import (
    delaunay_2d,
    delaunay_3d,
    radon_split,
    radon_two_triangulations,
    restrict_delaunay,
    verify_empty_circumspheres,
)
from delone.errors import (
    DegenerateSimplexError,
    GeometryError,
    InvalidComplexError,
    NonGenericError,
)
from delone.generators import (
    distorted_cubic_window,
    lattice_window,
    poisson_delone_window,
    stream_rng,
)
from delone.geometry import (
    Side,
    in_sphere,
    in_spheres,
    incircle2d,
    lift,
    on_open_segment,
    orient2d,
    orientation,
    orientations,
    point_in_simplex,
)
from delone.oracle import enumerate_triangulations_2d
from delone.triangulation import (
    build_complex,
    first_non_delaunay_facet,
    is_locally_delaunay,
    legalize_to_delaunay,
    reverse_flip,
)


def jittered_grid_2d(n, seed, eta=1e-6):
    rng = np.random.default_rng(seed)
    g = np.arange(n, dtype=float)
    xs, ys = np.meshgrid(g, g)
    pts = np.c_[xs.ravel(), ys.ravel()]
    return pts + rng.uniform(-eta, eta, pts.shape)


def test_one_interior_point_star():
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)]
    cx = delaunay_2d(pts)
    assert cx.n_cells == 3
    assert all(3 in cell for cell in cx.cells)
    verify_empty_circumspheres(cx)  # independent emptiness oracle


def test_quadrilateral_takes_locally_delaunay_diagonal():
    from delone.triangulation import is_locally_delaunay

    pts = [(0.0, 0.0), (3.0, 0.0), (3.2, 1.1), (0.0, 1.0)]
    cx = delaunay_2d(pts)
    (facet,) = cx.interior_facets()
    assert is_locally_delaunay(cx, facet)


def test_jittered_grid_empty_circumcircles():
    pts = jittered_grid_2d(10, seed=0)
    cx = delaunay_2d(pts)  # certified: every interior edge locally Delaunay
    from scipy.spatial import ConvexHull

    hull_size = len(ConvexHull(pts).vertices)
    assert cx.n_cells == 2 * len(pts) - 2 - hull_size  # Euler relation
    out, records = legalize_to_delaunay(cx)
    assert records == []


def test_unjittered_square_grid_is_nongeneric():
    g = np.arange(3, dtype=float)
    xs, ys = np.meshgrid(g, g)
    pts = np.c_[xs.ravel(), ys.ravel()]
    with pytest.raises(NonGenericError):
        delaunay_2d(pts)


def test_collinear_rejected():
    with pytest.raises(DegenerateSimplexError):
        delaunay_2d([(0, 0), (1, 0), (2, 0), (3, 0)])


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        delaunay_2d([(0, 0), (1, 0), (0, 1), (1, 0)])
    # two duplicate pairs: the first pair in lexicographic order is named
    pts = np.array([(0, 0), (1, 0), (0, 1), (2, 2), (1, 0), (0, 1)], dtype=float)
    lex = np.lexsort((pts[:, 1], pts[:, 0]))
    first = next((int(s), int(t)) for s, t in zip(lex, lex[1:])
                 if pts[s][0] == pts[t][0] and pts[s][1] == pts[t][1])
    assert first == (2, 5)
    with pytest.raises(ValueError, match=r"^duplicate points 2 and 5$"):
        delaunay_2d(pts)


NAN, INF = float("nan"), float("inf")
SQUARE = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
CUBE = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
        (1.0, 1.0, 1.2)]
# 40 distinct points on a tilted plane, on an axis plane and on a line; dyadic
# coordinates keep each set exactly coplanar in floats, so Qhull must refuse it
UV = np.unique(np.random.default_rng(7).integers(-320, 320, size=(41, 2)), axis=0)[:40] / 32
T = np.arange(-16, 24) / 4
COPLANAR = [np.c_[UV, 0.5 * UV[:, 0] - 3 * UV[:, 1] + 1.25],
            np.c_[UV[:, 0], np.full(40, 2.0), UV[:, 1]],
            np.c_[1 + T, -2 * T, 3 + T / 2]]


@pytest.mark.parametrize("build, points, error, message", [
    (delaunay_2d, [0.0, 1.0, 2.0, 3.0], ValueError,
     "points must form an (n, 2) array, not one of shape (4,)"),
    (delaunay_2d, np.zeros((4, 3)), ValueError,
     "points must form an (n, 2) array, not one of shape (4, 3)"),
    (delaunay_2d, SQUARE[:3] + [(0.5, NAN)], ValueError,
     "point 3 has a non-finite coordinate: [0.5, nan]"),
    (delaunay_2d, [(INF, 0.0)] + SQUARE + [(-INF, NAN)], ValueError,
     "point 0 has a non-finite coordinate: [inf, 0.0]"),
    (delaunay_2d, [], DegenerateSimplexError, "delaunay_2d needs at least 3 planar points"),
    (delaunay_2d, SQUARE[:2], DegenerateSimplexError,
     "delaunay_2d needs at least 3 planar points"),
    (delaunay_2d, [(0, 0), (1, 1), (2, 2), (3, 3)], DegenerateSimplexError,
     "all points are collinear"),
    (delaunay_2d, SQUARE + [(1.0, 0.0)], ValueError, "duplicate points 1 and 4"),
    (delaunay_3d, np.zeros(15), ValueError,
     "points must form an (n, 3) array, not one of shape (15,)"),
    (delaunay_3d, np.zeros((5, 3, 1)), ValueError,
     "points must form an (n, 3) array, not one of shape (5, 3, 1)"),
    (delaunay_3d, CUBE[:4] + [(0.2, -INF, 0.2)], ValueError,
     "point 4 has a non-finite coordinate: [0.2, -inf, 0.2]"),
    (delaunay_3d, CUBE[:4], DegenerateSimplexError,
     "delaunay_3d needs at least 5 points in R^3"),
    (delaunay_3d, CUBE + [CUBE[1]], ValueError, "duplicate points 1 and 5"),
    (delaunay_3d, [(x, x * x, 0.0) for x in range(6)], DegenerateSimplexError,
     "all points are coplanar"),
    (delaunay.delaunay_of, [0.0, 1.0, 2.0], ValueError,
     "only dimensions 2 and 3 are supported, not points of shape (3,)"),
    *[(delaunay_3d, pts, DegenerateSimplexError, "all points are coplanar") for pts in COPLANAR],
])
def test_bad_point_arrays_raise_typed_errors(build, points, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(points)


def test_big_random_cloud_sampled_verification():
    rng = np.random.default_rng(42)
    pts = rng.uniform(size=(500, 2)) * 20
    cx = delaunay_2d(pts)  # every edge certified, above the 200-point cutoff
    assert cx.n_cells > 900


def test_delaunay_3d_tet_plus_centroid():
    tet = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], dtype=float)
    pts = np.vstack([tet, tet.mean(axis=0)[None, :]])
    cx = delaunay_3d(pts)
    assert cx.n_cells == 4
    assert all(4 in cell for cell in cx.cells)


def test_delaunay_3d_jittered_grid():
    rng = np.random.default_rng(1)
    g = np.arange(3, dtype=float)
    xs, ys, zs = np.meshgrid(g, g, g)
    pts = np.c_[xs.ravel(), ys.ravel(), zs.ravel()]
    pts = pts + rng.uniform(-1e-6, 1e-6, pts.shape)
    cx = delaunay_3d(pts)  # exhaustive emptiness scan at 27 points
    from scipy.spatial import ConvexHull

    assert cx.cell_measures().sum() == pytest.approx(
        ConvexHull(pts).volume, rel=1e-9
    )


def test_delaunay_3d_distorted_cube_is_seven_tetrahedra():
    pts = []
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                d = 1.0 / (2 + abs(k))
                pts.append((float(i), float(j), k + ((-1) ** (i + j)) * d))
    cx = delaunay_3d(np.array(pts))
    assert cx.n_cells == 7


def lower_facet_cells_by_scalar_loop(pts):
    """The per-facet classification loop with scalar predicates: the
    reference for the batched one in ``delaunay_3d``."""
    from scipy.spatial import ConvexHull

    from delone.geometry import lift, orientation

    lifted = np.array([lift(p) for p in pts])
    hull = ConvexHull(lifted, qhull_options="Qt")
    interior = lifted.mean(axis=0)
    cells = []  # in Qhull's facet order
    for facet in hull.simplices:
        base = lifted[facet]
        below = base.mean(axis=0)
        below[3] -= 1.0
        s_down = orientation(np.vstack([base, below]))
        if s_down == 0:
            continue
        s_in = orientation(np.vstack([base, interior]))
        assert s_in != 0
        cell = tuple(sorted(int(v) for v in facet))
        if s_in != s_down and orientation(pts[list(cell)]) != 0:
            cells.append(cell)
    return cells


@pytest.mark.parametrize("window", ["distorted-cube", "jittered-lattice"])
def test_delaunay_3d_batched_classification_matches_scalar_loop(window):
    from delone.generators import distorted_cubic_window, lattice_window

    if window == "distorted-cube":
        pts = distorted_cubic_window(4.0).points
    else:
        pts = lattice_window(3, 4.0, jitter=True, seed=3).points
    cx = delaunay._lower_hull_complex(pts)
    ref = build_complex(pts, lower_facet_cells_by_scalar_loop(pts))
    # same cells, inserted in the same order
    assert list(cx.facet_adjacency.items()) == list(ref.facet_adjacency.items())


def test_batched_lift_equals_lift_bit_for_bit():
    pts = lattice_window(3, 16.0, jitter=True, seed=3).points
    assert len(pts) == 17_077
    want = np.array([lift(p) for p in pts])
    assert delaunay._lifted(pts).tobytes() == want.tobytes()


def test_delaunay_3d_coplanar_rejected():
    pts = np.zeros((6, 3))
    pts[:, 0] = np.arange(6)
    pts[:, 1] = np.arange(6) ** 2
    with pytest.raises(DegenerateSimplexError):
        delaunay_3d(pts)


def test_delaunay_3d_spanning_input_refused_by_qhull_is_non_generic(monkeypatch):
    import scipy.spatial

    def refused(*args, **kwargs):
        raise scipy.spatial.QhullError("refused")

    def spans(pts):
        calls.append(len(pts))
        return spans_3d(pts)

    calls, spans_3d = [], delaunay._spans_3d
    monkeypatch.setattr(delaunay, "_spans_3d", spans)
    delaunay_3d(CUBE)
    assert calls == []  # the span check runs only once Qhull refuses
    monkeypatch.setattr(scipy.spatial, "ConvexHull", refused)
    with pytest.raises(NonGenericError, match="^lifted hull is degenerate: refused "):
        delaunay_3d(CUBE)
    assert calls == [5]


def test_lower_hull_matches_exhaustive_emptiness():
    # oracle equivalence: every cell of the lower-hull route passes the
    # brute-force in_sphere scan, and the cells tile the hull volume
    rng = np.random.default_rng(7)
    for _ in range(5):
        pts = rng.normal(size=(40, 3))
        cx = delaunay_3d(pts)
        from scipy.spatial import ConvexHull

        assert cx.cell_measures().sum() == pytest.approx(
            ConvexHull(pts).volume, rel=1e-9
        )


def test_radon_2d_two_diagonals():
    pts = [(0.0, 0.0), (3.0, 0.0), (3.2, 1.1), (0.0, 1.0)]
    D, T = radon_two_triangulations(pts)
    assert D.n_cells == 2 and T.n_cells == 2
    assert set(D.cells) | set(T.cells) == {
        (0, 1, 2), (0, 2, 3), (0, 1, 3), (1, 2, 3)
    }
    assert not set(D.cells) & set(T.cells)
    # D is the Delaunay pair
    assert sorted(D.cells) == sorted(delaunay_2d(pts).cells)


def test_radon_3d_bipyramid():
    rng = np.random.default_rng(10)
    seen = 0
    while seen < 10:
        pts = rng.normal(size=(5, 3))
        try:
            D, T = radon_two_triangulations(pts)
        except ValueError:
            continue  # a point inside the hull of the others
        seen += 1
        assert {D.n_cells, T.n_cells} == {2, 3}
        assert D.cell_measures().sum() == pytest.approx(
            T.cell_measures().sum(), rel=1e-9
        )


def test_radon_rejects_interior_point():
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)]
    with pytest.raises(ValueError):
        radon_two_triangulations(pts)


def test_radon_rejects_cocircular():
    with pytest.raises(NonGenericError):
        radon_two_triangulations([(0, 0), (1, 0), (1, 1), (0, 1)])


def scalar_radon_split(points):
    """Reference split: one orientation, closed point-in-simplex and
    in-sphere test per leave-one-out simplex, raising in that order."""
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n != d + 2:
        raise ValueError("radon_two_triangulations needs exactly d+2 points")
    lower, upper = [], []
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        simplex = pts[rest]
        if orientation(simplex) == 0:
            raise NonGenericError(f"points without {i} are affinely degenerate")
        if point_in_simplex(simplex, pts[i]):
            raise ValueError(
                f"point {i} lies inside the convex hull of the others"
            )
        side = in_sphere(simplex, pts[i])
        if side == Side.ON:
            raise NonGenericError(f"all {n} points are cospherical")
        (lower if side == Side.OUTSIDE else upper).append(tuple(rest))
    return lower, upper


def split_outcome(split, pts):
    try:
        return split(pts)
    except ValueError as exc:
        return type(exc), str(exc)


# integer points on the circle and the sphere of radius 5 about the origin
RADIUS5 = {
    d: np.array([p for p in itertools.product(range(-5, 6), repeat=d)
                 if sum(x * x for x in p) == 25], dtype=float)
    for d in (2, 3)
}


def radon_inputs(d, seed, count):
    """Seeded d+2 point sets: uniform, on an integer grid (degenerate
    subsets and interior points are common), and cospherical with an
    offset (all ON, or degenerate subsets)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(size=(d + 2, d))
        yield rng.integers(0, 3, size=(d + 2, d)).astype(float)
        picks = rng.choice(len(RADIUS5[d]), size=d + 2, replace=False)
        yield RADIUS5[d][picks] + rng.integers(-3, 4, size=d) / 8


@pytest.mark.parametrize("d", [2, 3])
def test_radon_split_matches_scalar_split(d):
    kinds = {"ok": 0, NonGenericError: 0, ValueError: 0}
    for pts in radon_inputs(d, seed=40 + d, count=400):
        want = split_outcome(scalar_radon_split, pts)
        assert split_outcome(radon_split, pts) == want
        kinds[want[0] if isinstance(want[0], type) else "ok"] += 1
    assert min(kinds.values()) > 50  # every outcome is exercised
    for shape in ((3, 2), (3, 1), (6, 4)):  # wrong count, R^1, R^4
        with pytest.raises(ValueError, match="exactly d\\+2 points in R\\^2 or R\\^3"):
            radon_split(np.zeros(shape))


@pytest.mark.parametrize("d", [2, 3])
def test_radon_split_orients_each_leave_one_out_simplex_once(d):
    """An accepted split takes d+2 orientations: the in-sphere side of S_0
    reads its orientation from lam_0 instead of orienting S_0 again."""
    kernel = {2: "orient2d", 3: "_orient3d"}[d]
    calls = []

    def counting(*args, _kernel=getattr(geometry, kernel)):
        calls.append(args)
        return _kernel(*args)

    accepted = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, kernel, counting)
        for pts in radon_inputs(d, seed=80 + d, count=200):
            calls.clear()
            if isinstance(split_outcome(radon_split, pts)[0], list):
                accepted += 1
                assert len(calls) == d + 2
    assert accepted > 50


def built_radon_pair(points):
    """Reference pair: ``radon_split``'s cell lists through ``build_complex``,
    whose checks ``radon_two_triangulations`` leaves to the split's signs."""
    pts = np.asarray(points, dtype=float)
    return tuple(build_complex(pts, cells) for cells in radon_split(pts))


def pair_outcome(make_pair, pts):
    """Everything a caller can read of a pair, in iteration order, or the
    type and message of the error."""
    try:
        pair = make_pair(pts)
    except ValueError as exc:
        return type(exc), str(exc)
    return [(cx.dim, list(cx._cells), cx.cells, cx.cells_array().tolist(),
             list(cx.facet_adjacency.items()), cx.provenance, cx.points.tobytes())
            for cx in pair]


@pytest.mark.parametrize("d", [2, 3])
def test_radon_pair_equals_built_complexes(d):
    kinds = {"ok": 0, "inside": 0, "cospherical": 0, "degenerate": 0}
    for pts in radon_inputs(d, seed=60 + d, count=600):
        want = pair_outcome(built_radon_pair, pts)
        assert pair_outcome(radon_two_triangulations, pts) == want
        if isinstance(want, list):
            kinds["ok"] += 1
        else:
            kind = next(k for k in ("inside", "cospherical", "degenerate") if k in want[1])
            kinds[kind] += 1
            assert want[0] is (ValueError if kind == "inside" else NonGenericError)
    assert kinds["ok"] >= 500 and min(kinds.values()) > 20, kinds


def test_restrict_delaunay_full_and_single():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(12, 2)) * 5
    D = delaunay_2d(pts)
    assert sorted(restrict_delaunay(D, D).cells) == sorted(D.cells)
    single = build_complex(D.points, [D.cells[0]])
    assert restrict_delaunay(D, single).cells == [D.cells[0]]


def test_restrict_delaunay_radon_other_triangulation():
    pts = [(0.0, 0.0), (3.0, 0.0), (3.2, 1.1), (0.0, 1.0)]
    D, T = radon_two_triangulations(pts)
    assert sorted(restrict_delaunay(D, T).cells) == sorted(D.cells)


def test_restrict_delaunay_nonconvex_region_not_overcounted():
    # an L-shaped union: cells of D spanning the notch must be excluded
    pts = np.array([
        (0.0, 0.0), (2.0, 0.1), (4.0, 0.0),
        (0.0, 2.0), (1.9, 2.1), (4.1, 2.0),
    ])
    D = delaunay_2d(pts)
    region_cells = [c for c in D.cells if 4 not in c]
    region = build_complex(pts, region_cells)
    restricted = restrict_delaunay(D, region)
    assert sorted(restricted.cells) == sorted(region_cells)


def exact_area(poly):
    return abs(sum(p[0] * q[1] - q[0] * p[1]
                   for p, q in zip(poly, poly[1:] + poly[:1]))) / 2


def exact_clipped_area(poly, region_tri):
    """Exact area of the intersection of a convex polygon and a triangle:
    Sutherland-Hodgman clipping in rational arithmetic."""
    a, b, c = region_tri
    if (b[0] - a[0]) * (c[1] - a[1]) < (b[1] - a[1]) * (c[0] - a[0]):
        b, c = c, b
    for u, v in ((a, b), (b, c), (c, a)):
        dx, dy = v[0] - u[0], v[1] - u[1]
        sides = [dx * (p[1] - u[1]) - dy * (p[0] - u[0]) for p in poly]
        out = []
        for p, q, sp, sq in zip(poly, poly[1:] + poly[:1], sides, sides[1:] + sides[:1]):
            if sp >= 0:
                out.append(p)
            if sp * sq < 0:
                t = sp / (sp - sq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
        if len(poly) < 3:
            return 0
    return exact_area(poly)


def exact_restriction(D, region):
    """Reference: the cells of D whose exact area equals the exact area they
    share with the region cells (which have disjoint interiors)."""
    def exact(cx, cell):
        return [tuple(map(Fraction, p)) for p in cx.cell_coords(cell).tolist()]

    rtris = [exact(region, c) for c in region.cells]
    kept = []
    for cell in D.cells:
        tri = exact(D, cell)
        area, shared = exact_area(tri), 0
        for rtri in rtris:
            if shared == area:
                break
            if all(max(p[k] for p in rtri) >= min(p[k] for p in tri)
                   and min(p[k] for p in rtri) <= max(p[k] for p in tri) for k in (0, 1)):
                shared += exact_clipped_area(tri, rtri)
        if shared == area:
            kept.append(cell)
    return kept


def test_restrict_delaunay_matches_exact_area_reference():
    # 300 (Y, T') pairs as in run_g_trials: for 100 sets of 5..8 random
    # points, a random triangulation, its non-Delaunay cells and a random
    # subset of its cells
    rng = stream_rng(4, "restrict-reference")
    done = 0
    while done < 300:
        pts = rng.uniform(size=(int(rng.integers(5, 9)), 2)) * 4.0
        try:
            tris = enumerate_triangulations_2d(pts)
        except NonGenericError:
            continue
        cells = tris[int(rng.integers(len(tris)))].cells
        for region_cells in (
            cells,
            [c for c in cells if c not in set(tris[0].cells)] or cells,
            [c for c in cells if rng.random() < 0.5] or cells,
        ):
            region = build_complex(pts, region_cells)
            assert restrict_delaunay(tris[0], region).cells == \
                exact_restriction(tris[0], region), done
            done += 1


def test_restrict_delaunay_drops_cell_with_sliver_outside_region():
    # edge (3, 4) cuts a corner of relative area 1e-10 off Delaunay cell
    # (0, 1, 2); a 1e-9 area tolerance would keep the cell
    pts = np.array([(0, 0), (1, 0), (0, 1), (-1, 1 + 1e-5), (1 + 1e-5, -1)])
    D = delaunay_2d(pts)
    assert (0, 1, 2) in D.cells
    T = next(t for t in enumerate_triangulations_2d(pts)
             if any({3, 4} <= set(c) for c in t.cells))
    region = build_complex(pts, [c for c in T.cells if 0 not in c])
    assert restrict_delaunay(D, region).cells == exact_restriction(D, region) == []


def test_restrict_delaunay_rejects_3d():
    D = build_complex(np.eye(4, 3), [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="2D only"):
        restrict_delaunay(D, D)


def test_restrict_delaunay_rejects_other_points():
    pts = np.random.default_rng(3).uniform(size=(8, 2))
    D = delaunay_2d(pts)
    moved = build_complex(pts + 1.0, D.cells)
    with pytest.raises(ValueError, match="not a complex on the Delaunay points"):
        restrict_delaunay(D, moved)


def test_restrict_delaunay_rejects_region_cell_holding_a_point():
    pts = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)])
    D = delaunay_2d(pts)
    region = build_complex(pts, [(0, 1, 2)])
    with pytest.raises(ValueError, match=r"point 3 lies in region cell \(0, 1, 2\)"):
        restrict_delaunay(D, region)


# ---------------------------------------------------------------------------
# verification and interior-facet certificates


def first_bad_pair_scalar(cx, *, exhaustive_limit=200, samples=2000, seed=0):
    """The scalar loop behind ``verify_empty_circumspheres``: the side,
    vertex and cell of the first (cell, vertex) pair that is not OUTSIDE."""
    n = len(cx.points)
    if n <= exhaustive_limit:
        pairs = [(cell, v) for cell in cx.cells for v in range(n) if v not in cell]
    else:
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(samples):
            cell = cx.cells[int(rng.integers(len(cx.cells)))]
            v = int(rng.integers(n))
            if v not in cell:
                pairs.append((cell, v))
    for cell, v in pairs:
        side = in_sphere(cx.cell_coords(cell), cx.points[v])
        if side != Side.OUTSIDE:
            return side, v, cell
    return None


def _scrambled_grid(n=8):
    cx = delaunay_2d(jittered_grid_2d(n, seed=3, eta=0.1))
    for facet in sorted(cx.interior_facets())[::7]:
        try:
            reverse_flip(cx, facet)
        except GeometryError:
            continue  # no longer interior, not convex or not locally Delaunay
    return cx


def _radon_other_3d():
    pts = [(0.0, 0.0, 0.0), (2.0, 0.1, 0.0), (0.2, 2.0, 0.1), (0.1, 0.3, 2.0),
           (1.5, 1.4, 1.6)]
    return radon_two_triangulations(pts)[1]


VERIFY_CASES = {
    "scrambled-2d": (_scrambled_grid, {}),
    "scrambled-2d-sampled": (_scrambled_grid, {"exhaustive_limit": 0, "samples": 3000}),
    "scrambled-2d-over-200": (lambda: _scrambled_grid(16), {"seed": 4}),
    "square-2d": (lambda: build_complex(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], [(0, 1, 2), (0, 2, 3)]), {}),
    "radon-other-3d": (_radon_other_3d, {}),
    "distorted-cube-3d": (
        lambda: delaunay._lower_hull_complex(distorted_cubic_window(3).points), {}),
}


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verification_names_the_scalar_loops_first_bad_pair(case):
    build, kwargs = VERIFY_CASES[case]
    cx = build()
    side, v, cell = first_bad_pair_scalar(cx, **kwargs)
    with pytest.raises(GeometryError) as info:
        verify_empty_circumspheres(cx, **kwargs)
    want = InvalidComplexError if side == Side.INSIDE else NonGenericError
    assert type(info.value) is want
    assert f"vertex {v} " in str(info.value) and f"cell {cell}" in str(info.value)


@pytest.mark.parametrize("m, n, seed", [(9212, 1419, 0), (4618, 896, 1), (5, 3, 2),
                                         (1, 7, 3), (300, 2**40, 4)])
def test_one_draw_call_matches_alternating_scalar_draws(m, n, seed):
    # the sampled pairs of verify_empty_circumspheres, drawn in one call
    ref = np.random.default_rng(seed)
    want = [(ref.integers(m), ref.integers(n)) for _ in range(2000)]
    rng = np.random.default_rng(seed)
    ci, v = rng.integers(0, np.tile([m, n], 2000)).reshape(-1, 2).T
    assert ci.dtype == v.dtype == np.int64
    assert list(zip(ci.tolist(), v.tolist())) == want
    assert rng.bit_generator.state == ref.bit_generator.state


def interior_facet_sides(cx):
    """Every interior facet, and the side of its second cell's opposite
    vertex against the circumsphere of its first cell."""
    facets = cx.interior_facets()
    incident = [cx.facet_cells(f) for f in facets]
    first = np.array([c0 for c0, _ in incident])
    opposite = [(set(c1) - set(f)).pop() for f, (_, c1) in zip(facets, incident)]
    return facets, incident, in_spheres(cx.points[first], cx.points[opposite])


# lattice3d jitter seeds (benchmark seed, pass) whose W = 7 build is not
# Delaunay, with the first facet that is not locally Delaunay
NON_DELAUNAY_LATTICES = [
    (14000112, (1223, 1234, 1314)),  # seed 2, pass 10
    (14000154, (52, 59, 131)),  # seed 2, pass 16
    (28000182, (1100, 1113, 1231)),  # seed 4, pass 14
    (35000168, (854, 999, 1013)),  # seed 5, pass 9
]


@pytest.mark.xfail(strict=True, raises=InvalidComplexError, reason=(
    "Qhull's lifted lower hull is one 2-3 flip off here: the named facet is "
    "not locally Delaunay, and the sampled verification above 200 points "
    "misses it; a fix needs exact 3D flips"))
@pytest.mark.parametrize("seed, facet", NON_DELAUNAY_LATTICES,
                         ids=[str(seed) for seed, _ in NON_DELAUNAY_LATTICES])
def test_delaunay_3d_jittered_lattice_every_interior_facet_locally_delaunay(seed, facet):
    cx = delaunay_3d(lattice_window(3, 7.0, jitter=True, seed=seed).points)
    bad = first_non_delaunay_facet(cx)
    # another facet, or an assertion error, fails the test outright
    assert bad in (None, facet), bad
    if bad is not None:
        raise InvalidComplexError(f"facet {bad} is not locally Delaunay")


@pytest.mark.parametrize("W, ties", [(4, 37), (6, 65)])
def test_distorted_cube_ties_lie_outside_the_report_region(W, ties):
    """The cospherical interior facets of the distorted cube each have a
    vertex beyond norm W - 2, where ``distorted_cube_report`` (margin
    ``CUBE_MARGIN`` = 2) counts no cube, so its verdict does not depend on how Qhull
    breaks the ties."""
    cx = delaunay_3d(distorted_cubic_window(W).points)
    facets, incident, sides = interior_facet_sides(cx)
    assert not (sides == Side.INSIDE).any()
    on = np.flatnonzero(sides == Side.ON)
    assert len(on) == ties
    for k in on:
        five = sorted(set(incident[k][0]) | set(incident[k][1]))
        assert np.linalg.norm(cx.points[five], axis=1).max() > W - 2


@pytest.mark.xfail(strict=True, reason=(
    "delaunay_3d's distorted-cube output is not face-to-face: at W = 4 the "
    "rectangle (198, 199, 234, 235) in the plane x + y = 4 is split along "
    "198-235 by the cells with apex 238 and along 199-234 by those with apex "
    "193, so single-cell facets lie strictly inside the hull (20, 24 and 16 "
    "at W = 4, 5 and 6); the float coverage check passes; every such facet "
    "lies beyond norm W - 2"))
@pytest.mark.parametrize("W", [4, 5, 6])
def test_delaunay_3d_distorted_cube_single_cell_facets_lie_on_the_hull(W):
    pts = distorted_cubic_window(W).points
    cx = delaunay_3d(pts)
    facets = np.array(cx.boundary_facets())
    n = len(pts)
    # each single-cell facet against every point: all on one closed side
    stack = np.concatenate([np.repeat(pts[facets][:, None], n, axis=1),
                            np.broadcast_to(pts[None, :, None], (len(facets), n, 1, 3))],
                           axis=2)
    signs = orientations(stack.reshape(-1, 4, 3)).reshape(len(facets), n)
    inside = (signs > 0).any(axis=1) & (signs < 0).any(axis=1)
    assert not inside.any(), [tuple(f) for f in facets[inside].tolist()]


# ---------------------------------------------------------------------------
# the exact local-Delaunay certificate of the 2D builder


def test_delaunay_2d_names_one_reversed_edge(monkeypatch):
    """One interior edge of a 1.8k-point window reverse-flipped: proposed
    by Qhull, the certificate rejects it and the mesh build is returned;
    built by the mesh as well, the certificate names it.  2,000 sampled
    (cell, vertex) pairs almost never meet the one bad pair."""
    import scipy.spatial

    pts = lattice_window(2, 24.0, jitter=True, seed=3).points
    good = delaunay_2d(pts)
    for facet in good.interior_facets():
        bad_cx = good.copy()
        try:
            reverse_flip(bad_cx, facet)
        except GeometryError:
            continue
        bad = [f for f in bad_cx.interior_facets() if not is_locally_delaunay(bad_cx, f)]
        if len(bad) == 1:
            break
    assert len(pts) > 1000 and len(bad) == 1
    assert first_non_delaunay_facet(bad_cx) == reference_first_non_delaunay_facet(bad_cx) == bad[0]
    monkeypatch.setattr(scipy.spatial, "Delaunay",
                        lambda pts: types.SimpleNamespace(simplices=bad_cx.cells_array()))
    seeded = mesh_builds(monkeypatch)
    cx = delaunay_2d(pts)
    assert len(seeded) == 1
    want = delaunay._mesh_delaunay_2d(pts, {})
    assert cx.cells == good.cells and cx.interior_facets() == want.interior_facets()
    monkeypatch.setattr(delaunay._Mesh2D, "real_cells", lambda mesh: bad_cx.cells)
    with pytest.raises(InvalidComplexError, match=re.escape(f"facet {bad[0]} ")):
        delaunay_2d(pts)


def test_qhull_wrong_diagonal_falls_back_to_the_mesh():
    """``gen lattice --d 2 --W 24 --jitter --seed 301001113``: Qhull proposes
    the wrong diagonal of a nearly cocircular quadrilateral (exact in-circle
    determinant about 2.2e-12), and the exact mesh build is returned."""
    from scipy.spatial import Delaunay

    pts = lattice_window(2, 24.0, jitter=True, seed=301001113).points
    proposal = build_complex(pts, Delaunay(pts).simplices)
    assert reference_first_non_delaunay_facet(proposal) == (396, 438)
    assert first_non_delaunay_facet(proposal) == (396, 438)
    want = build_complex(pts, tuple_mesh_cells(pts))
    cx = delaunay_2d(pts)
    assert cx.cells == want.cells
    assert cx.interior_facets() == want.interior_facets()
    assert (396, 438) not in cx.facet_adjacency


def mesh_builds(monkeypatch):
    """A list that gains an entry each time ``_Mesh2D`` is seeded."""
    seed, seeded = delaunay._Mesh2D.seed, []

    def recorded(mesh, *ijk):
        seeded.append(ijk)
        return seed(mesh, *ijk)

    monkeypatch.setattr(delaunay._Mesh2D, "seed", recorded)
    return seeded


def test_small_inputs_build_with_the_mesh_large_ones_defer_it(monkeypatch):
    """Below 32 points the mesh builds the cells; from 32 on it is deferred
    to the fallback, so reading an accepted Qhull build never runs it."""
    seeded = mesh_builds(monkeypatch)
    rng = np.random.default_rng(14)
    pts = rng.uniform(size=(delaunay.QHULL_MIN_POINTS - 1, 2))
    small = delaunay_2d(pts)
    assert len(seeded) == 1
    assert small.cells == build_complex(pts, tuple_mesh_cells(pts)).cells
    pts = rng.uniform(size=(delaunay.QHULL_MIN_POINTS, 2))
    large = delaunay_2d(pts)
    assert large.interior_facets() and large.cells == build_complex(pts, tuple_mesh_cells(pts)).cells
    assert len(seeded) == 1


def scrambles(cx, rng, flips):
    """A copy of ``cx`` after each reverse flip that succeeds, out of
    ``flips`` tries on random interior edges."""
    cx = cx.copy()
    for _ in range(flips):
        facets = cx.interior_facets()
        try:
            reverse_flip(cx, facets[int(rng.integers(len(facets)))])
        except GeometryError:
            continue  # not locally Delaunay or not strictly convex
        yield cx.copy()


def error_type(check, cx):
    try:
        check(cx)
    except GeometryError as exc:
        return type(exc)
    return None


def local_pass(cx):
    if first_non_delaunay_facet(cx) is not None:
        raise InvalidComplexError("not locally Delaunay")


def reference_first_non_delaunay_facet(cx):
    """The certificate as a walk of ``facet_adjacency``: the first interior
    facet, in ``interior_facets()`` order, whose second cell's opposite
    vertex lies inside the first cell's circumsphere, or None; raises
    ``NonGenericError`` at the first cospherical (ON) one."""
    pairs = [(f, cs) for f, cs in cx.facet_adjacency.items() if len(cs) == 2]
    if not pairs:
        return None
    facets = [f for f, _ in pairs]
    near = np.array([cs[0] for _, cs in pairs], dtype=np.int64)
    far = [sum(cs[1]) - sum(f) for f, cs in pairs]
    sides = in_spheres(cx.points[near], cx.points[far])
    on = np.flatnonzero(sides == Side.ON)
    if len(on):
        raise NonGenericError(f"facet {facets[on[0]]}: cospherical opposite vertex")
    inside = np.flatnonzero(sides == Side.INSIDE)
    return facets[inside[0]] if len(inside) else None


def certificate_outcome(check, cx):
    """``check(cx)``'s verdict: True if it finds no bad facet, False if it
    names one, and ``NonGenericError`` if it raises that."""
    try:
        return check(cx) is None
    except NonGenericError:
        return NonGenericError


# a 3D jittered lattice per seed; 14000112 is the lower hull one flip off
LATTICES_3D = [(4.0, 1), (5.0, 2), (6.0, 3), (7.0, 14000112)]


@pytest.mark.parametrize("seed", range(4))
def test_array_verdict_agrees_with_the_facet_scan(seed):
    """The array certificate against the adjacency walk: the same verdict on
    every complex, and the same facet where exactly one facet is bad."""
    rng = np.random.default_rng(seed)
    complexes = []
    for n in range(4, 61, 4):
        cx = delaunay_2d(rng.uniform(size=(n, 2)) * 10)
        complexes += [cx, *scrambles(cx, rng, 6)]
    W, lattice_seed = LATTICES_3D[seed]
    complexes.append(delaunay._lower_hull_complex(
        lattice_window(3, W, jitter=True, seed=lattice_seed).points))
    verdicts, named = [], 0
    for tcx in complexes:
        verdicts.append(certificate_outcome(first_non_delaunay_facet, tcx))
        assert verdicts[-1] is certificate_outcome(reference_first_non_delaunay_facet, tcx)
        facets, _, sides = interior_facet_sides(tcx)
        if (sides == Side.INSIDE).sum() == 1 and not (sides == Side.ON).any():
            assert (first_non_delaunay_facet(tcx) == reference_first_non_delaunay_facet(tcx)
                    == facets[int(np.flatnonzero(sides == Side.INSIDE)[0])])
            named += 1
    assert True in verdicts and False in verdicts and named


def test_array_verdict_reads_cospherical_as_not_delaunay():
    cx = build_complex(SQUARE, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(NonGenericError, match=re.escape("facet (1, 2): cospherical")):
        first_non_delaunay_facet(cx)
    with pytest.raises(NonGenericError, match=re.escape("facet (1, 2): cospherical")):
        reference_first_non_delaunay_facet(cx)


def lattice_3d_one_flip_off():
    """The lower hull that the strict xfail above finds non-Delaunay."""
    return delaunay._lower_hull_complex(
        lattice_window(3, 7.0, jitter=True, seed=14000112).points)


def test_certificate_names_the_facet_of_the_3d_lattice_one_flip_off():
    assert first_non_delaunay_facet(lattice_3d_one_flip_off()) == (1223, 1234, 1314)


def test_certificate_names_the_same_facet_in_any_insertion_order():
    """"First" is lexicographic: the same cells built in two orders name
    the same facet, the least of the bad ones."""
    rng = np.random.default_rng(5)
    *_, scrambled = scrambles(delaunay_2d(rng.uniform(size=(40, 2)) * 10), rng, 30)
    counts = []
    for cx in (scrambled, lattice_3d_one_flip_off()):
        facets, _, sides = interior_facet_sides(cx)
        bad = sorted(f for f, side in zip(facets, sides) if side == Side.INSIDE)
        forward = build_complex(cx.points, cx.cells)
        backward = build_complex(cx.points, [c[::-1] for c in reversed(cx.cells)])
        assert bad and first_non_delaunay_facet(forward) == bad[0]
        assert first_non_delaunay_facet(backward) == bad[0]
        counts.append(len(bad))
    assert counts[0] > 1  # the 2D case has a choice to make


def test_delaunay_2d_certifies_without_the_adjacency_dict():
    """Neither path builds ``facet_adjacency`` to certify its result."""
    rng = np.random.default_rng(8)
    for pts in (rng.uniform(size=(delaunay.QHULL_MIN_POINTS - 1, 2)),  # the mesh
                rng.uniform(size=(200, 2)),  # Qhull's proposal
                lattice_window(2, 24.0, jitter=True, seed=301001113).points):  # the fallback
        cx = delaunay_2d(pts)
        assert cx._adjacency is None


def _memo_inputs():
    rng = np.random.default_rng(8)
    return {"mesh": (rng.uniform(size=(delaunay.QHULL_MIN_POINTS - 1, 2)), delaunay_2d),
            "qhull": (rng.uniform(size=(200, 2)), delaunay_2d),
            "fallback": (lattice_window(2, 24.0, jitter=True, seed=301001113).points, delaunay_2d),
            "3d": (lattice_window(3, 4.0, jitter=True, seed=1).points, delaunay_3d)}


def _refuse(*args, **kwargs):
    raise AssertionError("delaunay_of built again")


@pytest.mark.parametrize("name", ["mesh", "qhull", "fallback", "3d"])
def test_delaunay_of_reuses_its_last_complex_in_the_same_order(name, monkeypatch):
    """A call on the same points builds nothing, and its complex has the
    fresh build's cells, cell-set order and so ``interior_facets()`` order;
    it carries the caller's points and provenance."""
    pts, build = _memo_inputs()[name]
    memo.clear()
    first = delaunay.delaunay_of(pts, provenance={"pass": 1})
    fresh = build(pts)
    monkeypatch.setattr(delaunay, "delaunay_2d", _refuse)
    monkeypatch.setattr(delaunay, "delaunay_3d", _refuse)
    again = pts.copy()
    hit = delaunay.delaunay_of(again, provenance={"pass": 2})
    assert hit is not first and hit.points is again and hit.provenance == {"pass": 2}
    assert first.provenance == {"pass": 1}
    for cx in (first, hit):
        assert cx.cells == fresh.cells and cx.interior_facets() == fresh.interior_facets()
        assert list(cx.facet_adjacency.items()) == list(fresh.facet_adjacency.items())
    assert hit.to_json() == fresh.to_json().replace('"provenance": {}', '"provenance": {"pass": 2}')


def test_flips_on_a_reused_complex_leave_the_next_one_intact(monkeypatch):
    """``reverse_flip`` on the built complex and on a reused one changes
    neither the kept arrays nor the next call's complex."""
    pts = jittered_grid_2d(8, seed=3, eta=0.1)
    memo.clear()
    fresh = delaunay_2d(pts)
    for cx in (delaunay.delaunay_of(pts), delaunay.delaunay_of(pts)):
        flipped = 0
        for facet in sorted(cx.interior_facets())[::7]:
            try:
                reverse_flip(cx, facet)
                flipped += 1
            except GeometryError:
                continue
        assert flipped and cx.cells != fresh.cells
        monkeypatch.setattr(delaunay, "delaunay_2d", _refuse)
        nxt = delaunay.delaunay_of(pts)
        assert nxt.cells == fresh.cells and nxt.interior_facets() == fresh.interior_facets()


def test_delaunay_of_misses_on_a_one_ulp_change_and_on_negative_zero(monkeypatch):
    """Only the same bytes hit: -0.0 for 0.0 and a 1-ulp move both build anew."""
    pts = np.random.default_rng(2).uniform(size=(40, 2))
    pts[0] = 0.0
    negzero, moved = pts.copy(), pts.copy()
    negzero[0, 1] = -0.0
    moved[7, 1] = np.nextafter(moved[7, 1], np.inf)
    built, build = [], delaunay.delaunay_2d

    def counted(points, **kwargs):
        built.append(points)
        return build(points, **kwargs)

    monkeypatch.setattr(delaunay, "delaunay_2d", counted)
    memo.clear()
    for call in (pts, pts, negzero, negzero, moved, pts):
        delaunay.delaunay_of(call)
    assert [p is q for p, q in zip(built, (pts, negzero, moved, pts))] == [True] * 4
    assert len(built) == 4


@pytest.mark.parametrize("seed", range(4))
def test_local_pass_agrees_with_exhaustive_emptiness(seed):
    rng = np.random.default_rng(seed)
    outcomes = []
    for n in range(4, 61, 4):
        cx = delaunay_2d(rng.uniform(size=(n, 2)) * 10)
        for tcx in [cx, *scrambles(cx, rng, 6)]:
            want = error_type(
                lambda c: verify_empty_circumspheres(c, exhaustive_limit=10**6), tcx)
            assert error_type(local_pass, tcx) is want
            outcomes.append(want)
    assert outcomes.count(None) and outcomes.count(InvalidComplexError)


# ---------------------------------------------------------------------------
# the flat 2D mesh against the tuple-keyed mesh it replaced

GHOST = -1


class TupleMesh2D:
    """The former ``delaunay._Mesh2D``, verbatim but for its name: (u, v)
    tuple edge keys, ghost vertex -1 and one coordinate tuple per point.  The
    flat mesh must make its predicate calls and create its triangles in the
    same order."""

    def __init__(self, coords):
        self.coords = coords
        self.tri = {}
        self.edge2tri = {}
        self.next_id = 0
        self.last_real = None

    def _add(self, a, b, c):
        tid = self.next_id
        self.next_id += 1
        t = (a, b, c)
        self.tri[tid] = t
        for u, v in ((a, b), (b, c), (c, a)):
            self.edge2tri[(u, v)] = tid
        if GHOST not in t:
            self.last_real = tid
        return tid

    def _drop(self, tid):
        a, b, c = self.tri.pop(tid)
        for u, v in ((a, b), (b, c), (c, a)):
            del self.edge2tri[(u, v)]

    def seed(self, i, j, k):
        pi, pj, pk = self.coords[i], self.coords[j], self.coords[k]
        if orient2d(*pi, *pj, *pk) < 0:
            i, j = j, i
        self._add(i, j, k)
        self._add(j, i, GHOST)
        self._add(k, j, GHOST)
        self._add(i, k, GHOST)

    def _in_cavity(self, tid, qx, qy, qid) -> bool:
        t = self.tri[tid]
        if GHOST in t:
            a, b = t[0], t[1]  # ghost (a, b, GHOST): hull edge runs b -> a
            pa, pb = self.coords[a], self.coords[b]
            s = orient2d(*pa, *pb, qx, qy)
            if s > 0:
                return True
            if s == 0:
                return on_open_segment(pa, pb, (qx, qy))
            return False
        a, b, c = t
        s = incircle2d(*self.coords[a], *self.coords[b], *self.coords[c], qx, qy)
        if s == 0:
            raise NonGenericError(
                f"point {qid} is cocircular with triangle {t}"
            )
        return s > 0

    def _locate(self, qx, qy, qid) -> int:
        tid = self.last_real
        hops = 0
        limit = 4 * len(self.tri) + 64
        while True:
            hops += 1
            if hops > limit:
                raise RuntimeError("point location walk failed to terminate")
            t = self.tri[tid]
            if GHOST in t:
                break
            a, b, c = t
            pa, pb, pc = self.coords[a], self.coords[b], self.coords[c]
            if orient2d(*pa, *pb, qx, qy) < 0:
                tid = self.edge2tri[(b, a)]
            elif orient2d(*pb, *pc, qx, qy) < 0:
                tid = self.edge2tri[(c, b)]
            elif orient2d(*pc, *pa, qx, qy) < 0:
                tid = self.edge2tri[(a, c)]
            else:
                return tid  # q in the closed triangle
        # q escaped the hull: walk the ghost ring to the edge it falls in
        start = tid
        seen = 0
        while not self._in_cavity(tid, qx, qy, qid):
            a, b, _ = self.tri[tid]
            tid = self.edge2tri[(GHOST, b)]  # next ghost along the hull
            seen += 1
            if tid == start or seen > len(self.tri):
                raise RuntimeError("hull walk failed to locate an exterior point")
        return tid

    def insert(self, qid):
        qx, qy = self.coords[qid]
        t0 = self._locate(qx, qy, qid)
        if not self._in_cavity(t0, qx, qy, qid):
            raise RuntimeError("located triangle fails the cavity test")
        cavity = {t0}
        stack = [t0]
        boundary = []
        while stack:
            tid = stack.pop()
            a, b, c = self.tri[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                nb = self.edge2tri[(v, u)]
                if nb in cavity:
                    continue
                if self._in_cavity(nb, qx, qy, qid):
                    cavity.add(nb)
                    stack.append(nb)
                else:
                    boundary.append((u, v))
        for tid in cavity:
            self._drop(tid)
        for u, v in boundary:
            if u == GHOST:
                self._add(v, qid, GHOST)
            elif v == GHOST:
                self._add(qid, u, GHOST)
            else:
                self._add(u, v, qid)

    def real_cells(self):
        return [t for t in self.tri.values() if GHOST not in t]


def tuple_mesh_cells(points):
    """``TupleMesh2D.real_cells()`` after ``delaunay_2d``'s seed search and
    insertion loop as they were when it drove that mesh."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    order = delaunay._serpentine_order(pts)
    coords = [tuple(map(float, p)) for p in pts]
    i0, i1 = int(order[0]), int(order[1])
    k = next(
        (
            int(order[m])
            for m in range(2, n)
            if orient2d(*coords[i0], *coords[i1], *coords[int(order[m])]) != 0
        ),
        None,
    )
    if k is None:
        raise DegenerateSimplexError("all points are collinear")
    mesh = TupleMesh2D(coords)
    mesh.seed(i0, i1, k)
    for idx in order[2:]:
        idx = int(idx)
        if idx == k:
            continue
        mesh.insert(idx)
    return mesh.real_cells()


def flat_mesh_build(points, monkeypatch):
    """The mesh build ``compare`` runs on ``points`` and the ``real_cells()``
    list its cell order comes from."""
    real_cells, seen = delaunay._Mesh2D.real_cells, []

    def recorded(mesh):
        seen.append(real_cells(mesh))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(delaunay._Mesh2D, "real_cells", recorded)
        cx = delaunay._mesh_delaunay_2d(points, {})
    assert len(seen) == 1
    return seen[0], cx


def hull_edge_points():
    """20 points whose insertion order puts point 19, (1.1, 0), on the open
    hull edge from point 17 to point 18: the three share the x bin and the
    y key, so the index breaks their tie."""
    rng = np.random.default_rng(11)
    pts = np.c_[rng.uniform(0.0, 4.0, 17), rng.uniform(0.5, 3.0, 17)]
    pts[0], pts[1] = (0.0, 1.0), (4.0, 1.0)
    return np.vstack([pts, [(1.0, 0.0), (1.2, 0.0), (1.1, 0.0)]])


REFERENCE_INPUTS = {
    **{f"lattice-{W:g}-{s}": (lambda W=W, s=s: lattice_window(2, W, jitter=True, seed=s).points)
       for W in (12.0, 24.0) for s in (1, 2, 3)},
    **{f"poisson-{W:g}-{s}": (lambda W=W, s=s: poisson_delone_window(0.5, 1.5, W, seed=s).points)
       for W in (13.0, 26.0) for s in (1, 2, 3)},
    "hull-edge": hull_edge_points,
}


@pytest.mark.parametrize("name", REFERENCE_INPUTS)
def test_flat_mesh_matches_tuple_mesh_on_windows(name, monkeypatch):
    pts = REFERENCE_INPUTS[name]()
    want = tuple_mesh_cells(pts)
    got, cx = flat_mesh_build(pts, monkeypatch)
    assert got == want
    assert cx.interior_facets() == build_complex(pts, want).interior_facets()


def test_flat_mesh_matches_tuple_mesh_on_battery_sizes(monkeypatch):
    rng = np.random.default_rng(12)
    for _ in range(40):
        pts = rng.uniform(size=(int(rng.integers(5, 31)), 2))
        want = tuple_mesh_cells(pts)
        got, cx = flat_mesh_build(pts, monkeypatch)
        assert got == want
        assert cx.interior_facets() == build_complex(pts, want).interior_facets()


def test_hull_edge_points_take_the_open_segment_branch(monkeypatch):
    hits = []

    def recorded(a, b, q):
        hits.append(on_open_segment(a, b, q))
        return hits[-1]

    monkeypatch.setattr(delaunay, "on_open_segment", recorded)
    cx = delaunay_2d(hull_edge_points())
    assert True in hits
    assert {(17, 19), (18, 19)} <= {tuple(sorted(f)) for f in cx.boundary_facets()}


@pytest.mark.parametrize("points", [
    [(float(x), float(y)) for y in range(3) for x in range(3)],
    SQUARE,
], ids=["grid-3x3", "square"])
def test_flat_mesh_raises_as_tuple_mesh_on_cocircular_points(points):
    with pytest.raises(NonGenericError) as want:
        tuple_mesh_cells(points)
    with pytest.raises(NonGenericError) as got:
        delaunay_2d(points)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)
    assert "cocircular with triangle" in str(got.value)


def test_flat_mesh_stays_closed_after_every_insertion(monkeypatch):
    """After each insertion into 200 random points: three edge keys per
    triangle, each naming the triangle that holds that directed edge, every
    reverse edge present, and the ghost vertex stored third."""
    insert, inserted = delaunay._Mesh2D.insert, []

    def checked(mesh, q):
        insert(mesh, q)
        tri, e2t, g = mesh.tri, mesh.edge2tri, mesh.ghost
        assert len(e2t) == 3 * len(tri)
        for key, tid in e2t.items():
            u, v = divmod(key, g + 1)
            a, b, c = tri[tid]
            assert (u, v) in ((a, b), (b, c), (c, a))
            assert v * (g + 1) + u in e2t
        assert all(g not in t[:2] for t in tri.values())
        inserted.append(q)

    monkeypatch.setattr(delaunay._Mesh2D, "insert", checked)
    pts = np.random.default_rng(13).uniform(size=(200, 2))
    delaunay._mesh_delaunay_2d(pts, {})
    assert len(inserted) == 197
