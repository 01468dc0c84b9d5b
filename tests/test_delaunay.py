import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from delone import delaunay
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
from delone.generators import distorted_cubic_window, lattice_window, stream_rng
from delone.geometry import (
    Side,
    in_sphere,
    in_spheres,
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
    cells = set()
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
            cells.add(cell)
    return cells


@pytest.mark.parametrize("window", ["distorted-cube", "jittered-lattice"])
def test_delaunay_3d_batched_classification_matches_scalar_loop(window):
    from delone.generators import distorted_cubic_window, lattice_window

    if window == "distorted-cube":
        pts = distorted_cubic_window(4.0).points
    else:
        pts = lattice_window(3, 4.0, jitter=True, seed=3).points
    cx = delaunay_3d(pts, verify=False)
    ref = build_complex(pts, lower_facet_cells_by_scalar_loop(pts))
    # same cells, inserted in the same order
    assert list(cx.facet_adjacency.items()) == list(ref.facet_adjacency.items())


def test_delaunay_3d_coplanar_rejected():
    pts = np.zeros((6, 3))
    pts[:, 0] = np.arange(6)
    pts[:, 1] = np.arange(6) ** 2
    with pytest.raises(DegenerateSimplexError):
        delaunay_3d(pts)


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
    with pytest.raises(ValueError, match="exactly d\\+2"):
        radon_split(np.zeros((3, 2)))


def test_restrict_delaunay_full_and_single():
    rng = np.random.default_rng(3)
    pts = rng.uniform(size=(12, 2)) * 5
    D = delaunay_2d(pts)
    assert sorted(restrict_delaunay(D, D).cells) == sorted(D.cells)
    single = build_complex(D.points, [D.cells[0]], check_coverage=False)
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
    region = build_complex(pts, region_cells, check_coverage=False)
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
            region = build_complex(pts, region_cells, check_coverage=False)
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
    region = build_complex(pts, [c for c in T.cells if 0 not in c],
                           check_coverage=False)
    assert restrict_delaunay(D, region).cells == exact_restriction(D, region) == []


def test_restrict_delaunay_rejects_3d():
    D = build_complex(np.eye(4, 3), [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="2D only"):
        restrict_delaunay(D, D)


def test_restrict_delaunay_rejects_other_points():
    pts = np.random.default_rng(3).uniform(size=(8, 2))
    D = delaunay_2d(pts)
    moved = build_complex(pts + 1.0, D.cells, check_coverage=False)
    with pytest.raises(ValueError, match="not a complex on the Delaunay points"):
        restrict_delaunay(D, moved)


def test_restrict_delaunay_rejects_region_cell_holding_a_point():
    pts = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)])
    D = delaunay_2d(pts)
    region = build_complex(pts, [(0, 1, 2)], check_coverage=False)
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


def _scrambled_grid():
    cx = delaunay_2d(jittered_grid_2d(8, seed=3, eta=0.1))
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
    "square-2d": (lambda: build_complex(
        [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], [(0, 1, 2), (0, 2, 3)]), {}),
    "radon-other-3d": (_radon_other_3d, {}),
    "distorted-cube-3d": (
        lambda: delaunay_3d(distorted_cubic_window(3).points, verify=False), {}),
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


def interior_facet_sides(cx):
    """Every interior facet, and the side of its second cell's opposite
    vertex against the circumsphere of its first cell."""
    facets = cx.interior_facets()
    incident = [cx.facet_cells(f) for f in facets]
    first = np.array([c0 for c0, _ in incident])
    opposite = [(set(c1) - set(f)).pop() for f, (_, c1) in zip(facets, incident)]
    return facets, incident, in_spheres(cx.points[first], cx.points[opposite])


@pytest.mark.xfail(strict=True, reason=(
    "Qhull's lifted lower hull is one 2-3 flip off here: facet "
    "(1223, 1234, 1314) is not locally Delaunay, and the sampled "
    "verification above 200 points misses it; a fix needs exact 3D flips"))
def test_delaunay_3d_jittered_lattice_every_interior_facet_locally_delaunay():
    cx = delaunay_3d(lattice_window(3, 7.0, jitter=True, seed=14000112).points)
    _, _, sides = interior_facet_sides(cx)
    assert (sides == Side.OUTSIDE).all()


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
    """One interior edge of a 1.8k-point window reverse-flipped in the
    builder's output: the certificate names it.  2,000 sampled (cell,
    vertex) pairs almost never meet the one bad pair."""
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
    monkeypatch.setattr(delaunay._Mesh2D, "real_cells", lambda mesh: bad_cx.cells)
    with pytest.raises(InvalidComplexError, match=re.escape(f"facet {bad[0]} ")):
        delaunay_2d(pts)


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
