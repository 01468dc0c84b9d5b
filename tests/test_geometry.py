import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.spatial import ConvexHull

from delone import delaunay, geometry
from delone.delaunay import delaunay_2d, delaunay_3d, verify_empty_circumspheres
from delone.errors import DegenerateSimplexError
from delone.generators import distorted_cubic_window, lattice_window
from delone.geometry import (
    Side,
    _det3,
    _det4,
    _exact_sign,
    _exact_signs,
    _filtered_det_signs,
    _insphere3d,
    _lifted_rows,
    _orient3d,
    area_via_circumradius,
    circumcenters,
    circumradii,
    circumradius,
    circumsphere,
    in_sphere,
    in_spheres,
    lift,
    measure,
    measures,
    on_open_segment,
    orientation,
    orientations,
    point_in_simplex,
    points_in_simplices,
    segments_cross,
)

TRI_345 = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]
UNIT_TET = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


def random_rigid_motion(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    t = rng.normal(scale=10.0, size=d)
    return lambda pts: pts @ q.T + t


def test_orientation_triangle():
    assert orientation([(0, 0), (1, 0), (0, 1)]) == 1
    assert orientation([(0, 0), (0, 1), (1, 0)]) == -1


def test_orientation_collinear():
    assert orientation([(0, 0), (1, 0), (2, 0)]) == 0


def test_orientation_standard_simplex_3d():
    assert orientation(UNIT_TET) == 1


def test_orientation_exactness_near_degenerate():
    # Points collinear up to an offset of one ulp must still be resolved.
    eps = math.ulp(1.0)
    assert orientation([(0, 0), (1, 0), (2, eps)]) == 1
    assert orientation([(0, 0), (1, 0), (2, -eps)]) == -1
    assert orientation([(0, 0), (1, 0), (2, 0)]) == 0


def test_in_sphere_inside():
    # circumcircle of the 3-4-5 triangle: center (2, 1.5), radius 2.5
    assert in_sphere(TRI_345, (1.0, 1.0)) == Side.INSIDE


def test_in_sphere_on():
    # (0,0),(1,0),(0,1),(1,1) all lie on the circle with center (.5,.5)
    assert in_sphere([(0, 0), (1, 0), (0, 1)], (1, 1)) == Side.ON


def test_in_sphere_outside():
    assert in_sphere(TRI_345, (10.0, 10.0)) == Side.OUTSIDE


def test_in_sphere_vertices_on():
    for v in TRI_345:
        assert in_sphere(TRI_345, v) == Side.ON
    for v in UNIT_TET:
        assert in_sphere(UNIT_TET, v) == Side.ON


def test_in_sphere_3d():
    c = circumsphere(UNIT_TET)
    assert in_sphere(UNIT_TET, c.center) == Side.INSIDE
    assert in_sphere(UNIT_TET, (5.0, 5.0, 5.0)) == Side.OUTSIDE


def test_in_sphere_permutation_invariance():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(4, 3))
    q = rng.normal(size=3)
    ref = in_sphere(pts, q)
    # even permutation
    assert in_sphere(pts[[1, 2, 0, 3]], q) == ref
    # odd permutation flips the raw determinant but not the classification
    assert in_sphere(pts[[1, 0, 2, 3]], q) == ref


def test_in_sphere_matches_metric_oracle():
    rng = np.random.default_rng(11)
    for _ in range(200):
        tri = rng.normal(scale=3.0, size=(3, 2))
        if orientation(tri) == 0:
            continue
        q = rng.normal(scale=3.0, size=2)
        sph = circumsphere(tri)
        gap = np.linalg.norm(q - sph.center) - sph.radius
        if abs(gap) < 1e-7:
            continue  # too close to the circle for the float oracle
        want = Side.INSIDE if gap < 0 else Side.OUTSIDE
        assert in_sphere(tri, q) == want


def test_measure():
    assert measure(TRI_345) == pytest.approx(6.0, abs=1e-12)
    assert measure(UNIT_TET) == pytest.approx(1 / 6, rel=1e-12)
    assert measure([(0, 0), (1, 0), (2, 0)]) == 0.0


def test_circumsphere_345():
    c = circumsphere(TRI_345)
    assert c.center == pytest.approx([2.0, 1.5], abs=1e-12)
    assert c.radius == pytest.approx(2.5, abs=1e-12)


def test_circumsphere_equilateral():
    tri = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    assert circumradius(tri) == pytest.approx(1 / math.sqrt(3), rel=1e-12)


def test_circumsphere_regular_tetrahedron():
    tet = [
        (0, 0, 0),
        (1, 0, 0),
        (0.5, math.sqrt(3) / 2, 0),
        (0.5, math.sqrt(3) / 6, math.sqrt(2 / 3)),
    ]
    assert circumradius(tet) == pytest.approx(math.sqrt(3 / 8), rel=1e-9)


def test_circumradii_of_a_hull_sliver_stay_within_2e_9_of_exact():
    # the hull sliver (9, 10, 13) of a scrambled 15-point window, radius
    # about 1.14e8: the exact radius is 114193796.61, the library's reads
    # 1.2e-9 high and abc / 4A in floats 3.7e-9 high
    tri = [[2.7984594393928983, 5.096613831747966],
           [1.051597093238943, 0.9441718500228053],
           [2.344991779293366, 4.018682173173303]]
    (ax, ay), (bx, by), (cx, cy) = ([Fraction(t) for t in p] for p in tri)
    ab, bc, ca = ((bx - ax)**2 + (by - ay)**2, (cx - bx)**2 + (cy - by)**2,
                  (ax - cx)**2 + (ay - cy)**2)
    area2 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    exact_r2 = ab * bc * ca / (4 * area2**2)
    assert 114193796.61 == pytest.approx(math.sqrt(exact_r2), abs=0.005)
    r, tol = Fraction(float(circumradii(np.array([tri]))[0])), Fraction(2, 10**9)
    assert (r / (1 + tol))**2 <= exact_r2 <= (r / (1 - tol))**2


def test_circumsphere_degenerate_raises():
    with pytest.raises(DegenerateSimplexError):
        circumsphere([(0, 0), (1, 0), (2, 0)])


def test_area_via_circumradius():
    assert area_via_circumradius(5, 4, 3, 2.5) == pytest.approx(6.0, abs=1e-12)
    assert area_via_circumradius(1, 1, 1, 1 / math.sqrt(3)) == pytest.approx(
        math.sqrt(3) / 4, rel=1e-12
    )


def test_area_via_circumradius_invalid():
    with pytest.raises(ValueError):
        area_via_circumradius(1, 1, 3, 1.0)
    with pytest.raises(ValueError):
        area_via_circumradius(3, 4, 5, 0.0)


def test_area_lower_bound_from_spacing():
    # triangles with edges >= 2r and circumradius <= q have area >= 2 r^3 / q
    rng = np.random.default_rng(7)
    r, q = 0.5, 1.25
    found = 0
    while found < 200:
        rho = rng.uniform(2 * r / math.sqrt(3), q)
        ang = np.sort(rng.uniform(0, 2 * math.pi, size=3))
        tri = rho * np.c_[np.cos(ang), np.sin(ang)]
        e = [np.linalg.norm(tri[i] - tri[j]) for i, j in ((0, 1), (1, 2), (0, 2))]
        if min(e) < 2 * r:
            continue
        found += 1
        assert measure(tri) >= 2 * r**3 / q - 1e-12


def test_agreement_area_formulas():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        tri = rng.normal(scale=5.0, size=(3, 2))
        area = measure(tri)
        if area < 1e-6:
            continue
        a = np.linalg.norm(tri[0] - tri[1])
        b = np.linalg.norm(tri[1] - tri[2])
        c = np.linalg.norm(tri[0] - tri[2])
        rho = circumradius(tri)
        assert area_via_circumradius(a, b, c, rho) == pytest.approx(area, rel=1e-9)


def test_lift():
    assert lift((1.0, 2.0)).tolist() == [1.0, 2.0, 5.0]
    assert lift((0.0, 0.0)).tolist() == [0.0, 0.0, 0.0]
    assert lift((3.0, 4.0)).tolist() == [3.0, 4.0, 25.0]


def test_lift_exact_on_graph():
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = rng.normal(scale=100.0, size=3)
        lp = lift(p)
        assert lp[-1] == float(p @ p)  # bit-exact by construction


def test_equilateral_centroid_is_circumcenter():
    tri = np.array([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
    assert np.linalg.norm(tri.mean(axis=0) - circumsphere(tri).center) < 1e-12


def test_rigid_motion_invariance():
    rng = np.random.default_rng(42)
    for d in (2, 3):
        for _ in range(50):
            pts = rng.normal(scale=4.0, size=(d + 1, d))
            if orientation(pts) == 0:
                continue
            move = random_rigid_motion(rng, d)
            moved = move(pts)
            assert measure(moved) == pytest.approx(measure(pts), rel=1e-9)
            assert circumradius(moved) == pytest.approx(circumradius(pts), rel=1e-9)


def test_circumsphere_float_singular_raises_degenerate():
    # exactly non-degenerate, but the float solve sees a singular matrix
    tri = [[0.0, 0.0], [0.686424914749346, 1.5059366220404455],
           [0.424040095722155, 0.9302947717081502]]
    assert orientation(tri) == -1
    with pytest.raises(DegenerateSimplexError):
        circumsphere(tri)
    with pytest.raises(DegenerateSimplexError):
        circumradii([tri])
    with pytest.raises(DegenerateSimplexError):
        circumcenters([tri])


def test_on_open_segment():
    a, b = (0.0, 0.0), (3.0, 1.5)
    assert on_open_segment(a, b, (1.0, 0.5))
    assert not on_open_segment(a, b, a) and not on_open_segment(a, b, b)
    assert not on_open_segment(a, b, (4.0, 2.0))  # collinear, outside
    assert not on_open_segment(a, b, (1.0, np.nextafter(0.5, 1.0)))
    assert on_open_segment((0.0, 2.0), (0.0, -1.0), (0.0, 0.5))  # vertical
    assert not on_open_segment((0.0, 2.0), (0.0, -1.0), (0.0, 2.5))


def test_segments_cross_proper_crossings_only():
    cases = [
        (((0, 0), (2, 2)), ((0, 2), (2, 0)), True),  # X
        (((0, 0), (2, 2)), ((1, 1), (2, 0)), False),  # endpoint on the other
        (((0, 0), (2, 0)), ((1, 0), (3, 0)), False),  # collinear overlap
        (((0, 0), (1, 0)), ((0, 1), (1, 1)), False),  # parallel
        (((0, 0), (2, 2)), ((2, 2), (3, 0)), False),  # shared endpoint
        (((0, 0), (1, 1e-300)), ((0.5, -1), (0.5, 1)), True),  # shallow
    ]
    a = np.array([c[0] for c in cases], dtype=float)
    b = np.array([c[1] for c in cases], dtype=float)
    want = [c[2] for c in cases]
    assert segments_cross(a, b).tolist() == want  # batched path
    assert [bool(segments_cross(a[k:k + 1], b[k:k + 1])[0])
            for k in range(len(cases))] == want  # row-by-row path


def test_point_in_simplex():
    assert point_in_simplex(TRI_345, (1.0, 1.0))
    assert not point_in_simplex(TRI_345, (4.0, 3.0))
    assert point_in_simplex(TRI_345, (0.0, 0.0))  # vertex, closed
    assert point_in_simplex(UNIT_TET, (0.1, 0.1, 0.1))
    assert not point_in_simplex(UNIT_TET, (1.0, 1.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=3,
        max_size=3,
    ),
    st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
)
def test_in_sphere_total_on_nondegenerate(tri, q):
    if orientation(tri) == 0:
        return
    assert in_sphere(tri, q) in (Side.INSIDE, Side.ON, Side.OUTSIDE)


# ---------------------------------------------------------------------------
# the batched orientation kernel against pure rational evaluation


def fraction_orientation(simplex) -> int:
    """Reference sign: Gaussian elimination over Fractions, no float at all."""
    pts = [[Fraction(float(x)) for x in p] for p in simplex]
    m = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
    sign = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        if m[c][c] < 0:
            sign = -sign
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sign


def nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


DYADIC = st.integers(-64, 64).map(lambda v: v / 8)
OFFSET = st.sampled_from([0.0, 0.1, 1000.1, 1e6 / 3])
# integer points on the sphere of radius 5 about the origin
SPHERE5 = sorted({
    tuple(s * v for s, v in zip(signs, perm))
    for base in ((0, 0, 5), (0, 3, 4))
    for perm in itertools.permutations(base)
    for signs in itertools.product((1, -1), repeat=3)
})


@st.composite
def near_degenerate_simplex(draw, kind):
    """One simplex of the given kind, degenerate in exact arithmetic before
    the offset, then with one coordinate moved by -1, 0 or +1 ulp."""
    if kind == "collinear2d":
        a, b = ([draw(DYADIC) for _ in range(2)] for _ in range(2))
        t = draw(st.integers(-8, 8)) / 4
        simplex = [a, b, [x + t * (y - x) for x, y in zip(a, b)]]
    elif kind == "coplanar3d":
        p0, p1, p2 = ([draw(DYADIC) for _ in range(3)] for _ in range(3))
        s, t = draw(st.integers(-8, 8)) / 4, draw(st.integers(-8, 8)) / 4
        p3 = [x + s * (y - x) + t * (z - x) for x, y, z in zip(p0, p1, p2)]
        simplex = [p0, p1, p2, p3]
    else:  # lifted-cospherical 4D: five points of one sphere, lifted
        picks = draw(st.lists(st.sampled_from(SPHERE5), min_size=5, max_size=5,
                              unique=True))
        center = [draw(DYADIC) for _ in range(3)]
        simplex = []
        for p in picks:
            q = [x + c for x, c in zip(p, center)]
            simplex.append(q + [sum(x * x for x in q)])
    off = draw(OFFSET)
    simplex = [[x + off for x in p] for p in simplex]
    i = draw(st.integers(0, len(simplex) - 1))
    j = draw(st.integers(0, len(simplex[0]) - 1))
    simplex[i][j] = nudge(simplex[i][j], draw(st.integers(-1, 1)))
    return simplex


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["collinear2d", "coplanar3d", "cospherical4d"]).flatmap(
    lambda kind: st.lists(near_degenerate_simplex(kind), min_size=1, max_size=8)))
def test_orientations_kernel_matches_fractions(stack):
    want = [fraction_orientation(s) for s in stack]
    assert orientations(np.array(stack)).tolist() == want
    assert [orientation(s) for s in stack] == want
    copies = 8 // len(stack) + 1  # at least 8 rows: the NumPy pass
    assert orientations(np.array(stack * copies)).tolist() == want * copies


def test_orientations_kernel_exact_zero_and_one_ulp_rows():
    eps = math.ulp(2.0)
    stack = np.array([
        [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
        [(0.0, 0.0), (1.0, 0.0), (2.0, eps)],
        [(0.0, 0.0), (1.0, 0.0), (2.0, -eps)],
        [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)],  # rounded: not exactly collinear
    ])
    want = [fraction_orientation(s) for s in stack]
    assert want[:3] == [0, 1, -1]
    assert orientations(stack).tolist() == want
    assert orientations(np.tile(stack, (3, 1, 1))).tolist() == want * 3
    # 3D lifted cocircular points: exactly coplanar in R^3
    circle = [(5.0, 0.0), (0.0, 5.0), (-3.0, 4.0), (4.0, -3.0)]
    lifted = np.array([[x, y, x * x + y * y] for x, y in circle])
    assert orientations(np.tile(lifted, (8, 1, 1))).tolist() == [0] * 8
    assert orientations(np.zeros((0, 3, 2))).tolist() == []
    with pytest.raises(ValueError):
        orientations(np.zeros((1, 2, 2)))


def test_points_in_simplices_matches_scalar():
    rng = np.random.default_rng(12)
    tri = np.array(TRI_345)
    queries = [(1.0, 1.0), (4.0, 3.0), (0.0, 0.0), (2.0, 0.0), (2.0, 1.5),
               (-1e-300, 0.0)] + [tuple(q) for q in rng.uniform(-1, 5, (40, 2))]
    got = points_in_simplices(np.repeat(tri[None], len(queries), axis=0), queries)
    assert got.tolist() == [point_in_simplex(tri, q) for q in queries]
    tets = rng.normal(size=(60, 4, 3))
    qs = rng.normal(scale=0.5, size=(60, 3))
    got = points_in_simplices(tets, qs)
    assert got.tolist() == [point_in_simplex(t, q) for t, q in zip(tets, qs)]
    flat = np.array([[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]])
    assert points_in_simplices(flat, [(1.0, 0.0)]).tolist() == [False]


# ---------------------------------------------------------------------------
# the batched in-sphere kernel against pure rational evaluation


def fraction_side(simplex, q) -> int:
    """Reference ``Side`` value: the circumcenter by Gauss-Jordan elimination
    over Fractions, then the squared distances compared exactly."""
    pts = [[Fraction(float(x)) for x in p] for p in simplex]
    fq = [Fraction(float(x)) for x in q]
    d = len(fq)
    # 2 (p_i - p_0) . c = |p_i|^2 - |p_0|^2
    m = [[2 * (a - b) for a, b in zip(p, pts[0])]
         + [sum(a * a for a in p) - sum(b * b for b in pts[0])] for p in pts[1:]]
    for c in range(d):
        pivot = next(r for r in range(c, d) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(d):
            if r != c:
                m[r] = [a - m[r][c] * b for a, b in zip(m[r], m[c])]
    center = [row[d] for row in m]
    r2 = sum((a - c) ** 2 for a, c in zip(pts[0], center))
    q2 = sum((a - c) ** 2 for a, c in zip(fq, center))
    return (r2 > q2) - (r2 < q2)


# integer points on the circle of radius 5 about the origin
CIRCLE5 = sorted({(s * x, t * y) for x, y in ((0, 5), (3, 4), (4, 3), (5, 0))
                  for s in (1, -1) for t in (1, -1)})


@st.composite
def near_cospherical_query(draw, d):
    """A d-simplex and a query point, all d+2 on one circle (d = 2) or sphere
    (d = 3) before the offset, then one coordinate moved by -1, 0 or +1 ulp."""
    sphere = CIRCLE5 if d == 2 else SPHERE5
    picks = draw(st.lists(st.sampled_from(sphere), min_size=d + 2, max_size=d + 2,
                          unique=True))
    center = [draw(DYADIC) for _ in range(d)]
    off = draw(OFFSET)
    rows = [[x + c + off for x, c in zip(p, center)] for p in picks]
    i, j = draw(st.integers(0, d + 1)), draw(st.integers(0, d - 1))
    rows[i][j] = nudge(rows[i][j], draw(st.integers(-1, 1)))
    return rows[:-1], rows[-1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(
    lambda d: st.lists(near_cospherical_query(d), min_size=1, max_size=8)))
def test_in_spheres_kernel_matches_fractions(rows):
    rows = [(s, q) for s, q in rows if fraction_orientation(s) != 0]
    assume(rows)
    simplices, queries = (np.array(x) for x in zip(*rows))
    want = [fraction_side(s, q) for s, q in rows]
    assert in_spheres(simplices, queries).tolist() == want
    assert [in_sphere(s, q) for s, q in rows] == want
    copies = 8 // len(rows) + 1  # at least 8 rows: the NumPy pass
    got = in_spheres(np.tile(simplices, (copies, 1, 1)), np.tile(queries, (copies, 1)))
    assert got.tolist() == want * copies


def test_in_spheres_exact_on_rows_both_paths():
    tri = [(5.0, 0.0), (0.0, 5.0), (-3.0, 4.0)]
    tet = [(5.0, 0.0, 0.0), (0.0, 5.0, 0.0), (0.0, 0.0, 5.0), (-3.0, -4.0, 0.0)]
    for simplex, on in ((tri, [4.0, -3.0]), (tet, [0.0, -3.0, -4.0])):
        inside, outside = list(on), list(on)
        inside[-1], outside[-1] = nudge(on[-1], 1), nudge(on[-1], -1)
        queries = np.array([on, inside, outside])
        want = [Side.ON, Side.INSIDE, Side.OUTSIDE]
        assert [fraction_side(simplex, q) for q in queries] == want
        stack = np.array([simplex] * 3)
        assert in_spheres(stack, queries).tolist() == want
        assert in_spheres(np.tile(stack, (3, 1, 1)), np.tile(queries, (3, 1))).tolist() == want * 3
    flat = [[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]]
    for m in (1, 8):  # row by row and the NumPy pass
        with pytest.raises(DegenerateSimplexError):
            in_spheres(np.array([TRI_345] * (m - 1) + flat), np.zeros((m, 2)))
    with pytest.raises(ValueError):
        in_spheres(np.array([TRI_345]), np.zeros((2, 2)))
    assert in_spheres(np.zeros((0, 3, 2)), np.zeros((0, 2))).tolist() == []


def stack_of_one_sign(rows, pts) -> int:
    """The generic ``_DETS`` expansion, ``_filter_tol`` bound and integer
    stage of ``_filtered_det_signs`` on one matrix: float ``rows`` become
    one-entry columns, ``pts`` a stack of one."""
    columns = [[np.array([x]) for x in row] for row in rows]
    return int(_filtered_det_signs(columns, np.asarray(pts, dtype=float)[None])[0])


def determinant_orientation(simplex) -> int:
    """Reference: the generic determinant of the NumPy-built rows p_i - p_0."""
    pts = np.asarray(simplex, dtype=float)
    rows = [[float(x - y) for x, y in zip(p, pts[0])] for p in pts[1:]]
    return stack_of_one_sign(rows, pts)


def determinant_side(simplex, q) -> int:
    """Reference: the generic determinant of the lifted rows, times the
    orientation (positive-inside in even dimension)."""
    pts, q = np.asarray(simplex, dtype=float), np.asarray(q, dtype=float)
    rows = _lifted_rows(pts.tolist(), q.tolist())
    s = stack_of_one_sign(rows, np.vstack([q, pts]))
    return s * determinant_orientation(pts)


@settings(max_examples=300, deadline=None)
@given(near_degenerate_simplex("collinear2d"), near_cospherical_query(2))
def test_2d_scalar_predicates_match_filtered_determinants(tri, query):
    assert orientation(tri) == determinant_orientation(tri)
    simplex, q = query
    if determinant_orientation(simplex) == 0:
        with pytest.raises(DegenerateSimplexError):
            in_sphere(simplex, q)
    else:
        assert in_sphere(simplex, q) == determinant_side(simplex, q)


def test_2d_scalar_predicates_exact_zero_on_and_one_ulp():
    for off in (0.0, 0.1, 1000.1):
        flat = [(off, off), (1.0 + off, off), (2.0 + off, off)]
        for ulps, want in ((0, 0), (1, 1), (-1, -1)):
            tri = [flat[0], flat[1], (flat[2][0], nudge(off, ulps))]
            assert orientation(tri) == determinant_orientation(tri) == want
        with pytest.raises(DegenerateSimplexError):
            in_sphere(flat, (off, 1.0 + off))
    tri, on = [(5.0, 0.0), (0.0, 5.0), (-3.0, 4.0)], (4.0, -3.0)
    for simplex in (tri, tri[::-1]):  # both orientations
        for ulps, want in ((0, Side.ON), (1, Side.INSIDE), (-1, Side.OUTSIDE)):
            q = (on[0], nudge(on[1], ulps))
            assert in_sphere(simplex, q) == determinant_side(simplex, q) == want


@pytest.mark.parametrize("d", [2, 3])
def test_batched_metrics_equal_scalar_loops(d):
    window = lattice_window(d, 6.0 if d == 2 else 3.0, jitter=True, seed=5)
    cx = (delaunay_2d if d == 2 else delaunay_3d)(window.points)
    coords = [cx.points[list(c)] for c in cx.cells]
    assert np.array_equal(cx.cell_measures(), [measure(s) for s in coords])
    assert np.array_equal(measures(coords), [measure(s) for s in coords])
    spheres = [circumsphere(s) for s in coords]
    assert np.array_equal(cx.cell_circumradii(), [c.radius for c in spheres])
    assert np.array_equal(circumcenters(coords), [c.center for c in spheres])
    for m in (1, 8):  # row by row and the NumPy pass
        with pytest.raises(DegenerateSimplexError):
            circumradii([TRI_345] * (m - 1) + [[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]])


# ---------------------------------------------------------------------------
# the integer fallback on its own, against pure rational evaluation


def integer_orientation(simplex) -> int:
    """Sign of the integer-scaled rows p_i - p_0, no float filter."""
    return _exact_sign(simplex)


def integer_side(simplex, q) -> int:
    """``Side`` value from the integer-scaled rows lifted about q, no float
    filter."""
    lifted = _exact_sign(np.vstack([q, simplex]))
    return lifted * integer_orientation(simplex) * (-1) ** len(q)


def fraction_collinear(a, b, c) -> bool:
    """Reference: the Fraction rows b - a and c - a have a zero cross product."""
    u, v = ([Fraction(float(y)) - Fraction(float(x)) for x, y in zip(a, p)] for p in (b, c))
    return all(u[i] * v[j] == u[j] * v[i] for i, j in ((0, 1), (1, 2), (0, 2)))


def projected_collinear(pts) -> bool:
    """Three points of R^3 are collinear iff their projections to the three
    coordinate planes are, as ``delaunay._spans_3d`` decides it: by
    ``orientations``, row by row and in the NumPy pass, which must agree."""
    stack = np.asarray(pts, dtype=float)[:, [[1, 2], [2, 0], [0, 1]]].transpose(1, 0, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # NumPy overflow goes exact
        signs, batched = orientations(stack), orientations(np.tile(stack, (3, 1, 1)))
    assert batched.tolist() == signs.tolist() * 3
    return not signs.any()


@st.composite
def near_collinear_3d(draw):
    """Three points of one line in R^3 before the offset, then one coordinate
    moved by -1, 0 or +1 ulp."""
    a, b = ([draw(DYADIC) for _ in range(3)] for _ in range(2))
    t = draw(st.integers(-8, 8)) / 4
    off = draw(OFFSET)
    pts = [[x + off for x in p] for p in (a, b, [x + t * (y - x) for x, y in zip(a, b)])]
    i, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    pts[i][j] = nudge(pts[i][j], draw(st.integers(-1, 1)))
    return pts


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["collinear2d", "coplanar3d", "cospherical4d"]).flatmap(
    near_degenerate_simplex))
def test_integer_rows_match_fractions(simplex):
    assert integer_orientation(simplex) == fraction_orientation(simplex)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(near_cospherical_query))
def test_integer_lifted_rows_match_fractions(query):
    simplex, q = query
    assume(fraction_orientation(simplex) != 0)
    assert integer_side(simplex, q) == fraction_side(simplex, q)


@settings(max_examples=300, deadline=None)
@given(near_collinear_3d())
def test_collinear_3d_matches_fractions(pts):
    assert projected_collinear(pts) == fraction_collinear(*pts)


TINY = 5e-324  # 2^-1074, the smallest subnormal
EXTREME = st.sampled_from([0.0, TINY, -TINY, 3 * TINY, 2.2250738585072014e-308,
                           1e-300, 0.1, 1.0, -3.0, 1e150, 1e300, -1e300,
                           1.7976931348623157e308])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(lambda d: st.tuples(
    st.lists(st.lists(EXTREME, min_size=d, max_size=d), min_size=d + 1, max_size=d + 1),
    st.lists(EXTREME, min_size=d, max_size=d))))
def test_integer_path_exact_on_mixed_extreme_exponents(case):
    simplex, q = case
    want = fraction_orientation(simplex)
    assert integer_orientation(simplex) == want
    if want:
        assert integer_side(simplex, q) == fraction_side(simplex, q)
    pts = [p + [0.0] * (3 - len(p)) for p in simplex[:3]]
    assert projected_collinear(pts) == fraction_collinear(*pts)


@pytest.mark.parametrize("d", [2, 3])
def test_in_spheres_about_the_first_vertex_match_the_rows_about_q(d):
    """The lifted rows about p_0 give the exact side of the rows about q."""
    rng = np.random.default_rng(40 + d)
    m = 300
    # cube corners are cospherical: some queries lie ON, some a ulp off
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=d)))
    picks = np.array([rng.permutation(len(corners))[:d + 2] for _ in range(m)])
    cube = corners[picks] * 2.0 ** rng.integers(-3, 4, size=(m, 1, 1))
    cube = nudge_one_coordinate(rng, cube + rng.integers(-50, 50, size=(m, 1, d)))
    cube[: m // 2] = (corners[picks] + rng.integers(-50, 50, size=(m, 1, d)))[: m // 2]
    # slivers of a jittered unit cube against far queries, as in a lattice
    slivers = corners[picks] + rng.normal(scale=1e-6, size=(m, d + 2, d))
    slivers[:, -1] += rng.normal(scale=30.0, size=(m, d))
    wide = rng.normal(size=(m, d + 2, d)) * 10.0 ** rng.integers(-3, 4, size=(m, 1, 1))
    stack = np.concatenate([cube, slivers, wide])
    simp, q = stack[:, :-1], stack[:, -1]
    keep = np.array([integer_orientation(s) != 0 for s in simp.tolist()])
    simp, q = simp[keep], q[keep]
    want = [integer_side(s, p) for s, p in zip(simp.tolist(), q.tolist())]
    assert {Side.ON, Side.INSIDE, Side.OUTSIDE} <= set(want)
    assert in_spheres(simp, q).tolist() == want
    assert [in_sphere(s, p) for s, p in zip(simp, q)] == want


def test_3d_emptiness_check_of_a_jittered_lattice_takes_no_integer_in_sphere():
    """Sliver cells against far vertices: about q every row is long and the
    filter bound loose, and 738 of the three windows' ~6,000 sampled pairs
    went to integers."""
    complexes = [delaunay_3d(lattice_window(3, 7, jitter=True, seed=seed).points)
                 for seed in (1, 2, 3)]
    _, calls = exact_calls(lambda: [verify_empty_circumspheres(cx) for cx in complexes])
    assert [len(c) for c in calls].count(5) == 0  # 4 vertices and q; 4 are orientations


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy overflow to inf
def test_predicates_exact_on_extreme_exponents_both_paths():
    big = 1e300
    cases = [  # (simplex, exact orientation)
        ([(TINY, TINY), (big, big), (2 * big, 2 * big)], 0),  # y = x
        ([(TINY, TINY), (big, big), (2 * big, nudge(2 * big, 1))], 1),
        ([(TINY, TINY), (big, big), (2 * big, nudge(2 * big, -1))], -1),
        ([(0.0, 0.0), (TINY, 0.0), (0.0, TINY)], 1),
        ([(0.0, 0.0), (TINY, TINY), (3 * TINY, 3 * TINY)], 0),
        ([(0.0, 0.0, 0.0), (big, 0.0, 0.0), (0.0, TINY, 0.0), (0.0, 0.0, TINY)], 1),
        ([(0.0, 0.0, 0.0), (big, 0.0, 0.0), (0.0, big, 0.0), (TINY, TINY, 0.0)], 0),
        ([(0.0, 0.0, 0.0), (big, 0.0, 0.0), (0.0, big, 0.0), (TINY, TINY, TINY)], 1),
        ([(0.0, 0.0, 0.0), (big, 0.0, 0.0), (0.0, big, 0.0), (TINY, TINY, -TINY)], -1),
    ]
    for simplex, want in cases:
        assert fraction_orientation(simplex) == want
        assert orientation(simplex) == want
        assert orientations(np.array([simplex])).tolist() == [want]
        assert orientations(np.array([simplex] * 8)).tolist() == [want] * 8
        if len(simplex) == 3:  # the same three points in R^3
            pts = [p + (p[1],) for p in simplex]
            assert projected_collinear(pts) == (want == 0) == fraction_collinear(*pts)
    # cocircular and cospherical points with subnormal coordinates
    tri = [(5 * TINY, 0.0), (0.0, 5 * TINY), (-3 * TINY, 4 * TINY)]
    tet = [(5 * TINY, 0.0, 0.0), (0.0, 5 * TINY, 0.0), (0.0, 0.0, 5 * TINY),
           (-3 * TINY, -4 * TINY, 0.0)]
    for simplex, on in ((tri, [4 * TINY, -3 * TINY]), (tet, [0.0, -3 * TINY, -4 * TINY])):
        inside, outside = list(on), list(on)
        inside[-1], outside[-1] = on[-1] + TINY, on[-1] - TINY
        queries = [on, inside, outside]
        want = [Side.ON, Side.INSIDE, Side.OUTSIDE]
        assert [fraction_side(simplex, q) for q in queries] == want
        assert [in_sphere(simplex, q) for q in queries] == want
        stack = np.array([simplex] * 9)
        assert in_spheres(stack, np.array(queries * 3)).tolist() == want * 3


# ---------------------------------------------------------------------------
# the filter outside the normal float range


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy overflow to inf
@pytest.mark.parametrize("simplex, want", [
    # a cofactor product overflows to -inf, and so does the bound: its
    # underflow floor's product of (1 + row sums) overflows first.  Every
    # partial product of an expansion is at most that floor's product, so once
    # the bound is finite the determinant overflows only within rounding of
    # the largest float, and the kernels' ``det < _INF`` guards are all but
    # unreachable; this case reaches integers through the bound.
    ([[1e-160, 0.0, 1e-300], [2.2250738585072014e-308, -TINY, 1e-300],
      [1e300, 1e-160, 1e300], [1e150, 0.1, 1e-300]], 1),
    # products below 2^-1022 lose the relative accuracy the filter assumes
    ([[-3e-108, -7e-109, -3e-108], [TINY, 0.0, 0.0],
      [-TINY, 3.0000000000000003e-108, 9e-108], [0.0, 0.0, -1.1e-154]], -1),
])
def test_filter_sends_overflow_and_underflow_to_the_exact_path(simplex, want):
    assert fraction_orientation(simplex) == want
    assert orientation(simplex) == want
    assert orientations(np.array([simplex] * 8)).tolist() == [want] * 8
    # among filtered rows, the integer stage sees this one matrix alone, its
    # entries ~2,000 binary orders apart in the first case
    got, calls = exact_calls(lambda: orientations(np.array([UNIT_TET] * 7 + [simplex])).tolist())
    assert got == [1] * 7 + [want]
    assert calls == [simplex]


def nudge_one_coordinate(rng, pts):
    """``pts`` with one random coordinate of each stack entry moved by one
    ulp up or down."""
    m, n, d = pts.shape
    rows, i, j = np.arange(m), rng.integers(n, size=m), rng.integers(d, size=m)
    pts[rows, i, j] = np.nextafter(pts[rows, i, j], rng.choice([np.inf, -np.inf], size=m))
    return pts


@pytest.mark.parametrize("d", [2, 3])
def test_predicates_exact_on_tiny_coordinates_both_paths(d):
    rng = np.random.default_rng(20 + d)
    # integer points on the circle or sphere of radius 5
    sphere = np.array([p for p in itertools.product(range(-5, 6), repeat=d)
                       if sum(x * x for x in p) == 25], dtype=float)
    m = 300
    for scale in (1e-100, 1e-108, 1e-154):
        # degenerate simplices: the last vertex an integer combination
        simp = rng.integers(-3, 4, size=(m, d + 1, d)).astype(float)
        w = rng.integers(-2, 3, size=(m, d - 1))
        simp[:, d] = simp[:, 0] + np.einsum("mk,mkj->mj", w, simp[:, 1:d] - simp[:, :1])
        simp = nudge_one_coordinate(rng, simp * scale)
        want = [fraction_orientation(s) for s in simp.tolist()]
        assert [orientation(s) for s in simp] == want
        assert orientations(simp).tolist() == want
        # d + 2 distinct cospherical points
        pick = np.argsort(rng.random((m, len(sphere))), axis=1)[:, :d + 2]
        pts = nudge_one_coordinate(rng, sphere[pick] * scale)
        keep = [k for k in range(m) if fraction_orientation(pts[k, :d + 1].tolist())]
        simp, q = pts[keep, :d + 1], pts[keep, d + 1]
        sides = [fraction_side(s, p) for s, p in zip(simp.tolist(), q.tolist())]
        assert [in_sphere(s, p) for s, p in zip(simp, q)] == sides
        assert in_spheres(simp, q).tolist() == sides


# ---------------------------------------------------------------------------
# the written-out 4x4 determinant and the supported dimensions


def det4_by_minors(m):
    """Reference for ``_det4``: expansion along row 0 by a loop over the
    minors, each evaluated by ``_det3``."""
    out, sign = 0, 1
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in (1, 2, 3)]
        out = out + sign * m[0][col] * _det3(minor)
        sign = -sign
    return out


def test_det4_equals_loop_over_minors_on_floats_ints_and_columns():
    rng = np.random.default_rng(31)
    for _ in range(2000):  # floats of mixed exponents: any reordering shows
        rows = (rng.normal(size=(4, 4)) * 10.0 ** rng.integers(-8, 9, size=(4, 4))).tolist()
        assert _det4(rows) == det4_by_minors(rows)
        lifted = _lifted_rows(rows, rows[0][:3])  # with an exact zero row
        assert _det4(lifted) == det4_by_minors(lifted) == 0.0
    for _ in range(200):  # big ints, as the exact fallback passes them
        rows = [[int(x) << 90 for x in row] for row in rng.integers(-2**62, 2**62, size=(4, 4))]
        assert _det4(rows) == det4_by_minors(rows)
    rank3 = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 6, 7, 8]]
    assert _det4(rank3) == det4_by_minors(rank3) == 0
    cols = [list(row) for row in rng.normal(size=(4, 4, 1000))]  # the batched pass
    assert np.array_equal(_det4(cols), det4_by_minors(cols))


@pytest.mark.parametrize("predicate, args", [
    (orientation, ([[0.0], [1.0]],)),
    (orientation, (np.eye(6)[:, :5],)),  # six points in R^5
    (orientations, (np.zeros((3, 2, 1)),)),
    (orientations, (np.zeros((9, 2, 1)),)),  # the NumPy pass
    (orientations, (np.zeros((3, 6, 5)),)),
    (orientations, (np.zeros((9, 6, 5)),)),
    (in_sphere, ([[0.0], [1.0]], [0.5])),
    (in_sphere, (np.eye(5)[:, :4], np.zeros(4))),  # a 4D in-sphere test
    (in_spheres, (np.zeros((3, 2, 1)), np.zeros((3, 1)))),
    (in_spheres, (np.zeros((9, 2, 1)), np.zeros((9, 1)))),
    (in_spheres, (np.zeros((3, 5, 4)), np.zeros((3, 4)))),
    (in_spheres, (np.zeros((9, 5, 4)), np.zeros((9, 4)))),
], ids=lambda v: getattr(v, "__name__", ""))
def test_predicates_name_their_supported_dimensions(predicate, args):
    with pytest.raises(ValueError, match=r"d = 2\.\.4|d = 2 or 3"):
        predicate(*args)


# ---------------------------------------------------------------------------
# the 3D scalar kernels against the NumPy pass and the integer rows

# integer points on the sphere of radius 9 about the origin: the signed
# permutations of the Pythagorean quadruples (0, 0, 9), (1, 4, 8), (4, 4, 7)
# and (3, 6, 6)
SPHERE9 = np.array([p for p in itertools.product(range(-9, 10), repeat=3)
                    if sum(x * x for x in p) == 81], dtype=float)


def kernel_stack(family, rng, scale, m=200):
    """An (m, 5, 3) stack of four simplex vertices and a query point each,
    times ``scale``, a power of two, so exact zeros stay exact."""
    if family == "uniform":
        pts = rng.uniform(-1.0, 1.0, size=(m, 5, 3))
    elif family == "grid":  # coplanar and cospherical stacks: exact zeros
        pts = rng.integers(-2, 3, size=(m, 5, 3)).astype(float)
    elif family == "mixed":  # each point at its own exponent
        exps = rng.choice([-1000, -600, -300, 0, 300, 600], size=(m, 5, 1))
        pts = rng.uniform(-1.0, 1.0, size=(m, 5, 3)) * 2.0 ** exps
    else:  # five distinct points of one sphere, moved by an integer vector
        pick = np.argsort(rng.random((m, len(SPHERE9))), axis=1)[:, :5]
        pts = SPHERE9[pick] + rng.integers(-50, 50, size=(m, 1, 3))
    if family == "near":  # half the simplices coplanar before the move below
        half = m // 2
        w = rng.integers(-2, 3, size=(half, 2, 1))
        pts[:half, 3] = pts[:half, 0] + (w * (pts[:half, 1:3] - pts[:half, :1])).sum(axis=1)
    pts = pts * scale
    if family == "one_ulp":
        pts = nudge_one_coordinate(rng, pts)
    if family == "near":  # one coordinate moved by 2^-45 .. 2^-5: about the filter's bound
        rows, i, j = np.arange(m), rng.integers(5, size=m), rng.integers(3, size=m)
        pts[rows, i, j] += rng.choice([-1.0, 1.0], size=m) * scale * 2.0 ** rng.integers(-45, -4, size=m)
    return pts


FAMILIES = ["uniform", "grid", "cospherical", "one_ulp", "near"]


def exact_calls(run):
    """What ``run()`` returns, and the matrices of points that reach the
    integer stage ``_exact_signs``, in order, as lists."""
    calls = []

    def recording(stack):
        calls.extend(np.asarray(stack, dtype=float).tolist())
        return _exact_signs(stack)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(geometry, "_exact_signs", recording)
        return run(), calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy overflow to inf
@pytest.mark.parametrize("family, scale", [
    *((family, scale) for family in FAMILIES for scale in (1.0, 2.0 ** -997, 2.0 ** 997)),
    ("mixed", 1.0),
], ids=str)
def test_3d_scalar_kernels_match_the_numpy_pass_and_integer_rows(family, scale):
    """``_orient3d`` and ``_insphere3d`` give the signs of the integer rows and
    of the NumPy pass, and their filter sends the same matrices to integers."""
    rng = np.random.default_rng([*FAMILIES, "mixed"].index(family))
    stack = kernel_stack(family, rng, scale)
    simp, q = stack[:, :4], stack[:, 4]
    rows, qs = simp.tolist(), q.tolist()
    want = [integer_orientation(s) for s in rows]
    got, scalar_calls = exact_calls(lambda: [_orient3d(s) for s in rows])
    batched, batched_calls = exact_calls(lambda: orientations(simp).tolist())
    assert got == batched == want
    assert scalar_calls == batched_calls
    keep = [k for k, o in enumerate(want) if o]
    sides = [integer_side(rows[k], qs[k]) for k in keep]
    got, scalar_calls = exact_calls(lambda: [_insphere3d(rows[k], qs[k]) for k in keep])
    batched, batched_calls = exact_calls(lambda: in_spheres(simp[keep], q[keep]).tolist())
    assert [s * want[k] for s, k in zip(got, keep)] == batched == sides
    assert scalar_calls == [c for c in batched_calls if len(c) == 5]  # not the orientations
    if scale != 1.0:  # products underflow below the floor or overflow to inf
        assert len(scalar_calls) == len(keep)
    if family in ("grid", "cospherical"):
        assert 0 in sides and len(scalar_calls) >= sides.count(0)
    if family == "grid":
        assert 0 in want
    if family in ("one_ulp", "near"):
        assert {Side.INSIDE, Side.OUTSIDE} <= set(sides)
    assert len(keep) >= 8  # the NumPy pass, not the row-by-row loop


# ---------------------------------------------------------------------------
# the integer stage on stacks the filter flags in part


def partly_flagged_stack(family, rng, m=120):
    """A (k, 5, 3) stack of four simplex vertices and a query each: half of
    them uniform points the filter certifies, half from ``family`` (m rows,
    or every lifted-hull facet of the cube), which the filter flags in whole
    or in part, in shuffled order."""
    if family == "cube":  # the lifted hull's facets, with vertical ones among them
        pts = distorted_cubic_window(4).points
        facets = pts[ConvexHull(delaunay._lifted(pts), qhull_options="Qt").simplices]
        special = np.concatenate([facets, pts[rng.integers(len(pts), size=(len(facets), 1))]], axis=1)
    elif family == "signed_zero":
        special = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(m, 5, 3))
    else:  # integer grids: exact zeros, scaled by a power of two
        scale = {"grid": 1.0, "subnormal": TINY, "big": 2.0 ** 997, "small": 2.0 ** -997}[family]
        special = rng.integers(-2, 3, size=(m, 5, 3)) * scale
    stack = np.concatenate([rng.uniform(-1.0, 1.0, size=(len(special), 5, 3)), special])
    return stack[rng.permutation(len(stack))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy overflow to inf
@pytest.mark.parametrize("family, d", [
    ("cube", 3), *((f, d) for f in ("grid", "signed_zero", "subnormal", "big", "small") for d in (2, 3))])
def test_partly_flagged_stacks_match_scalar_predicates_and_fractions(family, d):
    rng = np.random.default_rng([d, len(family)])
    stack = partly_flagged_stack(family, rng)[:, :d + 2, :d]
    simp, q = stack[:, :d + 1], stack[:, d + 1]
    rows = simp.tolist()
    want = [fraction_orientation(s) for s in rows]
    got, calls = exact_calls(lambda: orientations(simp).tolist())
    assert got == [orientation(s) for s in rows] == [integer_orientation(s) for s in rows] == want
    assert 0 < len(calls) < len(rows) and 0 in want
    keep = [k for k, o in enumerate(want) if o]
    sides = [fraction_side(rows[k], q[k].tolist()) for k in keep]
    got, calls = exact_calls(lambda: in_spheres(simp[keep], q[keep]).tolist())
    assert got == [in_sphere(rows[k], q[k]) for k in keep] == sides
    assert got == [integer_side(rows[k], q[k]) for k in keep]
    assert [len(c) for c in calls].count(d + 2) > 0  # some in-sphere tests went to integers


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NumPy arithmetic on inf and nan
def test_integer_stage_refuses_non_finite_coordinates():
    for simplex in ([(0.0, 0.0), (1.0, 0.0), (math.inf, 0.0)],
                    [(0.0, 0.0), (1.0, 0.0), (math.nan, 1.0)]):
        with pytest.raises(ValueError, match="finite coordinates"):
            orientation(simplex)
        with pytest.raises(ValueError, match="finite coordinates"):
            orientations(np.array([TRI_345] * 7 + [simplex]))
