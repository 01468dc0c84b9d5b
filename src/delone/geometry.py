"""Exact-leaning low-level geometry.

Sign predicates (orientation, in-sphere) are evaluated with a floating-point
filter backed by exact integer arithmetic, so combinatorial decisions are
never wrong.  Every finite float is a 53-bit integer times a power of two, so
the coordinates entering one determinant, times one power of two D, are exact
Python ints.  That scales each coordinate column by D > 0 and the lifted
column of the in-sphere determinant by D^2 > 0, which leaves its sign as it
was.  Metric quantities (volumes, radii) are plain floating point and are
compared with the relative tolerance ``TAU_GEO``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
import numpy as np

from .errors import DegenerateSimplexError

# Relative tolerance for metric (non-combinatorial) comparisons.
TAU_GEO = 1e-9

# A filtered determinant whose magnitude is below _FILTER_EPS times the
# product of its rows' absolute sums is re-evaluated exactly.  Why that bounds
# the error (forward analysis as in Shewchuk, DCG 1997; u = 2^-53): a cofactor
# expansion is a signed sum of products taking one entry from each row, so
# the sum of the products' magnitudes is at most the product of the row sums.
# Along each product, every rounding multiplies by some 1 + e, |e| <= u.  The
# float-translated 3x3 expansion (``_det3`` on rows p_i - p_0) rounds each
# product at most 8 times: once per translated entry (3), then 5 times in the
# expansion.  The lifted 4x4 expansion (``_det4`` on lifted rows about p_0)
# rounds each at most 17 times: 3 translated entries, 5 in the lifted entry
# (the translation twice, as it is squared, the square and two additions of
# non-negative terms) and 9 in the expansion.  So the float determinant lies within gamma_17 = 17u/(1 - 17u)
# < 1.9e-15 times the row-sum product of the exact one, whose sign is the
# predicate's.  Rounding of the row sums and of the bound itself adds a few u
# more, so 1e-11 keeps a factor of over 5000.  Products below 2^-1022 fall
# outside this relative model; _UNDERFLOW_EPS covers them.
_FILTER_EPS = 1e-11

# A product below 2^-1022 errs by up to 2^-1075 absolute, which the relative
# bound misses.  Later factors scale it by at most the other rows' absolute
# sums, so the <= 52 products of a lifted 4x4 expansion err by < 2^-1069 times
# the product of (1 + each row's sum); the filter adds the smallest normal
# float times that product, which vanishes in rounding for normal-range rows.
_UNDERFLOW_EPS = 2.0 ** -1022
_INF = math.inf


class Side(IntEnum):
    OUTSIDE = -1
    ON = 0
    INSIDE = 1


# ---------------------------------------------------------------------------
# determinants (generic over float / int entries)

def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _det4(m):
    """Row-0 expansion, each cofactor written out in ``_det3``'s order."""
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = m
    s01, s02, s03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    s12, s13, s23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    return (a0 * (b1 * s23 - b2 * s13 + b3 * s12)
            - a1 * (b0 * s23 - b2 * s03 + b3 * s02)
            + a2 * (b0 * s13 - b1 * s03 + b3 * s01)
            - a3 * (b0 * s12 - b1 * s02 + b2 * s01))


_DETS = {2: _det2, 3: _det3, 4: _det4}


def _filter_tol(rows):
    """The filter's error bound for det(rows): _FILTER_EPS times the product
    of the rows' absolute sums plus _UNDERFLOW_EPS times the product of
    (1 + each sum).  Works on float rows and on rows of NumPy columns (one
    entry per matrix of a stack), so scalar and batched predicates share it.
    """
    bound = floor = 1.0
    for row in rows:
        s = sum(map(abs, row))
        bound = bound * s
        floor = floor * (1.0 + s)
    return _FILTER_EPS * bound + _UNDERFLOW_EPS * floor


def _exact_signs(stack) -> np.ndarray:
    """Exact determinant signs of an (m, n, d) stack of points, each matrix's
    rows p_i - p_0 (n = d + 1, an orientation) or those rows lifted by
    |p_i - p_0|^2 (n = d + 2, an in-sphere test), in one integer pass.
    ``np.frexp`` writes each coordinate as a 53-bit integer times 2^e, so
    scaling a matrix by 2^-e_min, its smallest e, makes every coordinate an
    exact Python int.  One ``_DETS`` expansion then runs over object columns
    holding every matrix of the stack."""
    pts = np.asarray(stack, dtype=float)
    if not np.isfinite(pts).all():
        raise ValueError("exact predicates need finite coordinates")
    _, n, d = pts.shape
    mant, exp = np.frexp(pts)
    ints = (mant * 2.0 ** 53).astype(np.int64).astype(object)
    coords = ints << (exp - exp.min(axis=(1, 2), keepdims=True)).astype(object)
    rows = coords[:, 1:] - coords[:, :1]
    if n == d + 2:
        rows = np.concatenate([rows, (rows * rows).sum(axis=2, keepdims=True)], axis=2)
    det = _DETS[n - 1](list(rows.transpose(1, 2, 0)))
    return np.sign(det).astype(np.int64)


def _exact_sign(pts) -> int:
    """``_exact_signs`` on one matrix of points: the scalar kernels' fallback."""
    return int(_exact_signs([pts])[0])


def _filtered_det_sign(rows_float, pts) -> int:
    """Sign of det(rows), exact.

    ``rows_float`` are float rows used for the fast path; ``pts`` are the
    points whose integer rows (see ``_exact_signs``) have a determinant of
    the same sign.
    """
    det = _DETS[len(rows_float)](rows_float)
    if _filter_tol(rows_float) < abs(det) < _INF:  # overflow goes exact too
        return 1 if det > 0 else -1
    return _exact_sign(pts)


def _filtered_det_signs(rows, pts) -> np.ndarray:
    """Batched ``_filtered_det_sign``: ``rows`` hold NumPy columns (one entry
    per matrix) and ``pts`` is the (m, n, d) stack of the matrices' points.
    Every matrix the filter cannot certify goes to one ``_exact_signs`` call."""
    det = _DETS[len(rows)](rows)
    signs = np.sign(det).astype(np.int64)
    size = np.abs(det)
    flagged = ~((_filter_tol(rows) < size) & (size < _INF))
    if flagged.any():
        signs[flagged] = _exact_signs(pts[flagged])
    return signs


def _orient_rows(p) -> int:
    """``orientation`` on d+1 rows of Python floats, the one scalar path."""
    if len(p) == 3:
        (ax, ay), (bx, by), (cx, cy) = p
        return orient2d(ax, ay, bx, by, cx, cy)
    if len(p) == 4:
        return _orient3d(p)
    rows = [[x - b for x, b in zip(row, p[0])] for row in p[1:]]
    return _filtered_det_sign(rows, p)


def orientation(simplex) -> int:
    """Orientation sign of d+1 points in R^d, d = 2..4: +1, -1, or 0 (degenerate).

    (0,0),(1,0),(0,1) is positively oriented, as is the standard 3-simplex.
    """
    pts = np.asarray(simplex, dtype=float)
    n, d = pts.shape
    if n != d + 1 or not 2 <= d <= 4:
        raise ValueError(f"orientation needs d+1 points in R^d, d = 2..4, got {n}x{d}")
    return _orient_rows(pts.tolist())


def orientations(stack) -> np.ndarray:
    """Exact orientation signs of an (m, d+1, d) stack of simplices.

    The batched form of ``orientation``: every determinant is evaluated in
    NumPy with the same cofactor expansion and filter, and only the rows the
    filter cannot certify are re-evaluated in integer arithmetic.  Stacks
    of fewer than 8 rows go row by row through the scalar kernel on Python
    floats, which costs less than the fixed cost of the NumPy pass.
    """
    pts = np.asarray(stack, dtype=float)
    m, n, d = pts.shape
    if n != d + 1 or not 2 <= d <= 4:
        raise ValueError(f"orientations needs an (m, d+1, d) stack, d = 2..4, got {pts.shape}")
    if m < 8:
        return np.array([_orient_rows(s) for s in pts.tolist()], dtype=np.int64)
    rows = [list(row) for row in (pts[:, 1:] - pts[:, :1]).transpose(1, 2, 0)]
    return _filtered_det_signs(rows, pts)


def _lifted_rows(pts, origin):
    """Rows (p_i - origin, |p_i - origin|^2) of an in-sphere determinant,
    over floats, ints or NumPy columns, so every predicate shares one
    formula."""
    diffs = [[x - y for x, y in zip(p, origin)] for p in pts]
    return [diff + [sum(x * x for x in diff)] for diff in diffs]


# The in-sphere determinant of a simplex p_0..p_d and a point q takes the
# lifted rows of p_1..p_d, q about p_0.  It is (-1)^(d+1) times the one about
# q, so it is negative inside a positively oriented simplex in every
# dimension.  About q, a far q against a sliver cell makes every row long and
# the filter bound loose; about p_0 only q's row is long.

def _in_sphere_rows(p, q) -> Side:
    """``in_sphere`` on d+1 rows and a point of Python floats."""
    orient = _orient_rows(p)
    if orient == 0:
        raise DegenerateSimplexError("in_sphere: degenerate simplex")
    if len(q) == 2:
        (ax, ay), (bx, by), (cx, cy) = p
        s = incircle2d(ax, ay, bx, by, cx, cy, *q)  # positive inside
    else:
        s = _insphere3d(p, q)
    # index -1 picks OUTSIDE
    return (Side.ON, Side.INSIDE, Side.OUTSIDE)[s * orient]


def in_sphere(simplex, point) -> Side:
    """Classify ``point`` against the circumsphere of a non-degenerate simplex."""
    pts = np.asarray(simplex, dtype=float)
    q = np.asarray(point, dtype=float)
    n, d = pts.shape
    if n != d + 1 or q.shape != (d,) or d not in (2, 3):
        raise ValueError(f"in_sphere needs a d-simplex and a d-point, d = 2 or 3, got {n}x{d}")
    return _in_sphere_rows(pts.tolist(), q.tolist())


def in_spheres(simplices, points) -> np.ndarray:
    """Batched ``in_sphere`` (d = 2 or 3): the ``Side`` of points[k] against
    the circumsphere of simplices[k], for an (m, d+1, d) stack and m points.
    Built like ``orientations``; raises if any simplex is degenerate."""
    simp = np.asarray(simplices, dtype=float)
    q = np.asarray(points, dtype=float)
    m, n, d = simp.shape
    if n != d + 1 or q.shape != (m, d) or d not in (2, 3):
        raise ValueError(f"in_spheres needs d = 2 or 3, got shapes {simp.shape} and {q.shape}")
    if m < 8:
        return np.array(list(map(_in_sphere_rows, simp.tolist(), q.tolist())), dtype=np.int64)
    orient = orientations(simp)
    if not orient.all():
        raise DegenerateSimplexError("in_spheres: degenerate simplex")
    full = np.concatenate([simp, q[:, None]], axis=1)
    rows = _lifted_rows(full[:, 1:].transpose(1, 2, 0), simp[:, 0].T)
    signs = _filtered_det_signs(rows, full)
    return -signs * orient


# ---------------------------------------------------------------------------
# metric quantities

@dataclass(frozen=True)
class Circumsphere:
    center: np.ndarray
    radius: float


def measure(simplex) -> float:
    """d-dimensional volume |det|/d! of a simplex; 0 if degenerate."""
    pts = np.asarray(simplex, dtype=float)
    n, d = pts.shape
    if n != d + 1:
        raise ValueError("measure needs d+1 points of dimension d")
    return measures(pts[None])[0]


def measures(stack) -> np.ndarray:
    """Batched ``measure`` of an (m, d+1, d) stack."""
    coords = np.asarray(stack, dtype=float)
    edges = coords[:, 1:, :] - coords[:, :1, :]
    return np.abs(np.linalg.det(edges)) / math.factorial(coords.shape[2])


def circumsphere(simplex) -> Circumsphere:
    """Circumcenter and circumradius of a non-degenerate simplex."""
    pts = np.asarray(simplex, dtype=float)
    if orientation(pts) == 0:
        raise DegenerateSimplexError("degenerate simplex has no circumsphere")
    a = 2.0 * (pts[1:] - pts[0])
    b = (pts[1:] ** 2).sum(axis=1) - (pts[0] ** 2).sum()
    try:
        center = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError("circumsphere solve is singular in floating point") from exc
    dists = np.linalg.norm(pts - center, axis=1)
    radius = float(dists.mean())
    if dists.max() - dists.min() > TAU_GEO * max(radius, 1.0):
        raise DegenerateSimplexError("circumsphere solve lost accuracy")
    return Circumsphere(center=center, radius=radius)


def circumcenters(stack) -> np.ndarray:
    """Circumcenters of an (m, d+1, d) stack of non-degenerate simplices;
    raises ``DegenerateSimplexError`` if a solve is singular in floating
    point."""
    coords = np.asarray(stack, dtype=float)
    a = 2.0 * (coords[:, 1:, :] - coords[:, :1, :])
    b = (coords[:, 1:, :] ** 2).sum(axis=2) - (coords[:, :1, :] ** 2).sum(axis=2)
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:
        raise DegenerateSimplexError("circumsphere solve is singular in floating point") from exc


def circumradii(stack) -> np.ndarray:
    """Batched ``circumradius``: the same solve, mean of the d+1 vertex
    distances, exact degeneracy check and ``TAU_GEO`` accuracy check."""
    pts = np.asarray(stack, dtype=float)
    if not orientations(pts).all():
        raise DegenerateSimplexError("degenerate simplex has no circumsphere")
    centers = circumcenters(pts)
    dists = np.linalg.norm(pts - centers[:, None, :], axis=2)
    radii = dists.mean(axis=1)
    if (dists.max(axis=1) - dists.min(axis=1) > TAU_GEO * np.maximum(radii, 1.0)).any():
        raise DegenerateSimplexError("circumsphere solve lost accuracy")
    return radii


def circumradius(simplex) -> float:
    return circumsphere(simplex).radius


def area_via_circumradius(a: float, b: float, c: float, rho: float) -> float:
    """Triangle area from its edge lengths and circumradius: a*b*c/(4*rho)."""
    if rho <= 0:
        raise ValueError("circumradius must be positive")
    if a + b <= c or b + c <= a or a + c <= b:
        raise ValueError("edge lengths violate the triangle inequality")
    return a * b * c / (4.0 * rho)


def lift(p) -> np.ndarray:
    """Lift a d-point onto the unit paraboloid in R^{d+1}: x -> (x, |x|^2)."""
    p = np.asarray(p, dtype=float)
    return np.concatenate([p, [float(p @ p)]])


def centroid(simplex) -> np.ndarray:
    return np.asarray(simplex, dtype=float).mean(axis=0)


def inradius_2d(triangle) -> float:
    """Inradius of a non-degenerate triangle: area / semiperimeter."""
    pts = np.asarray(triangle, dtype=float)
    if pts.shape != (3, 2):
        raise ValueError("inradius_2d needs a triangle in the plane")
    area = measure(pts)
    if area == 0.0:
        raise DegenerateSimplexError("degenerate triangle has no inradius")
    a = np.linalg.norm(pts[1] - pts[2])
    b = np.linalg.norm(pts[0] - pts[2])
    c = np.linalg.norm(pts[0] - pts[1])
    return float(2.0 * area / (a + b + c))


# Scalar predicates on Python floats.  The incremental builder calls the 2D
# ones directly, and the one scalar path (``_orient_rows``/``_in_sphere_rows``)
# routes d = 2 through ``orient2d``/``incircle2d``, d = 3 through
# ``_orient3d``/``_insphere3d``, and the d = 4 orientation through
# ``_filtered_det_sign``.  Each kernel writes out the batched pass's expansion
# and ``_filter_tol`` bound and hands ``_exact_signs`` a stack of one, so the
# signs agree.  On np.float64 scalars instead of Python floats a call takes
# 5-6x longer (orient2d 5.3 against 0.9 us, incircle2d 8.0 against 1.5 us;
# CPython 3.11, NumPy 2.4, one core of a 2-vCPU VM).

def orient2d(ax, ay, bx, by, cx, cy) -> int:
    ux, uy = bx - ax, by - ay
    vx, vy = cx - ax, cy - ay
    det = ux * vy - uy * vx
    # No factor follows the products, so the underflow term is a constant; an
    # overflowed difference makes tol inf or nan, an overflowed product keeps
    # the sign of det exact.
    tol = _FILTER_EPS * ((abs(ux) + abs(uy)) * (abs(vx) + abs(vy))) + _UNDERFLOW_EPS
    if det > tol:
        return 1
    if det < -tol:
        return -1
    return _exact_sign(((ax, ay), (bx, by), (cx, cy)))


def incircle2d(ax, ay, bx, by, cx, cy, qx, qy) -> int:
    """Sign of the incircle determinant; positive iff q is strictly inside the
    circle through a counterclockwise a, b, c."""
    adx, ady = ax - qx, ay - qy
    bdx, bdy = bx - qx, by - qy
    cdx, cdy = cx - qx, cy - qy
    ad = adx * adx + ady * ady
    bd = bdx * bdx + bdy * bdy
    cd = cdx * cdx + cdy * cdy
    det = (
        adx * (bdy * cd - bd * cdy)
        - ady * (bdx * cd - bd * cdx)
        + ad * (bdx * cdy - bdy * cdx)
    )
    sa = abs(adx) + abs(ady) + ad
    sb = abs(bdx) + abs(bdy) + bd
    sc = abs(cdx) + abs(cdy) + cd
    tol = (_FILTER_EPS * (sa * sb * sc)
           + _UNDERFLOW_EPS * ((1.0 + sa) * (1.0 + sb) * (1.0 + sc)))
    if tol < det < _INF:
        return 1
    if -_INF < det < -tol:
        return -1
    return _exact_sign(((qx, qy), (ax, ay), (bx, by), (cx, cy)))


def _orient3d(p) -> int:
    """``orientation`` of four rows of Python floats: ``_det3`` of the rows
    p_i - p_0, written out."""
    (ox, oy, oz), (ax, ay, az), (bx, by, bz), (cx, cy, cz) = p
    a0, a1, a2 = ax - ox, ay - oy, az - oz
    b0, b1, b2 = bx - ox, by - oy, bz - oz
    c0, c1, c2 = cx - ox, cy - oy, cz - oz
    det = (a0 * (b1 * c2 - b2 * c1)
           - a1 * (b0 * c2 - b2 * c0)
           + a2 * (b0 * c1 - b1 * c0))
    sa = abs(a0) + abs(a1) + abs(a2)
    sb = abs(b0) + abs(b1) + abs(b2)
    sc = abs(c0) + abs(c1) + abs(c2)
    tol = (_FILTER_EPS * (sa * sb * sc)
           + _UNDERFLOW_EPS * ((1.0 + sa) * (1.0 + sb) * (1.0 + sc)))
    if tol < det < _INF:
        return 1
    if -_INF < det < -tol:
        return -1
    return _exact_sign(p)


def _insphere3d(p, q) -> int:
    """Sign of the in-sphere determinant of four rows p and a point q of
    Python floats, positive iff q is strictly inside the sphere through a
    positively oriented p: minus ``_det4`` of the lifted rows of p_1, p_2,
    p_3, q about p_0, written out."""
    (ox, oy, oz), (ax, ay, az), (bx, by, bz), (cx, cy, cz) = p
    qx, qy, qz = q
    a0, a1, a2 = ax - ox, ay - oy, az - oz
    b0, b1, b2 = bx - ox, by - oy, bz - oz
    c0, c1, c2 = cx - ox, cy - oy, cz - oz
    d0, d1, d2 = qx - ox, qy - oy, qz - oz
    a3 = a0 * a0 + a1 * a1 + a2 * a2
    b3 = b0 * b0 + b1 * b1 + b2 * b2
    c3 = c0 * c0 + c1 * c1 + c2 * c2
    d3 = d0 * d0 + d1 * d1 + d2 * d2
    s01, s02, s03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
    s12, s13, s23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
    det = (a0 * (b1 * s23 - b2 * s13 + b3 * s12)
           - a1 * (b0 * s23 - b2 * s03 + b3 * s02)
           + a2 * (b0 * s13 - b1 * s03 + b3 * s01)
           - a3 * (b0 * s12 - b1 * s02 + b2 * s01))
    sa = abs(a0) + abs(a1) + abs(a2) + a3
    sb = abs(b0) + abs(b1) + abs(b2) + b3
    sc = abs(c0) + abs(c1) + abs(c2) + c3
    sd = abs(d0) + abs(d1) + abs(d2) + d3
    tol = (_FILTER_EPS * (sa * sb * sc * sd)
           + _UNDERFLOW_EPS * ((1.0 + sa) * (1.0 + sb) * (1.0 + sc) * (1.0 + sd)))
    if tol < det < _INF:
        return -1
    if -_INF < det < -tol:
        return 1
    return -_exact_sign([*p, q])


def on_open_segment(a, b, q) -> bool:
    """Exact: planar point q lies on the open segment ab.  A point collinear
    with a and b lies on the closed segment iff it lies in the segment's
    bounding box, and float comparisons of coordinates are exact."""
    in_box = all(min(u, v) <= w <= max(u, v) for u, v, w in zip(a, b, q))
    is_end = all(u == w for u, w in zip(a, q)) or all(v == w for v, w in zip(b, q))
    return in_box and not is_end and orient2d(*a, *b, *q) == 0


def segments_cross(a, b) -> np.ndarray:
    """Entry k is True iff the open segments a[k] and b[k] of two (m, 2, 2)
    stacks properly cross: the endpoints of each lie strictly on opposite
    sides of the other's line.  Exact, via one ``orientations`` call."""
    ends = np.concatenate([np.asarray(a, dtype=float), np.asarray(b, dtype=float)], axis=1)
    tris = ends[:, [[0, 1, 2], [0, 1, 3], [2, 3, 0], [2, 3, 1]]]
    o = orientations(tris.reshape(-1, 3, 2)).reshape(-1, 4)
    return (o[:, 0] * o[:, 1] < 0) & (o[:, 2] * o[:, 3] < 0)


def points_in_simplices(simplices, points) -> np.ndarray:
    """Batched closed ``point_in_simplex``: entry k is True iff points[k]
    lies in the closed simplex simplices[k]; degenerate simplices hold no
    point.  Exact, via ``orientations``."""
    simp = np.asarray(simplices, dtype=float)
    m, n, d = simp.shape
    ref = orientations(simp)
    # simplex k with vertex i replaced by the point
    swapped = np.repeat(simp[:, None], n, axis=1)
    diag = np.arange(n)
    swapped[:, diag, diag] = np.asarray(points, dtype=float)[:, None]
    signs = orientations(swapped.reshape(m * n, n, d)).reshape(m, n)
    return (ref != 0) & (signs * ref[:, None] >= 0).all(axis=1)


def point_in_simplex(simplex, point) -> bool:
    """Exact closed point-in-simplex test via orientation signs; a degenerate
    simplex holds no point."""
    pts = np.asarray(simplex, dtype=float)
    n = len(pts)
    ref = orientation(pts)
    if ref == 0:
        return False
    q = np.asarray(point, dtype=float)
    for i in range(n):
        face = np.vstack([pts[:i], pts[i + 1:], q[None, :]])
        s = orientation(face) * (1 if (n - 1 - i) % 2 == 0 else -1)
        if s * ref < 0:
            return False
    return True
