"""Exact-leaning low-level geometry.

Sign predicates (orientation, in-sphere) are evaluated with a floating-point
filter backed by exact integer arithmetic, so combinatorial decisions are
never wrong.  Every finite float is an integer times a power of two, so the
coordinates entering one determinant, times their largest denominator D, are
exact Python ints.  That scales each coordinate column by D > 0 and the lifted
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
# Hadamard-style row bound is re-evaluated exactly.  Naive cofactor expansion
# of an n <= 5 matrix has a relative error well below 1e-13, so 1e-11 leaves
# two orders of magnitude of safety.
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
    out = 0
    sign = 1
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in (1, 2, 3)]
        out = out + sign * m[0][col] * _det3(minor)
        sign = -sign
    return out


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


def _exact_sign(rows) -> int:
    det = _DETS[len(rows)](rows)
    return (det > 0) - (det < 0)


def _scaled(pts):
    """The coordinates of ``pts`` times their largest denominator, a power of
    two, as exact ints."""
    ratios = [[float(x).as_integer_ratio() for x in p] for p in pts]
    scale = max(den for p in ratios for _, den in p)
    return [[num * (scale // den) for num, den in p] for p in ratios]


def _exact_rows(pts):
    """Rows p_i - p_0 of a simplex over exact ints: the coordinates scaled by
    one power of two D.  Each of the d rows scales by D, so the determinant
    scales by D^d > 0 and keeps its sign."""
    base, *rest = _scaled(pts)
    return [[x - b for x, b in zip(p, base)] for p in rest]


def _filtered_det_sign(rows_float, rows_exact) -> int:
    """Sign of det(rows), exact.

    ``rows_float`` are float rows used for the fast path; ``rows_exact`` is a
    zero-argument callable producing a matrix of exact ints whose
    determinant has the same sign.
    """
    det = _DETS[len(rows_float)](rows_float)
    if _filter_tol(rows_float) < abs(det) < _INF:  # overflow goes exact too
        return 1 if det > 0 else -1
    return _exact_sign(rows_exact())


def _filtered_det_signs(rows, exact_rows) -> np.ndarray:
    """Batched ``_filtered_det_sign``: ``rows`` hold NumPy columns (one entry
    per matrix) and ``exact_rows(k)`` gives matrix k over exact ints."""
    det = _DETS[len(rows)](rows)
    signs = np.sign(det).astype(np.int64)
    size = np.abs(det)
    for k in np.flatnonzero(~((_filter_tol(rows) < size) & (size < _INF))):
        signs[k] = _exact_sign(exact_rows(k))
    return signs


def orientation(simplex) -> int:
    """Orientation sign of d+1 points in R^d: +1, -1, or 0 (degenerate).

    (0,0),(1,0),(0,1) is positively oriented, as is the standard 3-simplex.
    """
    pts = np.asarray(simplex, dtype=float)
    n, d = pts.shape
    if n != d + 1:
        raise ValueError(f"orientation needs d+1 points of dimension d, got {n}x{d}")
    if d == 2:  # the same filter and fallback on Python floats
        (ax, ay), (bx, by), (cx, cy) = pts.tolist()
        return orient2d(ax, ay, bx, by, cx, cy)
    base = pts[0]
    rows = [[float(pts[i][j] - base[j]) for j in range(d)] for i in range(1, n)]
    return _filtered_det_sign(rows, lambda: _exact_rows(pts))


def orientations(stack) -> np.ndarray:
    """Exact orientation signs of an (m, d+1, d) stack of simplices.

    The batched form of ``orientation``: every determinant is evaluated in
    NumPy with the same cofactor expansion and filter, and only the rows the
    filter cannot certify are re-evaluated in integer arithmetic.  Stacks
    of fewer than 8 rows go through ``orientation`` row by row, which costs
    less than the fixed cost of the NumPy pass.
    """
    pts = np.asarray(stack, dtype=float)
    m, n, d = pts.shape
    if n != d + 1:
        raise ValueError(f"orientations needs an (m, d+1, d) stack, got {pts.shape}")
    if m < 8:
        return np.array([orientation(s) for s in pts], dtype=np.int64)
    rows = [list(row) for row in (pts[:, 1:] - pts[:, :1]).transpose(1, 2, 0)]
    return _filtered_det_signs(rows, lambda k: _exact_rows(pts[k]))


def _lifted_rows(pts, q):
    """Rows (p_i - q, |p_i - q|^2) of the in-sphere determinant, over floats,
    ints or NumPy columns, so both predicates share one formula."""
    diffs = [[x - y for x, y in zip(p, q)] for p in pts]
    return [diff + [sum(x * x for x in diff)] for diff in diffs]


def _exact_lifted_rows(pts, q):
    """The lifted rows over the simplex and ``q`` scaled to exact ints by one
    power of two D: the coordinate columns scale by D, the lifted column by
    D^2, so the sign is kept."""
    *simplex, q = _scaled([*pts, q])
    return _lifted_rows(simplex, q)


def in_sphere(simplex, point) -> Side:
    """Classify ``point`` against the circumsphere of a non-degenerate simplex."""
    pts = np.asarray(simplex, dtype=float)
    q = np.asarray(point, dtype=float)
    n, d = pts.shape
    if n != d + 1 or q.shape != (d,):
        raise ValueError("in_sphere needs a d-simplex and a d-point")
    orient = orientation(pts)
    if orient == 0:
        raise DegenerateSimplexError("in_sphere: degenerate simplex")
    if d == 2:  # the same lifted rows, filter and fallback on Python floats
        (ax, ay), (bx, by), (cx, cy) = pts.tolist()
        s = incircle2d(ax, ay, bx, by, cx, cy, *q.tolist())
    else:
        rows = _lifted_rows(pts.tolist(), q.tolist())
        s = _filtered_det_sign(rows, lambda: _exact_lifted_rows(pts, q))
    # The translated lifted determinant is positive-inside in even dimension
    # and negative-inside in odd dimension; index -1 picks OUTSIDE.
    return (Side.ON, Side.INSIDE, Side.OUTSIDE)[s * orient * (-1) ** d]


def in_spheres(simplices, points) -> np.ndarray:
    """Batched ``in_sphere``: the ``Side`` value of points[k] against the
    circumsphere of simplices[k], for an (m, d+1, d) stack and m points.
    Built like ``orientations``; raises if any simplex is degenerate."""
    simp = np.asarray(simplices, dtype=float)
    q = np.asarray(points, dtype=float)
    m, n, d = simp.shape
    if n != d + 1 or q.shape != (m, d):
        raise ValueError(f"in_spheres got shapes {simp.shape} and {q.shape}")
    if m < 8:
        return np.array([in_sphere(s, p) for s, p in zip(simp, q)], dtype=np.int64)
    orient = orientations(simp)
    if not orient.all():
        raise DegenerateSimplexError("in_spheres: degenerate simplex")
    rows = _lifted_rows(simp.transpose(1, 2, 0), q.T)
    signs = _filtered_det_signs(rows, lambda k: _exact_lifted_rows(simp[k], q[k]))
    return signs * orient * (-1) ** d


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


# 2D predicates on Python floats: the incremental builder calls them
# directly, and ``orientation``/``in_sphere`` route d = 2 through them.  They
# evaluate the same expansion with the same ``_filter_tol`` bound and the
# same integer fallback, so their signs are identical.

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
    return _exact_sign(_exact_rows(((ax, ay), (bx, by), (cx, cy))))


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
    return _exact_sign(_exact_lifted_rows(((ax, ay), (bx, by), (cx, cy)), (qx, qy)))


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


def point_in_simplex(simplex, point, closed: bool = True) -> bool:
    """Exact point-in-simplex test via orientation signs."""
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
        if s == 0 and not closed:
            return False
    return True
