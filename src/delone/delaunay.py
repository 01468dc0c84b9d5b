"""Delaunay triangulations of finite point sets in 2D and 3D.

The 2D builder is an incremental Bowyer-Watson with ghost triangles and
exact predicates, so its combinatorics are exact for generic input and
non-generic input is detected rather than silently mis-triangulated; one
exact in-circle test per interior edge then certifies the output.  The 3D
builder projects the lower faces of the convex hull of the lifted points;
the hull combinatorics come from Qhull, while lower-face classification and
the emptiness verification (sampled above 200 points) use exact arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateSimplexError,
    InvalidComplexError,
    NonGenericError,
)
from .geometry import (
    Side,
    _exact_rows,
    in_sphere,
    in_spheres,
    incircle2d,
    lift,
    on_open_segment,
    orient2d,
    orientation,
    orientations,
    points_in_simplices,
    segments_cross,
)
from .triangulation import TriangulationComplex, build_complex, first_non_delaunay_facet

GHOST = -1


# ---------------------------------------------------------------------------
# 2D incremental construction


class _Mesh2D:
    """Triangle soup with directed-edge adjacency and hull ghost triangles."""

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


def _serpentine_order(pts, lex):
    """Insertion order with short point-location walks: sweep x in roughly
    sqrt(n) bins, alternating the y direction per bin so consecutive
    insertions stay spatially adjacent."""
    n = len(pts)
    xmin, xmax = float(pts[:, 0].min()), float(pts[:, 0].max())
    span = xmax - xmin
    if span == 0.0 or n < 16:
        return lex
    nbins = max(1, math.isqrt(n))
    width = span / nbins
    col = np.minimum(((pts[:, 0] - xmin) / width).astype(np.int64), nbins - 1)
    ys = np.where(col % 2 == 0, pts[:, 1], -pts[:, 1])
    return np.lexsort((np.arange(n), ys, col))


def delaunay_2d(points, *, provenance=None) -> TriangulationComplex:
    """Delaunay triangulation of >= 3 generic planar points, certified by an
    exact local-Delaunay test of every interior edge.

    Raises ``NonGenericError`` on cocircular 4-tuples encountered during
    construction or certification, ``InvalidComplexError`` if an edge of
    the built complex is not locally Delaunay, ``DegenerateSimplexError`` if
    all points are collinear, and ``ValueError`` on duplicates.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 3 or pts.shape[1] != 2:
        raise DegenerateSimplexError("delaunay_2d needs at least 3 planar points")
    lex = np.lexsort((pts[:, 1], pts[:, 0]))
    srt = pts[lex]
    dup = np.flatnonzero((srt[1:] == srt[:-1]).all(axis=1))
    if len(dup):
        s, t = lex[dup[0]], lex[dup[0] + 1]
        raise ValueError(f"duplicate points {int(s)} and {int(t)}")
    order = _serpentine_order(pts, lex)

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

    mesh = _Mesh2D(coords)
    mesh.seed(i0, i1, k)
    for idx in order[2:]:
        idx = int(idx)
        if idx == k:
            continue
        mesh.insert(idx)

    cx = build_complex(pts, mesh.real_cells(), provenance=provenance or {})
    used = cx.vertices_used()
    if len(used) != n:
        raise InvalidComplexError("a point ended up unused by the triangulation")
    facet = first_non_delaunay_facet(cx)
    if facet is not None:
        raise InvalidComplexError(f"facet {facet} is not locally Delaunay")
    return cx


# ---------------------------------------------------------------------------
# emptiness verification of the 3D builder; the tests' independent oracle


def verify_empty_circumspheres(
    cx: TriangulationComplex, *, exhaustive_limit=200, samples=2000, seed=0
):
    """Check the defining property of the Delaunay triangulation: no vertex
    lies inside the circumsphere of any cell.

    Exhaustive up to ``exhaustive_limit`` points; above that it tests only
    ``samples`` seeded random (cell, vertex) draws and so is not a proof.
    The first bad pair (in cell then vertex order, or draw order) raises
    ``InvalidComplexError`` if inside, ``NonGenericError`` if cospherical.
    ``delaunay_3d`` is its one caller.
    """
    n = len(cx.points)
    cells = cx.cells_array()
    if n <= exhaustive_limit:
        ci, v = np.divmod(np.arange(len(cells) * n), n)
    else:
        rng = np.random.default_rng(seed)
        draws = [(rng.integers(len(cells)), rng.integers(n)) for _ in range(samples)]
        ci, v = np.array(draws, dtype=np.int64).reshape(-1, 2).T
    keep = (cells[ci] != v[:, None]).all(axis=1)
    ci, v = ci[keep], v[keep]
    sides = in_spheres(cx.points[cells[ci]], cx.points[v])
    bad = np.flatnonzero(sides != Side.OUTSIDE)
    if len(bad):
        cell, v = cx.cells[ci[bad[0]]], int(v[bad[0]])
        if sides[bad[0]] == Side.INSIDE:
            raise InvalidComplexError(
                f"vertex {v} lies inside the circumsphere of cell {cell}"
            )
        raise NonGenericError(f"vertex {v} is cospherical with cell {cell}")


# ---------------------------------------------------------------------------
# 3D construction via the lifted lower hull


def _collinear_3d(a, b, c) -> bool:
    """Exact collinearity of three points in R^3 via the cross-product minors
    of the integer-scaled rows b - a, c - a."""
    u, v = _exact_rows((a, b, c))
    return (
        u[1] * v[2] == u[2] * v[1]
        and u[2] * v[0] == u[0] * v[2]
        and u[0] * v[1] == u[1] * v[0]
    )


def _find_affine_basis_3d(pts) -> bool:
    """True iff the points affinely span R^3 (greedy, exact, linear scans)."""
    n = len(pts)
    if n < 4:
        return False
    base = 0
    second = next((i for i in range(n) if not np.array_equal(pts[i], pts[base])), None)
    if second is None:
        return False
    third = next(
        (i for i in range(n) if not _collinear_3d(pts[base], pts[second], pts[i])),
        None,
    )
    if third is None:
        return False
    rows = [base, second, third]
    return any(
        orientation(pts[rows + [i]]) != 0 for i in range(n) if i not in rows
    )


def delaunay_3d(points, *, provenance=None, verify=True) -> TriangulationComplex:
    """Delaunay triangulation of >= 5 generic points in R^3, computed as the
    vertical projection of the lower convex hull of the lifted points."""
    from scipy.spatial import ConvexHull, QhullError

    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n < 5 or pts.shape[1] != 3:
        raise DegenerateSimplexError("delaunay_3d needs at least 5 points in R^3")
    if len(np.unique(pts, axis=0)) != n:
        raise ValueError("duplicate points")
    if not _find_affine_basis_3d(pts):
        raise DegenerateSimplexError("all points are coplanar")

    lifted = np.array([lift(p) for p in pts])
    try:
        hull = ConvexHull(lifted, qhull_options="Qt")
    except QhullError as exc:
        raise NonGenericError(f"lifted hull is degenerate: {exc}") from exc

    interior = lifted.mean(axis=0)
    base = lifted[hull.simplices]
    below = base.mean(axis=1)
    below[:, 3] -= 1.0
    downs = orientations(np.concatenate([base, below[:, None]], axis=1))
    ins = orientations(np.concatenate(
        [base, np.broadcast_to(interior, below.shape)[:, None]], axis=1))
    sorted_facets = np.sort(hull.simplices, axis=1)
    flats = orientations(pts[sorted_facets]) == 0
    cells = set()
    for facet, s_down, s_in, flat in zip(sorted_facets.tolist(), downs, ins, flats):
        if s_down == 0:
            continue  # vertical facet (coplanar window-boundary points)
        if s_in == 0:
            raise NonGenericError("lifted hull has a facet through its centroid")
        if s_in == s_down or flat:
            # an upper facet (the hull lies below it), or a coplanar 4-tuple
            # on the window boundary that lifts to a lower facet whose
            # projection is flat: not a 3-cell
            continue
        cells.add(tuple(facet))

    cx = build_complex(pts, cells, provenance=provenance or {})
    used = cx.vertices_used()
    if len(used) != n:
        raise NonGenericError("a point is missing from the lower hull projection")
    if verify:
        verify_empty_circumspheres(cx)
    return cx


def delaunay_of(points, *, provenance=None) -> TriangulationComplex:
    pts = np.asarray(points, dtype=float)
    if pts.shape[1] == 2:
        return delaunay_2d(pts, provenance=provenance)
    if pts.shape[1] == 3:
        return delaunay_3d(pts, provenance=provenance)
    raise ValueError("only dimensions 2 and 3 are supported")


# ---------------------------------------------------------------------------
# Radon two-triangulations of d+2 points


def radon_split(points):
    """Split the non-degenerate d-simplices spanned by d+2 generic points in
    convex position into the Delaunay triangulation and the other one.

    Returns the cell lists (lower, upper).  The leave-one-out simplex S_i
    omitting vertex i is Delaunay iff p_i lies outside its circumsphere.
    The signs lam_i = (-1)^i orientation(S_i) are those of the points'
    affine dependence (their Radon circuit): p_i lies in the closed hull of
    the others iff lam_i lam_j <= 0 for every j != i.  All d+2 lifted points
    share one determinant, so side(S_i, p_i) = side(S_0, p_0) lam_i lam_0.
    Raises at the first i whose S_i is degenerate (``NonGenericError``) or
    whose p_i lies in the hull of the others (``ValueError``), and at i = 0
    if all points are cospherical (``NonGenericError``).
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if n != d + 2:
        raise ValueError("radon_two_triangulations needs exactly d+2 points")
    rests = [[j for j in range(n) if j != i] for i in range(n)]
    lam = [(-1) ** i * orientation(pts[rest]) for i, rest in enumerate(rests)]
    lower, upper = [], []
    for i, rest in enumerate(rests):
        if lam[i] == 0:
            raise NonGenericError(f"points without {i} are affinely degenerate")
        if all(lam[i] * lam[j] <= 0 for j in rest):
            raise ValueError(
                f"point {i} lies inside the convex hull of the others"
            )
        if i == 0:
            side0 = in_sphere(pts[rest], pts[0])
            if side0 == Side.ON:
                raise NonGenericError(f"all {n} points are cospherical")
        cell = tuple(rest)
        if side0 * lam[i] * lam[0] == Side.OUTSIDE:
            lower.append(cell)
        else:
            upper.append(cell)
    return lower, upper


def radon_two_triangulations(points):
    """The Delaunay triangulation and the other triangulation of d+2 generic
    points in convex position (see ``radon_split``); the pair realizes the
    directed flip T -> D."""
    pts = np.asarray(points, dtype=float)
    lower, upper = radon_split(pts)
    # radon_split's exact signs prove both lists triangulate the hull
    return (build_complex(pts, lower, check_coverage=False),
            build_complex(pts, upper, check_coverage=False))


# ---------------------------------------------------------------------------
# restriction of a Delaunay triangulation to a region


def restrict_delaunay(
    dcx: TriangulationComplex, region: TriangulationComplex
) -> TriangulationComplex:
    """Subcomplex of the cells of the 2D Delaunay triangulation ``dcx`` that
    lie in the underlying space |T'| of ``region``, decided exactly.

    ``region`` must be a complex on the same points Y, and no point of Y may
    lie in a closed region cell other than that cell's own vertices.  Every
    point of Y is a vertex of ``dcx``, so no point of Y lies in an open
    Delaunay cell or edge either, nor in an open region cell or edge.  Hence
    a Delaunay cell and a region cell have overlapping interiors only if they
    are equal or an edge of one properly crosses an edge of the other, and
    the interior of a Delaunay cell meets the boundary of |T'| only if one of
    its edges properly crosses a boundary edge of T' (an edge with one
    incident region cell).  A cell lies in |T'| iff its (connected) interior
    meets the interior of |T'| and misses its boundary, so a Delaunay cell is
    kept iff it is a region cell, or some edge of it properly crosses a
    region edge and none properly crosses a boundary edge.  Every decision is
    an exact orientation sign.

    Raises ``ValueError`` on 3D input, on point arrays that differ, and on a
    point lying in a closed region cell that it is not a vertex of.
    """
    if dcx.dim != 2:
        raise ValueError("restrict_delaunay is 2D only")
    if not np.array_equal(dcx.points, region.points):
        raise ValueError("the region is not a complex on the Delaunay points")
    pts = dcx.points
    # a cell's own vertices lie in it; their zero determinants would each
    # take the rational path, so they are left out of the scan
    rcells = region.cells_array()
    pi, ci = np.nonzero((rcells != np.arange(len(pts))[:, None, None]).all(axis=2))
    inside = np.flatnonzero(points_in_simplices(pts[rcells[ci]], pts[pi]))
    if len(inside):
        k = inside[0]
        raise ValueError(
            f"point {pi[k]} lies in region cell {tuple(rcells[ci[k]].tolist())} "
            "but is not one of its vertices"
        )
    dedges, redges = list(dcx.facets()), list(region.facets())
    d, r = np.array(dedges).reshape(-1, 2), np.array(redges).reshape(-1, 2)
    # edges sharing an endpoint cannot cross properly
    di, ri = np.nonzero((d[:, None, :, None] != r[None, :, None, :]).all(axis=(2, 3)))
    crossed, walled = set(), set()
    for k in np.flatnonzero(segments_cross(pts[d[di]], pts[r[ri]])):
        cells = dcx.facet_adjacency[dedges[di[k]]]
        crossed.update(cells)
        if len(region.facet_adjacency[redges[ri[k]]]) == 1:
            walled.update(cells)
    kept = [c for c in dcx.cells
            if region.has_cell(c) or (c in crossed and c not in walled)]
    return build_complex(pts, kept, check_coverage=False,
                         provenance=dict(dcx.provenance))
