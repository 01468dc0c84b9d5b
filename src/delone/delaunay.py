"""Delaunay triangulations of finite point sets in 2D and 3D.

Both builders check their input with one function, ``_point_rows``.  Both
2D builds go through one certification, ``_certified``: the cells tile the
hull, every point is a vertex, and ``first_non_delaunay_facet`` passes (one
exact in-circle test per interior edge, read from the cell array), so by
Delaunay's lemma the result is the Delaunay triangulation.  From 32
points on, Qhull proposes the cells, and the cell set's order is the order
of Qhull's rows.  Below 32 points, whenever the proposal fails a check, and
for ``compare``, an incremental Bowyer-Watson mesh with ghost triangles and
exact predicates builds the cells (``_mesh_delaunay_2d``), so non-generic
input is detected rather than silently mis-triangulated, and the cell
set's order is the mesh's creation order.
The 3D builder projects the lower faces of the convex hull of the lifted
points; the hull combinatorics come from Qhull, while lower-face
classification and the emptiness verification (sampled above 200 points)
use exact arithmetic.  Only once Qhull refuses the lifted points does an
exact orientation pass decide whether they are all coplanar.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateSimplexError,
    GeometryError,
    InvalidComplexError,
    NonGenericError,
)
from .geometry import (
    Side,
    _in_sphere_rows,
    _orient_rows,
    in_spheres,
    incircle2d,
    on_open_segment,
    orient2d,
    orientations,
    points_in_simplices,
    segments_cross,
)
from .triangulation import (
    TriangulationComplex,
    build_complex,
    certify_tiling,
    first_non_delaunay_facet,
)

# below this the mesh builds the cells: small builds read their cell order anyway, so a
# Qhull proposal only adds cost (at every size: battery legalize trial 1,009 -> 1,098 us)
QHULL_MIN_POINTS = 32

_MIN_POINTS = {2: (3, "delaunay_2d needs at least 3 planar points"),
               3: (5, "delaunay_3d needs at least 5 points in R^3")}


def _point_rows(points, d) -> np.ndarray:
    """``points`` as an (n, d) float array, once the input checks of both
    builders pass, in this order.  Raises ``ValueError`` on an array of
    another shape and on a NaN or infinite coordinate, naming the first bad
    row; ``DegenerateSimplexError`` below 3 points in 2D and 5 in 3D;
    ``ValueError`` on duplicates, naming the first pair in lexicographic
    order."""
    pts = np.asarray(points, dtype=float)
    if pts.size and (pts.ndim != 2 or pts.shape[1] != d):
        raise ValueError(f"points must form an (n, {d}) array, not one of shape {pts.shape}")
    bad = np.flatnonzero(~np.isfinite(pts).all(axis=-1))
    if len(bad):
        raise ValueError(f"point {int(bad[0])} has a non-finite coordinate: {pts[bad[0]].tolist()}")
    if len(pts) < _MIN_POINTS[d][0]:
        raise DegenerateSimplexError(_MIN_POINTS[d][1])
    lex = np.lexsort(pts.T[::-1])
    srt = pts[lex]
    dup = np.flatnonzero((srt[1:] == srt[:-1]).all(axis=1))
    if len(dup):
        s, t = lex[dup[0]], lex[dup[0] + 1]
        raise ValueError(f"duplicate points {int(s)} and {int(t)}")
    return pts


# ---------------------------------------------------------------------------
# 2D incremental construction


class _Mesh2D:
    """Triangle soup with directed-edge adjacency and hull ghost triangles.

    Vertex ids index the coordinate lists ``xs`` and ``ys``.  The ghost
    vertex is the id n = len(xs), always stored third: ghost (a, b, n) holds
    the hull edge b -> a.  ``edge2tri`` keys the directed edge u -> v by the
    int u * (n + 1) + v."""

    def __init__(self, xs, ys):
        self.xs, self.ys = xs, ys
        self.ghost = len(xs)
        self.tri = {}
        self.edge2tri = {}
        self.next_id = 0
        self.last_real = None

    def _add(self, a, b, c):
        tid = self.next_id
        self.next_id = tid + 1
        self.tri[tid] = (a, b, c)
        w, e2t = self.ghost + 1, self.edge2tri
        e2t[a * w + b] = e2t[b * w + c] = e2t[c * w + a] = tid
        if c != self.ghost:
            self.last_real = tid

    def seed(self, i, j, k):
        xs, ys, g = self.xs, self.ys, self.ghost
        if orient2d(xs[i], ys[i], xs[j], ys[j], xs[k], ys[k]) < 0:
            i, j = j, i
        self._add(i, j, k)
        self._add(j, i, g)
        self._add(k, j, g)
        self._add(i, k, g)

    def insert(self, q):
        """Locate q by a walk from the newest real triangle (and, outside the
        hull, along the ghost ring), grow the cavity of triangles that hold q
        in their circumcircle (a ghost: beyond or on its open hull edge) by a
        depth-first search, and replace the cavity by q's fan."""
        xs, ys, g, tri, e2t = self.xs, self.ys, self.ghost, self.tri, self.edge2tri
        w = g + 1
        qx, qy = xs[q], ys[q]

        def holds(tid):
            a, b, c = tri[tid]
            if c == g:
                s = orient2d(xs[a], ys[a], xs[b], ys[b], qx, qy)
                return s > 0 or s == 0 and on_open_segment(
                    (xs[a], ys[a]), (xs[b], ys[b]), (qx, qy))
            s = incircle2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], qx, qy)
            if s == 0:
                raise NonGenericError(f"point {q} is cocircular with triangle {(a, b, c)}")
            return s > 0

        tid = self.last_real
        for _ in range(4 * len(tri) + 64):
            a, b, c = tri[tid]
            if c == g:
                break
            ax, ay, bx, by, cx, cy = xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]
            if orient2d(ax, ay, bx, by, qx, qy) < 0:
                tid = e2t[b * w + a]
            elif orient2d(bx, by, cx, cy, qx, qy) < 0:
                tid = e2t[c * w + b]
            elif orient2d(cx, cy, ax, ay, qx, qy) < 0:
                tid = e2t[a * w + c]
            else:
                break  # q in the closed triangle
        else:
            raise RuntimeError("point location walk failed to terminate")
        if c == g:  # q escaped the hull: walk the ghost ring to the edge it falls in
            start, seen = tid, 0
            while not holds(tid):
                tid = e2t[g * w + tri[tid][1]]  # next ghost along the hull
                seen += 1
                if tid == start or seen > len(tri):
                    raise RuntimeError("hull walk failed to locate an exterior point")
        if not holds(tid):
            raise RuntimeError("located triangle fails the cavity test")

        cavity = {tid}
        stack = [tid]
        boundary = []
        while stack:
            a, b, c = tri[stack.pop()]
            for u, v in ((a, b), (b, c), (c, a)):
                nb = e2t[v * w + u]
                if nb in cavity:
                    continue
                if holds(nb):
                    cavity.add(nb)
                    stack.append(nb)
                else:
                    boundary.append((u, v))
        for tid in cavity:
            a, b, c = tri.pop(tid)
            del e2t[a * w + b], e2t[b * w + c], e2t[c * w + a]
        for u, v in boundary:
            if u == g:
                self._add(v, q, g)
            elif v == g:
                self._add(q, u, g)
            else:
                self._add(u, v, q)

    def real_cells(self):
        g = self.ghost
        return [t for t in self.tri.values() if t[2] != g]


def _serpentine_order(pts):
    """Insertion order with short point-location walks: sweep x in roughly
    sqrt(n) bins, alternating the y direction per bin so consecutive
    insertions stay spatially adjacent; below 16 points, or on one vertical
    line, the lexicographic order.

    The order is frozen: it fixes the mesh's creation order, hence the order
    of the cells and of ``interior_facets()``, from which ``compare`` picks
    the edges it reverse-flips, so any change moves the recorded ``compare``
    digests.  On jittered lattices it inserts near-collinear columns into
    fans of slivers: 19.6 triangles are created per point at W = 24 against
    7.8 on a Poisson window."""
    n = len(pts)
    xmin, xmax = float(pts[:, 0].min()), float(pts[:, 0].max())
    span = xmax - xmin
    if span == 0.0 or n < 16:
        return np.lexsort((pts[:, 1], pts[:, 0]))
    nbins = max(1, math.isqrt(n))
    width = span / nbins
    col = np.minimum(((pts[:, 0] - xmin) / width).astype(np.int64), nbins - 1)
    ys = np.where(col % 2 == 0, pts[:, 1], -pts[:, 1])
    return np.lexsort((np.arange(n), ys, col))


def _certified(cx) -> TriangulationComplex:
    """``cx`` once every exact check passes: ``certify_tiling``, each of its
    points a vertex, and ``first_non_delaunay_facet``, so by Delaunay's
    lemma it is the Delaunay triangulation.  Raises ``InvalidComplexError``
    or ``NonGenericError`` at the first failure."""
    if len(certify_tiling(cx)) != len(cx.points):
        raise InvalidComplexError("a point ended up unused by the triangulation")
    facet = first_non_delaunay_facet(cx)
    if facet is not None:
        raise InvalidComplexError(f"facet {facet} is not locally Delaunay")
    return cx


def _mesh_delaunay_2d(points, provenance) -> TriangulationComplex:
    """The exact 2D build, certified: once ``_point_rows`` passes, ``_Mesh2D``
    seeded with the first two points of the serpentine order and the first
    later point off their line, the rest inserted in that order.  Its real
    cells in creation order fill the cell set.  Raises
    ``DegenerateSimplexError`` if all points are collinear and
    ``NonGenericError`` at the first cocircular in-circle test."""
    pts = _point_rows(points, 2)
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    order = _serpentine_order(pts).tolist()
    i0, i1 = order[0], order[1]
    k = next(
        (
            m
            for m in order[2:]
            if orient2d(xs[i0], ys[i0], xs[i1], ys[i1], xs[m], ys[m]) != 0
        ),
        None,
    )
    if k is None:
        raise DegenerateSimplexError("all points are collinear")

    mesh = _Mesh2D(xs, ys)
    mesh.seed(i0, i1, k)
    for idx in order[2:]:
        if idx != k:
            mesh.insert(idx)
    return _certified(build_complex(pts, mesh.real_cells(), provenance=provenance))


def delaunay_2d(points, *, provenance=None) -> TriangulationComplex:
    """Delaunay triangulation of >= 3 generic planar points, certified by
    ``_certified``.

    From ``QHULL_MIN_POINTS`` = 32 points on, Qhull proposes the cells
    (Barber, Dobkin & Huhdanpaa 1996), and the cell set fills from its rows
    in input order.  Below 32 points, and whenever the proposal fails a
    check, ``_mesh_delaunay_2d`` builds the cells, in the mesh's creation
    order, and they are certified the same way.

    Raises the errors of ``_point_rows`` (both paths, before either runs); from
    the mesh build, ``DegenerateSimplexError`` if all points are collinear,
    ``NonGenericError`` on cocircular 4-tuples met during construction or
    certification, and ``InvalidComplexError`` naming the lexicographically
    first edge that is not locally Delaunay.
    """
    pts = _point_rows(points, 2)
    provenance = provenance or {}
    if len(pts) >= QHULL_MIN_POINTS:
        from scipy.spatial import Delaunay, QhullError

        try:
            return _certified(build_complex(pts, Delaunay(pts).simplices, provenance=provenance))
        except (QhullError, GeometryError):  # no proposal, or one a check rejects
            pass
    return _mesh_delaunay_2d(pts, provenance)


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
        # one call draws the same (cell, vertex) pairs as alternating scalar calls
        ci, v = rng.integers(0, np.tile([len(cells), n], samples)).reshape(-1, 2).T
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


def _spans_3d(pts) -> bool:
    """True iff the points affinely span R^3, decided by exact orientation
    signs.  A point off the line of points 0 and 1 is off it in some
    coordinate-plane projection; with the first such point k, the points
    span R^3 iff one lies off the plane of points 0, 1 and k."""
    line = np.stack(np.broadcast_arrays(pts[0], pts[1], pts), axis=1)
    planes = line[:, :, [[1, 2], [2, 0], [0, 1]]].transpose(0, 2, 1, 3)
    off = np.flatnonzero(orientations(planes.reshape(-1, 3, 2)))
    if not len(off):
        return False
    plane = np.stack(np.broadcast_arrays(*line[off[0] // 3], pts), axis=1)
    return bool(orientations(plane).any())


def _lifted(pts) -> np.ndarray:
    """Every row of ``pts`` lifted as ``geometry.lift`` lifts it, bit for bit:
    of the vectorised forms of the squared norms only the batched matmul
    rounds as ``p @ p`` does (einsum and ``(p * p).sum(1)`` differ in the
    last bit on some rows), and Qhull sees those bits."""
    return np.column_stack([pts, (pts[:, None, :] @ pts[:, :, None])[:, 0, 0]])


def delaunay_3d(points, *, provenance=None) -> TriangulationComplex:
    """Delaunay triangulation of >= 5 generic points in R^3, computed as the
    vertical projection of the lower convex hull of the lifted points and
    checked by ``verify_empty_circumspheres``.  Raises ``_point_rows``'
    errors, and if Qhull refuses the lifted points, ``DegenerateSimplexError``
    when they are all coplanar, else ``NonGenericError``."""
    cx = _lower_hull_complex(points, provenance)
    verify_empty_circumspheres(cx)
    return cx


def _lower_hull_complex(points, provenance=None) -> TriangulationComplex:
    """The certified tiling that ``delaunay_3d`` checks for emptiness: the
    projected lower facets of the lifted points' convex hull."""
    from scipy.spatial import ConvexHull, QhullError

    pts = _point_rows(points, 3)
    lifted = _lifted(pts)
    try:
        hull = ConvexHull(lifted, qhull_options="Qt")
    except QhullError as exc:  # coplanar points lift to a flat set, which Qhull refuses
        if not _spans_3d(pts):
            raise DegenerateSimplexError("all points are coplanar") from exc
        raise NonGenericError(f"lifted hull is degenerate: {exc}") from exc

    # the lifted orientation of a facet against a point straight below it is
    # minus its projection's orientation o; o == 0 marks a vertical facet, the
    # lift of coplanar window-boundary points, which is no cell
    o = orientations(pts[hull.simplices])
    base = lifted[hull.simplices]
    ins = orientations(np.concatenate(
        [base, np.broadcast_to(lifted.mean(axis=0), (len(base), 1, 4))], axis=1))
    live = o != 0
    if (ins[live] == 0).any():
        raise NonGenericError("lifted hull has a facet through its centroid")
    # an upper facet has the hull's centroid on the side of the points below
    lower = hull.simplices[live & (ins != -o)]

    cx = build_complex(pts, lower, provenance=provenance or {})
    if len(certify_tiling(cx)) != len(pts):
        raise NonGenericError("a point is missing from the lower hull projection")
    return cx


_last_build: dict = {}  # (shape, bytes) of the points -> (cell rows, cells_array())


def delaunay_of(points, *, provenance=None) -> TriangulationComplex:
    """``delaunay_2d`` or ``delaunay_3d`` by the points' width.  Float64 points of the
    last build's shape and bytes (-0.0 is not 0.0) get a new complex, with their own
    provenance, over its read-only cell rows in input order and ``cells_array()``."""
    pts = np.asarray(points, dtype=float)
    build = {(2,): delaunay_2d, (3,): delaunay_3d}.get(pts.shape[1:])
    if build is None:
        raise ValueError(f"only dimensions 2 and 3 are supported, not points of shape {pts.shape}")
    key = (pts.shape, pts.tobytes())
    if key in _last_build:
        rows, lex = _last_build[key]
        return TriangulationComplex(dim=pts.shape[1], points=pts, _cell_set=None,
                                    provenance=provenance or {}, _cells_array=lex, _cell_rows=rows)
    cx = build(pts, provenance=provenance)
    cx._cell_rows.flags.writeable = False  # neither builder reads the cell set, so they are there
    _last_build.clear()
    _last_build[key] = cx._cell_rows, cx.cells_array()
    return cx


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
    if n != d + 2 or d not in (2, 3):
        raise ValueError("radon_two_triangulations needs exactly d+2 points in R^2 or R^3")
    p = pts.tolist()
    rests = [[j for j in range(n) if j != i] for i in range(n)]
    lam = [(-1) ** i * _orient_rows(p[:i] + p[i + 1:]) for i in range(n)]
    lower, upper = [], []
    for i, rest in enumerate(rests):
        if lam[i] == 0:
            raise NonGenericError(f"points without {i} are affinely degenerate")
        if all(lam[i] * lam[j] <= 0 for j in rest):
            raise ValueError(
                f"point {i} lies inside the convex hull of the others"
            )
        if i == 0:
            side0 = _in_sphere_rows(p[1:], p[0])
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
    directed flip T -> D.  ``radon_split``'s exact signs settle every check
    of ``build_complex``, so its cell lists become the complexes as they are."""
    pts = np.asarray(points, dtype=float)
    lower, upper = radon_split(pts)
    d = pts.shape[1]
    return TriangulationComplex(d, pts, set(lower)), TriangulationComplex(d, pts, set(upper))


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
    kept = {c for c in dcx.cells
            if region.has_cell(c) or (c in crossed and c not in walled)}
    # a subset of a complex's cells is a complex, so it needs no validating
    return TriangulationComplex(2, pts, kept, provenance=dict(dcx.provenance))
