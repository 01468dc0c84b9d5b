"""Independent ground truth for small instances.

Two triangulation enumerators (flip-graph BFS and maximal non-crossing edge
sets) validate each other; a subdivision quadrature validates the closed-form
lifted volume.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .delaunay import delaunay_2d
from .errors import DegenerateSimplexError, InvalidComplexError, NonGenericError
from .functionals import (FunctionalSpec, _trial_report, check_g_inequality, complex_sum,
                          inequality_tolerance)
from .generators import stream_rng
from .geometry import (
    measures,
    on_open_segment,
    orient2d,
    orientation,
    orientations,
    segments_cross,
)
from .triangulation import TriangulationComplex

ENUMERATION_LIMIT = 9
NONCROSSING_LIMIT = 7


def _orientation_table(pts):
    """Exact orientation signs of every ordered triple of the points, as
    nested lists: table[a][b][c] = orient2d(p_a, p_b, p_c).  One
    ``orientations`` call over the sorted triples; an odd permutation of a
    triple flips the sign of its exact determinant."""
    n = len(pts)
    triples = np.array(list(itertools.combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    signs = orientations(pts[triples])
    table = np.zeros((n, n, n), dtype=np.int64)
    for perm, parity in zip(itertools.permutations(range(3)), (1, -1, -1, 1, 1, -1)):
        i, j, k = triples[:, perm].T
        table[i, j, k] = parity * signs
    return table.tolist()


def _flip_neighbors(sign, cells: frozenset, sides: dict):
    """All triangulations reachable from this one by a single diagonal swap;
    ``sign`` is the ``_orientation_table`` of the points, and ``sides`` caches
    each cell's three (edge, opposite vertex) pairs for one traversal.  A swap
    inside a strictly convex quadrilateral onto a new edge keeps a
    triangulation valid."""
    edges = {}
    for cell in cells:
        pairs = sides.get(cell)
        if pairs is None:
            i, j, k = cell
            pairs = sides[cell] = (((i, j), k), ((i, k), j), ((j, k), i))
        for edge, opposite in pairs:
            edges.setdefault(edge, []).append((cell, opposite))
    out = []
    for (u, v), incident in edges.items():
        if len(incident) != 2:
            continue
        (c0, a), (c1, b) = incident
        # both diagonals must split a strictly convex quadrilateral
        if sign[a][b][u] * sign[a][b][v] >= 0 or sign[u][v][a] * sign[u][v][b] >= 0:
            continue
        if (min(a, b), max(a, b)) in edges:
            raise InvalidComplexError(f"flip of {(u, v)}: edge {(a, b)} exists already")
        new = {tuple(sorted((a, b, u))), tuple(sorted((a, b, v)))}
        out.append(frozenset((cells - {c0, c1}) | new))
    return out


def enumerate_triangulations_2d(points):
    """All triangulations of <= 9 generic planar points (vertex set = all
    points), by a traversal of the flip graph from the certified Delaunay
    triangulation; each flip is checked, so no state is validated again (Lawson
    1977).  Returns a list of TriangulationComplex, Delaunay first, each with
    its cell set filled in sorted order."""
    pts = np.asarray(points, dtype=float)
    if len(pts) > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is limited to {ENUMERATION_LIMIT} points")
    start = delaunay_2d(pts)
    sign = _orientation_table(pts)
    root = frozenset(start.cells)
    seen, order, queue, sides = {root}, [root], [root], {}
    while queue:
        state = queue.pop()
        for nxt in _flip_neighbors(sign, state, sides):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return [TriangulationComplex(2, pts, set(sorted(state))) for state in order]


# ---------------------------------------------------------------------------
# independent enumerator: maximal non-crossing edge sets


def noncrossing_triangulations(points):
    """All triangulations of <= 7 generic points as maximal pairwise
    non-crossing edge sets; the independent oracle for the flip-graph route.

    Returns a list of frozensets of cells."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n > NONCROSSING_LIMIT:
        raise ValueError(f"non-crossing enumeration is limited to {NONCROSSING_LIMIT} points")
    coords = [tuple(map(float, p)) for p in pts]
    segments = [
        (i, j) for i, j in itertools.combinations(range(n), 2)
        # an edge may not have a vertex inside it
        if not any(on_open_segment(coords[i], coords[j], coords[k]) for k in range(n))
    ]
    m = len(segments)
    # segments sharing an endpoint cannot cross properly
    pairs = np.array([(s, t) for s, t in itertools.combinations(range(m), 2)
                      if not set(segments[s]) & set(segments[t])],
                     dtype=np.int64).reshape(-1, 2)
    ends = pts[np.array(segments, dtype=np.int64).reshape(-1, 2)]
    crossing = [set() for _ in range(m)]
    for s, t in pairs[segments_cross(ends[pairs[:, 0]], ends[pairs[:, 1]])].tolist():
        crossing[s].add(t)
        crossing[t].add(s)

    results = []

    def grow(t, chosen, banned, pending):
        # pending: voluntarily excluded segments that still await a crosser
        if t == m:
            if not pending:
                results.append(frozenset(chosen))
            return
        if t in banned:  # already crossed by a chosen segment
            grow(t + 1, chosen, banned, pending)
            return
        grow(t + 1, chosen | {t}, banned | crossing[t], pending - crossing[t])
        # excluding t is only maximal if a later usable segment crosses it
        if any(u > t and u not in banned for u in crossing[t]):
            grow(t + 1, chosen, banned, pending | {t})

    grow(0, set(), set(), set())

    out = set()
    for chosen in results:
        edge_set = {segments[t] for t in chosen}
        cells = set()
        for tri in itertools.combinations(range(n), 3):
            i, j, k = tri
            if not {(i, j), (i, k), (j, k)} <= edge_set:
                continue
            simplex = pts[list(tri)]
            if orientation(simplex) == 0:
                continue
            corners = simplex.tolist()
            if any(_strictly_inside(corners, coords[q]) for q in range(n) if q not in tri):
                continue
            cells.add(tri)
        out.add(frozenset(cells))
    return sorted(out, key=sorted)


def _strictly_inside(corners, q) -> bool:
    signs = {orient2d(*corners[i - 1], *corners[i], *q) for i in range(3)}
    return signs in ({1}, {-1})


def run_g_trials(spec: FunctionalSpec, trials: int, *, n_range=(5, 8), seed: int = 0):
    """Randomized subcomplex-inequality battery: T' is a random triangulation
    of a random small generic set, or the subcomplex of its cells that are
    not Delaunay cells; the restricted Delaunay sum must never exceed the T'
    sum."""
    if trials < 1:
        raise ValueError("trials must be positive")
    lo, hi = n_range
    if not 3 <= lo <= hi <= ENUMERATION_LIMIT:
        raise ValueError(f"n_range {lo}..{hi} must satisfy 3 <= lo <= hi <= {ENUMERATION_LIMIT}")
    rng = stream_rng(seed, "g-trials")

    def draws():  # endless; the report reads the first ``trials``
        while True:
            n = int(rng.integers(lo, hi + 1))
            pts = rng.uniform(size=(n, 2)) * 4.0
            try:
                tris = enumerate_triangulations_2d(pts)
            except NonGenericError:
                continue
            pick = tris[int(rng.integers(len(tris)))]
            cells = list(pick.cells)
            if rng.random() < 0.5:
                subset = [c for c in cells if not tris[0].has_cell(c)]
                if subset:
                    cells = subset
            region = TriangulationComplex(2, pts, set(cells))  # a subset of pick's cells is valid
            yield pts, check_g_inequality(spec, region, tris[0])

    return _trial_report(spec, trials, itertools.islice(draws(), trials), n_range=list(n_range))


def min_sum_triangulation(tris, spec: FunctionalSpec):
    """Argmin of the functional sum over the triangulations ``tris`` of a
    point set, as listed by ``enumerate_triangulations_2d``.

    Returns (best complex, best sum, number of ties); a tie is a sum within
    ``inequality_tolerance(best, 0.0)`` of the best."""
    sums = [complex_sum(spec, cx) for cx in tris]
    best = min(sums)
    tol = inequality_tolerance(best, 0.0)
    ties = sum(1 for s in sums if s <= best + tol)
    return tris[int(np.argmin(sums))], float(best), ties


# ---------------------------------------------------------------------------
# quadrature oracle for the lifted volume


def _affine_interpolant(simplex):
    """Coefficients (alpha, beta) of the affine function matching |v|^2 at
    the vertices."""
    simplex = np.asarray(simplex, dtype=float)
    d = simplex.shape[1]
    mat = np.hstack([np.ones((d + 1, 1)), simplex])
    rhs = (simplex**2).sum(axis=1)
    sol = np.linalg.solve(mat, rhs)
    return sol[0], sol[1:]


def _paraboloid_gap(alpha, beta, xs):
    return alpha + xs @ beta - (xs**2).sum(axis=1)


def _subtriangles_2d(simplex, s: int) -> np.ndarray:
    """Vertices of the s-fold edgewise subdivision as an (s*s, 3, 2) array."""
    a, b, c = np.asarray(simplex, dtype=float)
    e1, e2 = (b - a) / s, (c - a) / s
    iv, jv = np.meshgrid(np.arange(s), np.arange(s), indexing="ij")
    up = iv + jv <= s - 1
    pu = a[None, :] + np.outer(iv[up], e1) + np.outer(jv[up], e2)
    ups = np.stack([pu, pu + e1, pu + e2], axis=1)
    down = iv + jv <= s - 2
    pd = a[None, :] + np.outer(iv[down], e1) + np.outer(jv[down], e2)
    downs = np.stack([pd + e1, pd + e1 + e2, pd + e2], axis=1)
    return np.concatenate([ups, downs], axis=0)


def _degree2_rule_batch(elements: np.ndarray, alpha, beta) -> float:
    """Degree-2 exact quadrature (edge midpoints, plus vertices in 3D) of the
    paraboloid gap, summed over an (m, d+1, d) stack of simplices."""
    v = np.asarray(elements, dtype=float)
    n = v.shape[1]
    vols = measures(v)
    pairs = list(itertools.combinations(range(n), 2))
    mids = np.stack([(v[:, i, :] + v[:, j, :]) / 2.0 for i, j in pairs], axis=1)
    gap_m = alpha + mids @ beta - (mids**2).sum(axis=2)
    if n == 3:  # triangle: edge-midpoint rule
        return float((vols * gap_m.mean(axis=1)).sum())
    gap_v = alpha + v @ beta - (v**2).sum(axis=2)
    return float((vols * (gap_m.sum(axis=1) / 5.0 - gap_v.sum(axis=1) / 20.0)).sum())


def fe_quadrature(simplex, subdivisions: int) -> float:
    """Subdivision-quadrature estimate of the volume between the lifted
    facet and the paraboloid: the integral of (affine interpolant - |x|^2).

    Each subelement uses the degree-2 vertex/edge-midpoint rule, so the
    estimate is exact for this quadratic integrand up to roundoff at any
    subdivision count.  In 2D the simplex is cut edgewise into
    subdivisions^2 triangles; in 3D it is red-refined, with the subdivision
    count rounded up to the next power of two."""
    simplex = np.asarray(simplex, dtype=float)
    if orientation(simplex) == 0:
        raise DegenerateSimplexError("quadrature needs a non-degenerate simplex")
    if subdivisions < 1:
        raise ValueError("subdivisions must be positive")
    alpha, beta = _affine_interpolant(simplex)
    d = simplex.shape[1]
    if d == 2:
        parts = _subtriangles_2d(simplex, subdivisions)
    elif d == 3:
        levels = max(0, math.ceil(math.log2(subdivisions)))
        tets = [simplex]
        for _ in range(levels):
            tets = [child for tet in tets for child in _red_refine(tet)]
        parts = np.stack(tets)
    else:
        raise ValueError("quadrature supports d in {2, 3}")
    return _degree2_rule_batch(parts, alpha, beta)


def _red_refine(tet):
    v = np.asarray(tet, dtype=float)
    m = {(i, j): (v[i] + v[j]) / 2.0 for i, j in itertools.combinations(range(4), 2)}
    children = [
        np.stack([v[0], m[(0, 1)], m[(0, 2)], m[(0, 3)]]),
        np.stack([v[1], m[(0, 1)], m[(1, 2)], m[(1, 3)]]),
        np.stack([v[2], m[(0, 2)], m[(1, 2)], m[(2, 3)]]),
        np.stack([v[3], m[(0, 3)], m[(1, 3)], m[(2, 3)]]),
    ]
    # split the interior octahedron around its shortest diagonal
    pairs = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    d1, d2 = min(pairs, key=lambda p: float(np.linalg.norm(m[p[0]] - m[p[1]])))
    ring = [e for e in m if e not in (d1, d2)]
    # order the ring so consecutive midpoints share a face with the diagonal
    ring.sort(key=lambda e: math.atan2(*_ring_angle(m, d1, d2, e)))
    for t in range(4):
        children.append(
            np.stack([m[d1], m[d2], m[ring[t]], m[ring[(t + 1) % 4]]])
        )
    return children


def _ring_angle(m, d1, d2, e):
    axis = m[d2] - m[d1]
    axis = axis / np.linalg.norm(axis)
    center = (m[d1] + m[d2]) / 2.0
    rel = m[e] - center
    rel = rel - (rel @ axis) * axis
    ref = np.array([1.0, 0.0, 0.0])
    if abs(ref @ axis) > 0.9:
        ref = np.array([0.0, 1.0, 0.0])
    u = ref - (ref @ axis) * axis
    u /= np.linalg.norm(u)
    w = np.cross(axis, u)
    return float(rel @ w), float(rel @ u)
