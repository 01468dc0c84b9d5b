"""Simplicial complexes with facet adjacency, flips, and validity checks.

Cells are stored as sorted vertex-id tuples.  A complex is treated as
immutable by readers; the flip operations mutate a complex in place and
require exclusive access to it.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSimplexError,
    InvalidComplexError,
    NonGenericError,
    WindowError,
)
from .geometry import (
    Side,
    TAU_GEO,
    circumradii,
    in_sphere,
    in_spheres,
    incircle2d,
    measures,
    on_open_segment,
    orient2d,
    orientations,
    points_in_simplices,
)

Cell = tuple  # sorted vertex ids, length d+1
Facet = tuple  # sorted vertex ids, length d

# array validation breaks even with the per-cell loop at about 32 cells in
# 2D and 3D (NumPy's fixed cost); 64 keeps every build of a complex on at
# most 30 points (under 60 cells in 2D) on the loop
ARRAY_MIN_CELLS = 64
COVERAGE_RTOL = 1e-8

TO_DELAUNAY = "TO_DELAUNAY"
FROM_DELAUNAY = "FROM_DELAUNAY"


@dataclass
class FlipRecord:
    facet: Facet
    before_max_circumradius: float
    after_max_circumradius: float
    direction: str = TO_DELAUNAY


@dataclass
class TriangulationComplex:
    dim: int
    points: np.ndarray
    _cells: set = field(repr=False)
    _adjacency: dict | None = field(default=None, repr=False)
    provenance: dict = field(default_factory=dict)
    _bound_q: float | None = field(default=None, repr=False)
    _cells_sorted: list | None = field(default=None, repr=False)
    _cells_array: np.ndarray | None = field(default=None, repr=False)
    _rows: list | None = field(default=None, repr=False)

    # -- basic views --------------------------------------------------------

    @property
    def cells(self) -> list:
        if self._cells_sorted is None:
            if self._cells_array is None:
                self._cells_sorted = sorted(self._cells)
            else:  # seeded by build_complex's array path, already in order
                self._cells_sorted = list(map(tuple, self._cells_array.tolist()))
        return self._cells_sorted

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def has_cell(self, cell: Cell) -> bool:
        return tuple(sorted(cell)) in self._cells

    def cell_coords(self, cell: Cell) -> np.ndarray:
        return self.points[list(cell)]

    @property
    def point_rows(self) -> list:
        """The points as lists of Python floats for the scalar predicates
        (cached; copies share it, as they share ``points``)."""
        if self._rows is None:
            self._rows = self.points.tolist()
        return self._rows

    def cells_array(self) -> np.ndarray:
        """The sorted cells as a read-only (m, d+1) int64 array (cached)."""
        if self._cells_array is None:
            arr = np.array(self.cells, dtype=np.int64).reshape(-1, self.dim + 1)
            arr.flags.writeable = False
            self._cells_array = arr
        return self._cells_array

    @property
    def facet_adjacency(self) -> dict:
        """Facet -> incident cells, filled on first use in ``_cells`` order."""
        if self._adjacency is None:
            adjacency: dict = {}
            for cell in self._cells:
                for facet in itertools.combinations(cell, self.dim):
                    adjacency.setdefault(facet, []).append(cell)
            self._adjacency = adjacency
        return self._adjacency

    def vertices_used(self) -> np.ndarray:
        return np.unique(self.cells_array())

    def facets(self) -> Iterable[Facet]:
        return self.facet_adjacency.keys()

    def interior_facets(self) -> list:
        return [f for f, cs in self.facet_adjacency.items() if len(cs) == 2]

    def boundary_facets(self) -> list:
        return [f for f, cs in self.facet_adjacency.items() if len(cs) == 1]

    def facet_cells(self, facet: Facet) -> list:
        return list(self.facet_adjacency.get(tuple(sorted(facet)), ()))

    def opposite_vertices(self, facet: Facet) -> list:
        facet = tuple(sorted(facet))
        return [sum(cell) - sum(facet) for cell in self.facet_adjacency[facet]]

    def copy(self) -> "TriangulationComplex":
        return TriangulationComplex(
            dim=self.dim,
            points=self.points,
            _cells=set(self._cells),
            _adjacency={f: list(cs) for f, cs in self.facet_adjacency.items()},
            provenance=dict(self.provenance),
            _rows=self._rows,
        )

    # -- mutation (exclusive access) ----------------------------------------

    def _invalidate(self):
        self._bound_q = None
        self._cells_sorted = None
        self._cells_array = None

    def _add_cell(self, cell: Cell):
        adjacency = self.facet_adjacency  # filled before _cells changes
        cell = tuple(sorted(cell))
        self._cells.add(cell)
        for facet in itertools.combinations(cell, self.dim):
            adjacency.setdefault(facet, []).append(cell)
        self._invalidate()

    def _remove_cell(self, cell: Cell):
        adjacency = self.facet_adjacency  # filled before _cells changes
        cell = tuple(sorted(cell))
        self._cells.remove(cell)
        for facet in itertools.combinations(cell, self.dim):
            entry = adjacency[facet]
            entry.remove(cell)
            if not entry:
                del adjacency[facet]
        self._invalidate()

    # -- metric summaries ----------------------------------------------------

    def cell_circumradii(self) -> np.ndarray:
        return circumradii(self.points[self.cells_array()])

    def cell_measures(self) -> np.ndarray:
        return measures(self.points[self.cells_array()])

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": 1,
                "dimension": self.dim,
                "points": self.points.tolist(),
                "cells": self.cells_array().tolist(),
                "provenance": self.provenance,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "TriangulationComplex":
        data = json.loads(text)
        return build_complex(
            np.array(data["points"], dtype=float),
            data["cells"],
            provenance=data.get("provenance", {}),
        )


def build_complex(
    points,
    cells: Sequence[Sequence[int]],
    *,
    provenance: dict | None = None,
) -> TriangulationComplex:
    """Build a complex from points and d-cells, verifying its invariants:
    every cell is a non-degenerate d-simplex on existing points, no cell
    repeats, and no facet is shared by more than two cells.

    Sized integer inputs of at least ``ARRAY_MIN_CELLS`` cells are validated
    with array operations when n**(d+1) fits in int64 (up to 55,108 points
    in 3D); any failure there, and every other input, goes through the
    per-cell loop, which raises the first error.  Whether the cells tile a
    convex hull is ``certify_tiling``'s question.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InvalidComplexError("points must be an (n, d) array")
    dim = points.shape[1]

    checked = None
    if hasattr(cells, "__len__") and len(cells) >= ARRAY_MIN_CELLS:
        checked = _validated_rows(points, cells)
    if checked is None:
        cell_set, lex = _validated_by_loop(points, cells), None
    else:
        cell_set, lex = checked
    return TriangulationComplex(
        dim=dim,
        points=points,
        _cells=cell_set,
        provenance=provenance or {},
        _cells_array=lex,
    )


def certify_tiling(cx: TriangulationComplex) -> None:
    """Check that a complex is a triangulation of its points: its cells tile
    the convex hull of its vertices, and no other point lies in that hull.

    The cell measures must sum to the hull volume (within ``COVERAGE_RTOL``),
    and an exact scan must find no unused point in a closed cell; any unused
    point inside a tiled hull lies in some cell, so the scan is complete.
    Raises ``InvalidComplexError`` at the first failure.  This is the premise
    of Delaunay's lemma; the builders of full triangulations call it, and
    deliberate subcomplexes (restrictions, strip windows, Radon pairs) are
    not triangulations of their points.
    """
    from scipy.spatial import ConvexHull

    used = cx.vertices_used()
    coords = cx.points[cx.cells_array()]
    total = measures(coords).sum()
    hull = float(ConvexHull(cx.points[used]).volume)
    if abs(total - hull) > COVERAGE_RTOL * max(hull, 1.0):
        raise InvalidComplexError(
            f"cell measures sum to {total}, convex hull volume is {hull}"
        )
    unused = np.ones(len(cx.points), dtype=bool)
    unused[used] = False
    unused = np.flatnonzero(unused)
    chunk = max(1, (1 << 16) // len(coords))  # bounds the box mask
    for start in range(0, len(unused), chunk):
        ids = unused[start:start + chunk]
        hits, _ = _containing_pairs(coords, cx.points[ids])
        if len(hits):
            raise InvalidComplexError(
                f"point {ids[hits[0]]} lies in the underlying space but is not a vertex"
            )


def _validated_by_loop(points, cells):
    """The cells as a set, in input order; raises the first invalid cell,
    the first degenerate one in set order, or the first non-manifold facet
    in adjacency order."""
    n, dim = points.shape
    cell_set = set()
    for cell in cells:
        cell = tuple(sorted(map(int, cell)))
        if len(cell) != dim + 1 or len(set(cell)) != dim + 1:
            raise InvalidComplexError(f"cell {cell} is not a {dim}-simplex")
        if cell[0] < 0 or cell[-1] >= n:
            raise InvalidComplexError(f"cell {cell} references missing points")
        if cell in cell_set:
            raise InvalidComplexError(f"duplicate cell {cell}")
        cell_set.add(cell)

    cell_list = list(cell_set)
    coords = points[np.array(cell_list, dtype=np.int64).reshape(-1, dim + 1)]
    signs = orientations(coords).tolist()
    if 0 in signs:
        raise DegenerateSimplexError(f"cell {cell_list[signs.index(0)]} is degenerate")
    # a Counter keeps first-insertion order, as the adjacency dict does
    shared = Counter(itertools.chain.from_iterable(
        map(itertools.combinations, cell_list, itertools.repeat(dim))))
    if max(shared.values(), default=0) > 2:
        facet, count = next((f, k) for f, k in shared.items() if k > 2)
        raise InvalidComplexError(f"facet {facet} is shared by {count} cells (non-manifold)")
    return cell_set


def _validated_rows(points, cells):
    """The cell set of ``_validated_by_loop`` (filled in the same order) and
    the cells as an (m, d+1) int64 array of sorted rows in lexicographic
    order (read-only, the ``cells_array()`` cache), if every check of that
    loop passes; else None.  With the vertex ids as digits in base n, a
    cell's key orders it, and non-manifold facets show as runs of three
    equal facet keys in one sort."""
    n, dim = points.shape
    try:
        rows = np.asarray(cells if isinstance(cells, np.ndarray) else list(cells))
    except ValueError:  # ragged
        return None
    if rows.dtype.kind not in "iu" or rows.shape != (len(rows), dim + 1):
        return None
    if n ** (dim + 1) >= 2**63:  # the cell keys would overflow int64
        return None
    rows = np.sort(rows.astype(np.int64), axis=1)
    if (rows[:, 0] < 0).any() or (rows[:, -1] >= n).any() or (rows[:, 1:] == rows[:, :-1]).any():
        return None
    cell_set = set(map(tuple, rows.tolist()))
    if len(cell_set) != len(rows):
        return None
    if not orientations(points[rows]).all():
        return None
    digits = n ** np.arange(dim, -1, -1, dtype=np.int64)
    keys = np.sort(np.concatenate(
        [np.delete(rows, j, axis=1) @ digits[1:] for j in range(dim + 1)]))
    if (keys[2:] == keys[:-2]).any():
        return None
    lex = rows[np.argsort(rows @ digits)]
    lex.flags.writeable = False
    return cell_set, lex


def _containing_pairs(coords, pts):
    """Exact closed containment of every point of ``pts`` in every cell of
    the (m, d+1, d) stack ``coords``: (point rows, cell rows) of the hits,
    ordered by point, then cell.  A point of a closed cell lies in the
    cell's bounding box, so exact float box comparisons choose the
    candidates and ``points_in_simplices`` decides."""
    lo, hi = coords.min(axis=1), coords.max(axis=1)
    pi, ci = np.nonzero(((lo <= pts[:, None]) & (pts[:, None] <= hi)).all(axis=2))
    hit = points_in_simplices(coords[ci], pts[pi])
    return pi[hit], ci[hit]


# ---------------------------------------------------------------------------
# locally-Delaunay tests and flips


def is_locally_delaunay(cx: TriangulationComplex, facet) -> bool:
    """True iff the opposite vertices of the two incident cells lie outside
    each other's circumspheres.  Raises on boundary facets and on exact
    cospherical (ON) configurations."""
    facet = tuple(sorted(facet))
    incident = cx.facet_adjacency.get(facet, ())
    if len(incident) != 2:
        raise InvalidComplexError(f"facet {facet} is not interior")
    c0, c1 = incident
    v1 = sum(c1) - sum(facet)
    if cx.dim == 2:  # in_sphere's decision, on Python floats
        rows = cx.point_rows
        (ax, ay), (bx, by), (px, py), (qx, qy) = (rows[i] for i in (*c0, v1))
        if not (orient := orient2d(ax, ay, bx, by, px, py)):
            raise DegenerateSimplexError("in_sphere: degenerate simplex")
        side = incircle2d(ax, ay, bx, by, px, py, qx, qy) * orient
    else:
        side = in_sphere(cx.cell_coords(c0), cx.points[v1])
    if side == Side.ON:
        raise NonGenericError(f"facet {facet}: cospherical opposite vertex")
    return side == Side.OUTSIDE


def first_non_delaunay_facet(cx: TriangulationComplex):
    """The first interior facet, in ``interior_facets()`` order, whose second
    cell's opposite vertex lies inside the first cell's circumsphere, or None;
    raises ``NonGenericError`` at the first cospherical (ON) one.  One exact
    ``in_spheres`` call.  By Delaunay's lemma (Delaunay 1934; Lawson 1977), a
    triangulation of the hull of its points that passes is their Delaunay
    triangulation."""
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


def _plan_flip(cx: TriangulationComplex, facet) -> tuple:
    """The 2D flip of interior edge ``facet`` as (edge, opposite vertices,
    old cells, new cells); raises unless the surrounding quadrilateral is
    strictly convex."""
    u, v = facet = tuple(sorted(facet))
    old = cx.facet_cells(facet)
    a, b = (sum(c) - u - v for c in old)
    rows = cx.point_rows
    pa, pb, pu, pv = rows[a], rows[b], rows[u], rows[v]
    # strict convexity of the quadrilateral a-u-b-v
    if orient2d(*pa, *pb, *pu) * orient2d(*pa, *pb, *pv) >= 0:
        raise InvalidComplexError(
            f"facet {facet}: surrounding quadrilateral is not strictly convex"
        )
    if orient2d(*pu, *pv, *pa) * orient2d(*pu, *pv, *pb) >= 0:
        raise InvalidComplexError(f"facet {facet}: opposite vertices not separated")
    return facet, (a, b), old, [tuple(sorted((a, b, u))), tuple(sorted((a, b, v)))]


def _apply_flip(cx: TriangulationComplex, plan) -> None:
    _, _, old, new = plan
    for cell in old:
        cx._remove_cell(cell)
    for cell in new:
        cx._add_cell(cell)


def _flip_records(cx: TriangulationComplex, plans, direction: str) -> list:
    """The records of ``plans``: one ``circumradii`` call over the old and
    new cells of every flip, row by row as a call per flip computes them."""
    quads = np.array([old + new for _, _, old, new in plans], dtype=np.int64)
    radii = circumradii(cx.points[quads.reshape(-1, 3)]).reshape(-1, 4)
    return [FlipRecord(plan[0], r0, r1, direction) for plan, r0, r1 in zip(
        plans, radii[:, :2].max(axis=1).tolist(), radii[:, 2:].max(axis=1).tolist())]


def _do_flip(cx: TriangulationComplex, facet, direction: str) -> FlipRecord:
    plan = _plan_flip(cx, facet)
    (record,) = _flip_records(cx, [plan], direction)  # before the complex changes
    _apply_flip(cx, plan)
    return record


def flip(cx: TriangulationComplex, facet) -> FlipRecord:
    """Directed 2D flip of a non-locally-Delaunay interior edge.

    Replaces the diagonal of the surrounding convex quadrilateral; the
    maximum circumradius over the two cells does not increase.
    """
    if cx.dim != 2:
        raise InvalidComplexError("flips are implemented for 2D complexes only")
    if is_locally_delaunay(cx, facet):
        raise InvalidComplexError(
            f"facet {tuple(facet)} is locally Delaunay; directed flips only go "
            "toward Delaunay"
        )
    record = _do_flip(cx, facet, TO_DELAUNAY)
    if record.after_max_circumradius > record.before_max_circumradius * (1 + TAU_GEO) + TAU_GEO:
        raise InvalidComplexError("directed flip increased the larger circumradius")
    return record


def reverse_flip(cx: TriangulationComplex, facet) -> FlipRecord:
    """Undo a locally-Delaunay edge (the inverse of ``flip``), used to build
    perturbed non-Delaunay triangulations.  The quadrilateral must be strictly
    convex."""
    if cx.dim != 2:
        raise InvalidComplexError("flips are implemented for 2D complexes only")
    if not is_locally_delaunay(cx, facet):
        raise InvalidComplexError(f"facet {tuple(facet)} is not locally Delaunay")
    return _do_flip(cx, facet, FROM_DELAUNAY)


def legalize_to_delaunay(cx: TriangulationComplex):
    """Flip until every interior edge is locally Delaunay.

    Returns a new complex and the flip log; the input is left untouched.
    For generic vertices the result equals the Delaunay triangulation of the
    same vertex set.  The log's radii come from one call after the last
    flip, so a radius failure surfaces there.
    """
    if cx.dim != 2:
        raise InvalidComplexError("legalize_to_delaunay is 2D only")
    out = cx.copy()
    queue = deque(sorted(out.interior_facets()))
    plans = []
    limit = 4 * (len(out._cells) + 2) ** 2 + 64
    while queue:
        facet = queue.popleft()
        if len(out.facet_adjacency.get(facet, ())) != 2:
            continue
        if is_locally_delaunay(out, facet):
            continue
        plans.append(plan := _plan_flip(out, facet))
        _apply_flip(out, plan)
        edge, opposite, _, _ = plan  # requeue the quadrilateral's sides
        queue.extend(tuple(sorted(e)) for e in itertools.product(edge, opposite))
        if len(plans) > limit:
            raise RuntimeError("flip scheduling failed to terminate")
    records = _flip_records(out, plans, TO_DELAUNAY)
    facet = first_non_delaunay_facet(out)
    if facet is not None:
        raise InvalidComplexError(f"legalization left facet {facet} non-Delaunay")
    return out, records


def uniform_bound_q(cx: TriangulationComplex) -> float:
    """Maximum circumradius over all cells (cached)."""
    if cx._bound_q is None:
        cx._bound_q = float(cx.cell_circumradii().max()) if cx._cells else 0.0
    return cx._bound_q


# ---------------------------------------------------------------------------
# non-uniformly-bounded prefix construction (2D)


class _PrefixBuilder:
    """Grows a triangulation of a finite planar window whose longest edge
    exceeds the phase number, by starring far-away points onto the hull."""

    def __init__(self, points: np.ndarray):
        self.points = points  # arrays for _containing_cell
        self.xy = points.tolist()  # Python floats for the scalar predicates
        self.sq = [x * x + y * y for x, y in self.xy]
        self.reach = math.inf  # largest squared norm of a vertex, once seeded
        self.cx = TriangulationComplex(dim=2, points=points, _cells=set(),
                                       _adjacency={})
        self.hull: list = []  # CCW vertex cycle
        self.is_vertex = np.zeros(len(points), dtype=bool)
        self.long_edges: list = []

    def seed(self, i, j, k):
        xy = self.xy
        if orient2d(*xy[i], *xy[j], *xy[k]) > 0:
            self.hull = [i, j, k]
        else:
            self.hull = [j, i, k]
        self.cx._add_cell((i, j, k))
        self.is_vertex[[i, j, k]] = True
        self.reach = max(self.sq[i], self.sq[j], self.sq[k])

    def star_exterior(self, w: int):
        """Attach exterior point w to every strictly visible hull edge."""
        xy, hull = self.xy, self.hull
        wx, wy = xy[w]
        m = len(hull)
        visible = []
        for t in range(m):
            if orient2d(*xy[hull[t]], *xy[hull[(t + 1) % m]], wx, wy) < 0:
                visible.append(t)
        if not visible:
            raise InvalidComplexError(f"point {w} sees no hull edge")
        for t in visible:
            u, v = self.hull[t], self.hull[(t + 1) % m]
            self.cx._add_cell((v, u, w))
        # visible edges form a contiguous arc on the cycle
        vis = set(visible)
        start = next(t for t in visible if (t - 1) % m not in vis)
        run = len(visible)
        new_hull = []
        t = (start + run) % m  # first vertex after the visible arc
        for _ in range(m - run):
            new_hull.append(self.hull[t])
            t = (t + 1) % m
        new_hull.append(self.hull[start])
        new_hull.append(w)  # cycle: ..., arc start vertex, w, vertex after arc, ...
        self.hull = new_hull
        self.is_vertex[w] = True
        self.reach = max(self.reach, self.sq[w])

    def point_in_space(self, idx: int) -> bool:
        # the hull lies in the disk through its farthest vertex; a float x*x + y*y
        # errs by under 3 * 2**-53 relative (barring underflow), far inside 1e-12
        if self.sq[idx] > self.reach * (1.0 + 1e-12):
            return False
        xy, hull = self.xy, self.hull
        px, py = xy[idx]
        m = len(hull)
        for t in range(m):
            if orient2d(*xy[hull[t]], *xy[hull[(t + 1) % m]], px, py) < 0:
                return False
        return True

    def _containing_cell(self, p) -> Cell | None:
        """First cell, in ``self.cx._cells`` iteration order, holding p."""
        cells = list(self.cx._cells)
        coords = self.points[np.array(cells, dtype=np.int64).reshape(-1, 3)]
        _, hits = _containing_pairs(coords, p[None])
        return cells[hits[0]] if len(hits) else None

    def split_interior_points(self, candidates):
        """Star every covered non-vertex point into its lowest-dimensional
        containing simplex until all covered points are vertices."""
        xy = self.xy
        pending = deque(candidates)
        while pending:
            w = pending.popleft()
            if self.is_vertex[w] or not self.point_in_space(w):
                continue
            host = self._containing_cell(self.points[w])
            if host is None:
                continue
            a, b, c = host
            # lowest-dimensional containing simplex: check the edges first
            wx, wy = xy[w]
            on_edge = None
            for u, v in ((a, b), (b, c), (a, c)):
                if orient2d(*xy[u], *xy[v], wx, wy) == 0:
                    on_edge = (u, v)
                    break
            if on_edge is None:
                self.cx._remove_cell(host)
                self.cx._add_cell((a, b, w))
                self.cx._add_cell((b, c, w))
                self.cx._add_cell((a, c, w))
            else:
                u, v = on_edge
                incident = self.cx.facet_cells((u, v))
                for cell in incident:
                    (t,) = set(cell) - {u, v}
                    self.cx._remove_cell(cell)
                    self.cx._add_cell((u, w, t))
                    self.cx._add_cell((v, w, t))
                if len(incident) == 1:
                    # hull edge split: keep the hull cycle in step
                    m = len(self.hull)
                    for t in range(m):
                        pair = (self.hull[t], self.hull[(t + 1) % m])
                        if pair == (u, v) or pair == (v, u):
                            self.hull.insert(t + 1, w)
                            break
            self.is_vertex[w] = True
            self.reach = max(self.reach, self.sq[w])


def _segment_clear(points, i, j, candidate_ids) -> bool:
    """No point of ``candidate_ids`` lies on the open segment (i, j)."""
    pi, pj = points[i], points[j]
    sub = points[np.asarray(candidate_ids)]
    # exact closed box: the cheap filter before the exact predicate
    box = ((sub >= np.minimum(pi, pj)) & (sub <= np.maximum(pi, pj))).all(axis=1)
    a, b = pi.tolist(), pj.tolist()
    return not any(on_open_segment(a, b, q) for q in sub[box].tolist())


def build_unbounded_prefix(window, phases: int) -> TriangulationComplex:
    """Finite-phase construction of a triangulation that is not uniformly
    bounded: after phase k it covers every window point within distance k of
    the origin and contains an edge longer than k.

    ``window`` is a PointSetWindow-like object with ``points`` (n, 2) and
    ``window_radius``.
    """
    points = np.asarray(window.points, dtype=float)
    if points.shape[1] != 2:
        raise WindowError("build_unbounded_prefix is 2D only")
    if phases < 1:
        raise ValueError("need at least one phase")
    n = len(points)
    radii = np.linalg.norm(points, axis=1)
    order = np.lexsort((np.arange(n), radii))

    builder = _PrefixBuilder(points)
    i0, i1 = int(order[0]), int(order[1])
    all_ids = range(n)

    for phase in range(1, phases + 1):
        if not builder.cx.n_cells:
            x = min(i0, i1)
            hull_prev = hull_next = None
        else:
            x = min(builder.hull)
            pos = builder.hull.index(x)
            hull_prev = builder.hull[pos - 1]
            hull_next = builder.hull[(pos + 1) % len(builder.hull)]
        y = _find_long_edge_target(
            points, builder, x, float(phase), hull_prev, hull_next, i0, i1
        )
        if not builder.cx.n_cells:
            builder.seed(i0, i1, y)
        else:
            builder.star_exterior(y)
        builder.long_edges.append((x, y))

        inside = [int(k) for k in all_ids if radii[k] <= phase and not builder.is_vertex[k]]
        inside.sort(key=lambda k: (radii[k], k))
        for z in inside:
            if builder.is_vertex[z] or builder.point_in_space(z):
                continue
            builder.star_exterior(z)
        builder.split_interior_points(
            sorted((k for k in all_ids if not builder.is_vertex[k]),
                   key=lambda k: (radii[k], k))
        )

    cx = build_complex(
        points,
        builder.cx._cells,
        provenance={
            "generator": "unbounded_prefix",
            "phases": phases,
            "long_edges": [list(e) for e in builder.long_edges],
        },
    )
    certify_tiling(cx)
    edge_set = set()
    for cell in cx.cells:
        edge_set.update(itertools.combinations(cell, 2))
    for x, y in builder.long_edges:
        if tuple(sorted((x, y))) not in edge_set:
            raise RuntimeError("a phase edge was subdivided")
    return cx


def _find_long_edge_target(points, builder, x, length, hull_prev, hull_next, i0, i1):
    """Pick y with |xy| > length whose open segment misses the complex and all
    other points, searching 64 uniformly sampled direction cones."""
    xy = builder.xy
    diffs = points - points[x]
    dists = np.linalg.norm(diffs, axis=1)
    angles = np.arctan2(diffs[:, 1], diffs[:, 0])
    half = math.pi / 64.0
    for j in range(64):
        theta = -math.pi + 2.0 * math.pi * j / 64.0
        delta = np.abs(np.angle(np.exp(1j * (angles - theta))))
        in_cone = (delta <= half) & (dists > 0)
        if (dists[in_cone] <= length).any():
            continue  # cone blocked inside the ball
        ids = np.nonzero(in_cone)[0]
        ids = ids[np.lexsort((ids, dists[ids]))]
        for y in ids:
            y = int(y)
            if builder.is_vertex[y]:
                continue
            if builder.cx.n_cells:
                # direction must leave the convex hull immediately at x
                s1 = orient2d(*xy[x], *xy[hull_next], *xy[y])
                s2 = orient2d(*xy[hull_prev], *xy[x], *xy[y])
                if s1 >= 0 and s2 >= 0:
                    continue  # stays inside the closed tangent wedge
                if builder.point_in_space(y):
                    continue
            elif orient2d(*xy[i0], *xy[i1], *xy[y]) == 0:
                continue  # keep the seed triangle non-degenerate
            near = np.nonzero(dists <= dists[y])[0]
            if not _segment_clear(points, x, y, near):
                continue
            return y
    raise WindowError(
        f"window exhausted: no admissible edge longer than {length} from vertex {x}"
    )
