"""Simplicial complexes with facet adjacency, flips, and validity checks.

Cells are sorted vertex-id tuples; ``build_complex`` validates every input in
one array pass, keeps the cells as an int64 array, and makes the tuple set on
first read, from its rows in input order.  A complex is treated as immutable
by readers; the flip operations mutate a complex in place and require
exclusive access to it.  The last complex text ``to_json`` wrote is kept
(``memo``), so reading the text a process just wrote parses nothing.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import memo
from .errors import (
    DegenerateSimplexError,
    InvalidComplexError,
    NonGenericError,
    WindowError,
)
from .geometry import (
    Side,
    TAU_GEO,
    _in_sphere_rows,
    circumradii,
    in_spheres,
    measures,
    on_open_segment,
    orient2d,
    orientations,
    points_in_simplices,
)

Cell = tuple  # sorted vertex ids, length d+1
Facet = tuple  # sorted vertex ids, length d

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
    _cell_set: set | None = field(repr=False)
    _adjacency: dict | None = field(default=None, repr=False)
    provenance: dict = field(default_factory=dict)
    _cells_array: np.ndarray | None = field(default=None, repr=False)
    _rows: list | None = field(default=None, repr=False)
    _cell_rows: np.ndarray | None = field(default=None, repr=False)
    _validated: bool = field(default=False, repr=False)  # by build_complex, and no flip since

    # -- basic views --------------------------------------------------------

    @property
    def validated(self) -> bool:
        """True while the cells are those ``build_complex`` checked: no flip since."""
        return self._validated

    @property
    def _cells(self) -> set:
        """The cells as a set of sorted tuples.  ``build_complex`` leaves it
        unbuilt and keeps its validated rows in input order; the first read
        fills the set from them."""
        if self._cell_set is None:
            self._cell_set = set(map(tuple, self._cell_rows.tolist()))
            self._cell_rows = None
        return self._cell_set

    @property
    def cells(self) -> list:
        """The sorted cells as tuples, read from ``cells_array()``."""
        return list(map(tuple, self.cells_array().tolist()))

    @property
    def n_cells(self) -> int:
        return len(self._cells_array if self._cell_set is None else self._cell_set)

    def has_cell(self, cell: Cell) -> bool:
        return tuple(sorted(cell)) in self._cells

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
            arr = np.array(sorted(self._cells), dtype=np.int64).reshape(-1, self.dim + 1)
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
        """The sorted ids of the points that are vertices of a cell."""
        return np.flatnonzero(np.bincount(self.cells_array().ravel()))

    def facets(self) -> Iterable[Facet]:
        return self.facet_adjacency.keys()

    def interior_facets(self) -> list:
        return [f for f, cs in self.facet_adjacency.items() if len(cs) == 2]

    def facet_cells(self, facet: Facet) -> list:
        return list(self.facet_adjacency.get(tuple(sorted(facet)), ()))

    def copy(self) -> "TriangulationComplex":
        return TriangulationComplex(
            dim=self.dim,
            points=self.points,
            _cell_set=set(self._cells),
            _adjacency={f: list(cs) for f, cs in self.facet_adjacency.items()},
            provenance=dict(self.provenance),
            _rows=self._rows,
        )

    # -- mutation (exclusive access) ----------------------------------------

    def _invalidate(self):
        self._cells_array = None
        self._validated = False

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
        """The complex file's text.  The text of a ``validated`` complex with
        finite points is kept, so that ``from_json`` of it need not parse it."""
        text = json.dumps(
            {
                "schema": 1,
                "dimension": self.dim,
                "points": self.points.tolist(),
                "cells": self.cells_array().tolist(),
                "provenance": self.provenance,
            }
        )
        if self._validated and len(self.points) and np.isfinite(self.points).all():
            memo.keep("complex", text, (self.points.copy(), self.cells_array(),
                                        json.dumps(self.provenance)))
        else:
            memo.drop("complex")
        return text

    @classmethod
    def from_json(cls, text: str) -> "TriangulationComplex":
        """The complex ``to_json`` wrote; raises ``InvalidComplexError`` on text that is no
        JSON object, another schema, missing points or cells, points that are not numbers,
        cells not in a list, a provenance that is not a JSON object (a missing or null one
        reads as {}), a dimension other than the points' width, a NaN or infinite
        coordinate, or a build fault.  A text equal to the last one ``to_json`` wrote in
        this process is not parsed again: its complex gets a fresh copy of the points and
        the cell rows in sorted order, the file's order, as a parse of that text does."""
        kept = memo.get("complex", text)
        if kept is not None:
            points, lex, provenance = kept
            return cls(dim=points.shape[1], points=points.copy(), _cell_set=None,
                       provenance=json.loads(provenance) or {}, _cells_array=lex,
                       _cell_rows=lex, _validated=True)
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidComplexError(f"a complex file must be JSON: {exc}") from None
        if not isinstance(data, dict):
            raise InvalidComplexError(f"a complex file is a JSON object, not {type(data).__name__}")
        if data.get("schema") != 1 or not {"points", "cells"} <= data.keys():
            raise InvalidComplexError("a complex file needs schema 1, points and cells, not "
                                      f"schema {data.get('schema')!r} with keys {sorted(data)}")
        if not isinstance(data["cells"], list):
            raise InvalidComplexError(f"cells must be a list, not {type(data['cells']).__name__}")
        provenance = {} if data.get("provenance") is None else data["provenance"]
        if not isinstance(provenance, dict):
            raise InvalidComplexError(
                f"provenance must be a JSON object, not {type(provenance).__name__}")
        try:
            points = np.array(data["points"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidComplexError(f"points must be rows of numbers: {exc}") from None
        if points.ndim != 2 or data.get("dimension") != points.shape[1]:
            raise InvalidComplexError(f"complex file dimension {data.get('dimension')!r} does "
                                      f"not match points of shape {points.shape}")
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if len(bad):
            raise InvalidComplexError(
                f"point {int(bad[0])} has a non-finite coordinate: {points[bad[0]].tolist()}")
        return build_complex(points, data["cells"], provenance=provenance)


def build_complex(
    points,
    cells: Sequence[Sequence[int]],
    *,
    provenance: dict | None = None,
) -> TriangulationComplex:
    """Build a complex from points and d-cells, checked by
    ``_validated_rows``: every cell is a non-degenerate d-simplex on
    existing points, with integer ids, no cell repeats, and no facet is
    shared by more than two cells (whether the cells tile a convex hull is
    ``certify_tiling``'s question).  The cell set fills on its first read,
    in input order, which fixes ``facet_adjacency`` and ``interior_facets()``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise InvalidComplexError("points must be an (n, d) array")
    rows, lex = _validated_rows(points, cells)
    return TriangulationComplex(
        dim=points.shape[1],
        points=points,
        _cell_set=None,
        provenance=provenance or {},
        _cells_array=lex,
        _cell_rows=rows,
        _validated=True,
    )


def certify_tiling(cx: TriangulationComplex) -> np.ndarray:
    """Check that a complex is a triangulation of its points: its cells tile
    the convex hull of its vertices, and no other point lies in that hull.
    Returns the ids of its vertices, as ``vertices_used`` does.

    The cell measures must sum to the hull volume (within ``COVERAGE_RTOL``),
    and an exact scan must find no unused point in a closed cell; any unused
    point inside a tiled hull lies in some cell, so the scan is complete.
    Raises ``InvalidComplexError`` at the first failure.  This is the premise
    of Delaunay's lemma; the builders of full triangulations call it, and
    deliberate subcomplexes (restrictions, strip windows, Radon pairs) are
    not triangulations of their points.
    """
    from scipy.spatial import ConvexHull

    counts = np.bincount(cx.cells_array().ravel(), minlength=len(cx.points))
    used, unused = np.flatnonzero(counts), np.flatnonzero(counts == 0)
    coords = cx.points[cx.cells_array()]
    total = measures(coords).sum()
    hull = float(ConvexHull(cx.points[used]).volume)
    if abs(total - hull) > COVERAGE_RTOL * max(hull, 1.0):
        raise InvalidComplexError(
            f"cell measures sum to {total}, convex hull volume is {hull}"
        )
    chunk = max(1, (1 << 16) // len(coords))  # bounds the box mask
    for start in range(0, len(unused), chunk):
        ids = unused[start:start + chunk]
        hits, _ = _containing_pairs(coords, cx.points[ids])
        if len(hits):
            raise InvalidComplexError(
                f"point {ids[hits[0]]} lies in the underlying space but is not a vertex"
            )
    return used


def _validated_rows(points, cells):
    """The cells as (m, d+1) int64 arrays of sorted rows, in input order
    (which fills the cell set) and lexicographic order (read-only, the
    ``cells_array()`` cache), checked in one pass: with vertex ids as base-n
    digits, duplicates are equal adjacent cell keys and non-manifold facets
    runs of three equal facet keys (``np.lexsort`` orders the rows where the
    cell keys overflow int64, from 55,109 points in 3D; facet keys are Python
    ints from 2**21).  Faults raise as ``_raise_first_fault`` names them."""
    n, dim = points.shape
    cells = cells if isinstance(cells, np.ndarray) and cells.dtype != object else list(cells)
    try:
        rows = np.asarray(cells)
    except ValueError:  # ragged: the rows before the first of the wrong length must pass
        k = next((i for i, cell in enumerate(cells)
                  if not hasattr(cell, "__len__") or len(cell) != dim + 1), None)
        if k is None:
            raise InvalidComplexError(f"cells must be rows of {dim + 1} vertex ids") from None
        _raise_first_fault(np.sort(np.reshape(cells[:k], (k, dim + 1)), axis=1), n)
        rows = np.asarray(cells[k])[None]
    if len(rows) and (rows.ndim != 2 or rows.shape[1] != dim + 1):
        cell = tuple(sorted(rows[0].tolist())) if rows.ndim == 2 else rows[0].tolist()
        raise InvalidComplexError(f"cell {cell} is not a {dim}-simplex")
    if len(rows) and rows.dtype.kind not in "iu":
        raise InvalidComplexError(f"vertex ids must be integers, not {rows.dtype}")
    rows = np.sort(rows.astype(np.int64, copy=False).reshape(-1, dim + 1), axis=1)
    digits = n ** np.arange(dim, -1, -1, dtype=np.int64 if n ** dim < 2**63 else object)
    if n ** (dim + 1) < 2**63:
        keys = rows @ digits
        order = np.argsort(keys)
        twins = keys[order[1:]] == keys[order[:-1]]
    else:
        order = np.lexsort(rows.T[::-1])
        twins = (rows[order[1:]] == rows[order[:-1]]).all(axis=1)
    if ((rows[:, 0] < 0).any() or (rows[:, -1] >= n).any()
            or (rows[:, 1:] == rows[:, :-1]).any() or twins.any()):
        _raise_first_fault(rows, n)
    degenerate = orientations(points[rows]) == 0
    facets = np.sort(_facet_keys(rows, digits[1:]))
    if degenerate.any() or (facets[2:] == facets[:-2]).any():
        _raise_first_fault(rows, n, degenerate)
    lex = rows[order]
    lex.flags.writeable = False
    return rows, lex


def _raise_first_fault(rows, n, degenerate=None):
    """Raise what a per-cell check of the sorted ``rows`` raises first: at
    the first row in input order with a repeated vertex, an id outside
    0..n-1 or an earlier copy; then, given the ``degenerate`` mask, at the
    first degenerate cell, else non-manifold facet, in cell-set order."""
    later = np.ones(len(rows), dtype=bool)
    later[np.unique(rows, axis=0, return_index=True)[1]] = False
    bad = later | (rows[:, 0] < 0) | (rows[:, -1] >= n) | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if bad.any():
        cell = tuple(rows[np.argmax(bad)].tolist())
        if len(set(cell)) < len(cell):
            raise InvalidComplexError(f"cell {cell} is not a {len(cell) - 1}-simplex")
        if cell[0] < 0 or cell[-1] >= n:
            raise InvalidComplexError(f"cell {cell} references missing points")
        raise InvalidComplexError(f"duplicate cell {cell}")
    if degenerate is None:
        return
    cells = list(set(map(tuple, rows.tolist())))
    if degenerate.any():
        zero = set(map(tuple, rows[degenerate].tolist()))
        raise DegenerateSimplexError(f"cell {next(c for c in cells if c in zero)} is degenerate")
    shared = Counter(itertools.chain.from_iterable(  # keeps first-insertion order
        map(itertools.combinations, cells, itertools.repeat(rows.shape[1] - 1))))
    facet, count = next((f, k) for f, k in shared.items() if k > 2)
    raise InvalidComplexError(f"facet {facet} is shared by {count} cells (non-manifold)")


def _facet_keys(rows, digits):
    """The integer key of every facet of the (m, d+1) rows, the facets
    without vertex 0 of every row first, then those without vertex 1, and
    so on: entry j*m + i is row i's facet opposite ``rows[i, j]``, with its
    ids as the base-n ``digits`` (n**d down to 1)."""
    k = rows.shape[1]
    return (rows[:, [[c for c in range(k) if c != j] for j in range(k)]] @ digits).ravel(order="F")


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
    rows = cx.point_rows
    side = _in_sphere_rows([rows[i] for i in c0], rows[sum(c1) - sum(facet)])
    if side == Side.ON:
        raise NonGenericError(f"facet {facet}: cospherical opposite vertex")
    return side == Side.OUTSIDE


def first_non_delaunay_facet(cx: TriangulationComplex):
    """The lexicographically first interior facet whose opposite vertices lie
    inside each other's circumspheres, or None; ``NonGenericError`` names the
    first cospherical (ON) facet before that.  It reads only ``cells_array()``:
    one sort of the facet keys (n**d must fit in int64, else ``ValueError``)
    pairs the cells of each interior facet, and one exact ``in_spheres`` call
    tests them.  By Delaunay's lemma (Delaunay 1934; Lawson 1977), a
    triangulation of the hull of its points that passes is their Delaunay
    triangulation."""
    rows = cx.cells_array()
    m, n = len(rows), len(cx.points)
    if n ** cx.dim >= 2**63:
        raise ValueError(f"facet keys of {n} points in R^{cx.dim} overflow int64")
    keys = _facet_keys(rows, n ** np.arange(cx.dim - 1, -1, -1, dtype=np.int64))
    order = np.argsort(keys, kind="stable")
    pair = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    near, far = order[pair], order[pair + 1]
    sides = in_spheres(cx.points[rows[near % m]], cx.points[rows[far % m, far // m]])
    bad = np.flatnonzero(sides != Side.OUTSIDE)
    if not len(bad):
        return None
    k = bad[np.argmax(sides[bad] == Side.ON)]  # the first ON facet, else the first INSIDE one
    facet = tuple(np.delete(rows[near[k] % m], near[k] // m).tolist())
    if sides[k] == Side.ON:
        raise NonGenericError(f"facet {facet}: cospherical opposite vertex")
    return facet


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
    limit = 4 * (out.n_cells + 2) ** 2 + 64
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
    """Maximum circumradius over all cells."""
    return float(cx.cell_circumradii().max()) if cx.n_cells else 0.0


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
        self.cx = TriangulationComplex(dim=2, points=points, _cell_set=set(),
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
