"""Windowed density sequences and the desk-scale experiments built on them:
center invariance, count certificates, the strip non-convergence construction,
and the Delaunay-vs-perturbed comparison."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import memo
from .delaunay import _mesh_delaunay_2d, delaunay_3d
from .errors import GeometryError, WindowError
from .functionals import FunctionalSpec, eval_batch, inequality_tolerance
from .generators import (
    PointSetWindow,
    StripConfig,
    _sum_left,
    _triangle_area_from_sides,
    distorted_cubic_window,
    stream_rng,
    strip_block_triangulation,
    strip_layout,
)
from .geometry import TAU_GEO, circumcenters, circumradii, measures
from .triangulation import (
    TriangulationComplex,
    is_locally_delaunay,
    reverse_flip,
    uniform_bound_q,
)


GAP_FRACTION = 1.0 / 3.0  # strip g_i must lie within GAP_FRACTION * gap of its target
CUBE_MARGIN = 2.0  # the distorted-cube report keeps cubes within norm W - CUBE_MARGIN
GRID_MAX_LEN = 100_000  # alpha grids in use have at most a few dozen entries


def unit_ball_volume(d: int) -> float:
    if d == 2:
        return math.pi
    if d == 3:
        return 4.0 * math.pi / 3.0
    raise ValueError("supported dimensions are 2 and 3")


def geometric_grid(alpha_min: float, alpha_max: float, ratio: float = 1.1) -> np.ndarray:
    """Geometric alpha grid, fine enough to expose slow oscillations of the
    windowed density; non-finite bounds or ratio, or over GRID_MAX_LEN entries, are refused."""
    if not (0 < alpha_min <= alpha_max < math.inf and 1 < ratio < math.inf):
        raise ValueError("need finite 0 < alpha_min <= alpha_max and ratio > 1")
    steps = (math.log(alpha_max) - math.log(alpha_min)) / math.log(ratio)
    if steps > GRID_MAX_LEN:
        raise ValueError(f"the alpha grid needs about {steps:.3g} entries, more than {GRID_MAX_LEN}")
    out = [alpha_min]
    while out[-1] * ratio <= alpha_max:
        out.append(out[-1] * ratio)
    if out[-1] < alpha_max:
        out.append(alpha_max)
    return np.array(out)


@dataclass
class DensitySequence:
    functional: str
    center: np.ndarray
    alphas: np.ndarray
    cell_counts: np.ndarray  # cells with every vertex in the ball
    cell_counts_ballrule: np.ndarray  # cells whose circumball fits in the ball
    sums: np.ndarray  # vertex-rule functional sums
    values: np.ndarray  # sums / (V_d alpha^d)
    liminf_tail: float  # running minimum over the last quarter of the grid

    def csv_rows(self, other: "DensitySequence | None" = None):
        rows = []
        for i, alpha in enumerate(self.alphas):
            fz = other.values[i] if other is not None else self.values[i]
            rows.append(
                (
                    float(alpha),
                    int(self.cell_counts[i]),
                    int(self.cell_counts_ballrule[i]),
                    float(self.sums[i]),
                    float(self.values[i]),
                    float(fz),
                    abs(float(self.values[i]) - float(fz)),
                )
            )
        return rows


CSV_HEADER = "alpha,cells_vertexrule,cells_ballrule,sum_F,f_value,f_z_value,gap"


def _cell_geometry(cx: TriangulationComplex):
    """Cells, their vertex coordinates, circumcentres and circumradii.  Those of
    the last ``validated`` complex are kept, read-only, by the shape and bytes
    of its points and ``cells_array()``."""
    cells = cx.cells_array()
    coords = cx.points[cells]
    key = (cx.points.shape, cx.points.tobytes(), cells.tobytes())
    kept = memo.get("geometry", key)
    if kept is not None:
        return cells, coords, *kept
    centers = circumcenters(coords)
    radii = np.linalg.norm(coords[:, 0, :] - centers, axis=1)
    if cx.validated:  # not a flipped copy, such as compare's perturbed complex
        centers.flags.writeable = radii.flags.writeable = False
        memo.keep("geometry", key, (centers, radii))
    return cells, coords, centers, radii


def max_admissible_alpha(window_radius: float, q_bound: float, center) -> float:
    return window_radius - 2.0 * q_bound - float(np.linalg.norm(center))


def density_sequence(
    cx: TriangulationComplex,
    spec: FunctionalSpec,
    center,
    alphas,
    *,
    window_radius: float | None = None,
    q_bound: float | None = None,
) -> DensitySequence:
    """Windowed density f(T, alpha) = (sum of F over cells contained in the
    alpha-ball around the center) / (V_d alpha^d).

    Containment of a cell in the ball is the vertex rule (a simplex lies in a
    ball iff its vertices do); the circumball-rule counts are also recorded.
    If the window radius is supplied, the grid must keep 2*q_bound of margin
    so no window-boundary cell is ever counted.  Raises ``ValueError``
    unless the center has one finite coordinate per dimension of the
    complex, on a ``window_radius`` or ``q_bound`` that is not finite, on a
    ``q_bound`` <= 0 and on a ``q_bound`` without a ``window_radius``.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (cx.dim,):
        raise ValueError(f"the center must have {cx.dim} coordinates, not shape {center.shape}")
    if not np.isfinite(center).all():
        raise ValueError(f"the center must be finite, not {center.tolist()}")
    for name, value in (("window_radius", window_radius), ("q_bound", q_bound)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")
    if q_bound is not None and q_bound <= 0:
        raise ValueError(f"q_bound must be positive, not {q_bound}")
    if q_bound is not None and window_radius is None:
        raise ValueError("q_bound is given without window_radius")
    alphas = np.asarray(alphas, dtype=float)
    if window_radius is not None:
        q = uniform_bound_q(cx) if q_bound is None else float(q_bound)
        limit = max_admissible_alpha(window_radius, q, center)
        if alphas.max() > limit + TAU_GEO:
            raise WindowError(
                f"alpha grid exceeds the safe window: max admissible alpha is {limit}"
            )
    cells, coords, centers, radii = _cell_geometry(cx)
    fvals = eval_batch(spec, coords)
    vertex_dist = np.linalg.norm(coords - center[None, None, :], axis=2).max(axis=1)
    ball_dist = np.linalg.norm(centers - center[None, :], axis=1) + radii

    order = np.argsort(vertex_dist)
    sorted_dist = vertex_dist[order]
    prefix = np.concatenate([[0.0], np.cumsum(fvals[order])])
    counts = np.searchsorted(sorted_dist, alphas, side="right")
    sums = prefix[counts]
    ball_sorted = np.sort(ball_dist)
    counts_ball = np.searchsorted(ball_sorted, alphas, side="right")

    d = cx.dim
    values = sums / (unit_ball_volume(d) * alphas**d)
    tail_n = max(1, int(math.ceil(len(alphas) * 0.25)))
    return DensitySequence(
        functional=str(spec),
        center=center,
        alphas=alphas,
        cell_counts=counts.astype(np.int64),
        cell_counts_ballrule=counts_ball.astype(np.int64),
        sums=sums,
        values=values,
        liminf_tail=float(values[-tail_n:].min()),
    )


def center_invariance_gap(
    cx: TriangulationComplex,
    spec: FunctionalSpec,
    center,
    alphas,
    *,
    window_radius: float | None = None,
    q_bound: float | None = None,
):
    """Gap |f(T, alpha) - f_z(T, alpha)| between the origin-centered and
    z-centered densities; reports decay (last-quartile max below the
    first-quartile max)."""
    origin = density_sequence(
        cx, spec, np.zeros(cx.dim), alphas,
        window_radius=window_radius, q_bound=q_bound,
    )
    shifted = density_sequence(
        cx, spec, center, alphas, window_radius=window_radius, q_bound=q_bound
    )
    gaps = np.abs(origin.values - shifted.values)
    quarter = max(1, len(gaps) // 4)
    passed = bool(gaps[-quarter:].max() < gaps[:quarter].max())
    return gaps, passed, origin, shifted


# ---------------------------------------------------------------------------
# count certificates


@dataclass
class BoundsCertificate:
    r: float
    R: float
    q_interior: float
    theoretical: dict
    alphas: np.ndarray
    point_counts: np.ndarray
    cell_counts: np.ndarray
    annulus_point_counts: np.ndarray
    annulus_cell_counts: np.ndarray
    point_exponent: float
    cell_exponent: float
    annulus_point_exponent: float
    annulus_cell_exponent: float
    min_cell_measure: float
    max_cell_measure: float
    max_vertex_degree: int
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "R": self.R,
            "q_interior": self.q_interior,
            "theoretical": self.theoretical,
            "alphas": self.alphas.tolist(),
            "point_counts": self.point_counts.tolist(),
            "cell_counts": self.cell_counts.tolist(),
            "annulus_point_counts": self.annulus_point_counts.tolist(),
            "annulus_cell_counts": self.annulus_cell_counts.tolist(),
            "exponents": {
                "points": self.point_exponent,
                "cells": self.cell_exponent,
                "annulus_points": self.annulus_point_exponent,
                "annulus_cells": self.annulus_cell_exponent,
            },
            "min_cell_measure": self.min_cell_measure,
            "max_cell_measure": self.max_cell_measure,
            "max_vertex_degree": self.max_vertex_degree,
            "checks": self.checks,
            "ok": self.ok,
        }


def _loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    mask = y > 0
    lx, ly = np.log(x[mask]), np.log(y[mask])
    return float(np.polyfit(lx, ly, 1)[0])


def interior_cell_mask(cx: TriangulationComplex, window_radius: float, shrink: float):
    """Cells whose circumball fits inside the window ball shrunk by ``shrink``."""
    _, _, centers, radii = _cell_geometry(cx)
    return np.linalg.norm(centers, axis=1) + radii <= window_radius - shrink


def count_certificate(window: PointSetWindow, cx: TriangulationComplex) -> BoundsCertificate:
    """Empirical growth of point and cell counts against the concrete packing
    and covering bounds of an (r, R)-window, plus the per-triangle area floor
    in the plane."""
    d = window.dim
    r, R = window.r, window.R
    cells, coords, centers, radii = _cell_geometry(cx)
    interior = np.linalg.norm(centers, axis=1) + radii <= window.window_radius - 2 * R
    q_int = float(radii[interior].max()) if interior.any() else float(radii.max())

    lo = max(4 * R, window.window_radius / 8.0)
    hi = window.window_radius - 2 * q_int - 1.0
    if not 0 < lo <= hi:
        raise WindowError(f"window radius W = {window.window_radius} is too small for the "
                          f"count certificate: its alpha range [{lo}, {hi}] is empty")
    alphas = geometric_grid(lo, hi, 1.15)

    pts_dist = np.sort(np.linalg.norm(window.points, axis=1))
    vert_dist = np.sort(np.linalg.norm(coords, axis=2).max(axis=1))
    pcounts = np.searchsorted(pts_dist, alphas, side="right")
    ccounts = np.searchsorted(vert_dist, alphas, side="right")
    p_ann = np.searchsorted(pts_dist, alphas + 1.0, side="right") - pcounts
    c_ann = np.searchsorted(vert_dist, alphas + 1.0, side="right") - ccounts

    vols = measures(coords)
    min_measure = float(vols[interior].min()) if interior.any() else float(vols.min())
    max_measure = float(vols[interior].max()) if interior.any() else float(vols.max())
    degrees = np.bincount(cells.ravel(), minlength=len(window.points))

    # concrete constants from the packing/covering proofs
    v_floor = 2.0 * r**3 / q_int if d == 2 else None
    v_cap = (2.0 * q_int) ** d
    n_ball_2q = ((2 * q_int + r) / r) ** d
    s_per_vertex = math.comb(int(n_ball_2q), d)
    upper_pts = ((alphas + r) / r) ** d
    lower_pts = ((alphas - R) / R) ** d

    checks = {
        "points_within_packing_bounds": bool(
            (pcounts <= upper_pts).all() and (pcounts >= lower_pts).all()
        ),
        "max_cell_measure_below_cap": bool(max_measure <= v_cap + TAU_GEO),
        "vertex_degree_below_certificate": bool(degrees.max() <= s_per_vertex),
    }
    if v_floor is not None:
        checks["min_cell_area_above_floor"] = bool(min_measure >= v_floor - TAU_GEO)

    return BoundsCertificate(
        r=r,
        R=R,
        q_interior=q_int,
        theoretical={
            "v_area_floor": v_floor,
            "V_volume_cap": v_cap,
            "q_delaunay_bound": R,
            "cells_per_vertex_cap": s_per_vertex,
            "point_upper_formula": "((alpha + r)/r)^d",
            "point_lower_formula": "((alpha - R)/R)^d",
        },
        alphas=alphas,
        point_counts=pcounts,
        cell_counts=ccounts,
        annulus_point_counts=p_ann,
        annulus_cell_counts=c_ann,
        point_exponent=_loglog_slope(alphas, pcounts),
        cell_exponent=_loglog_slope(alphas, ccounts),
        annulus_point_exponent=_loglog_slope(alphas, p_ann),
        annulus_cell_exponent=_loglog_slope(alphas, c_ann),
        min_cell_measure=min_measure,
        max_cell_measure=max_measure,
        max_vertex_degree=int(degrees.max()),
        checks=checks,
    )


# ---------------------------------------------------------------------------
# strip densities


@dataclass
class StripDensityReport:
    q_delta: float
    q_top: float
    q_mix: float
    gap: float
    alphas: list
    k_counts: list
    l_counts: list
    g_values: list
    f_values: list
    verdict: str  # PASS, FAIL, or DEGENERATE
    details: dict = field(default_factory=dict)


def analytic_strip_counts(cfg: StripConfig, upto_block: int):
    """Exact counts (k_i, l_i) of wide- and narrow-strip triangles contained
    in the inscribed disks B_{alpha_i}, from the strip layout alone (strips
    extend indefinitely in x)."""
    strips, alphas = strip_layout(cfg, upto_block)
    L = cfg.shared
    out = []
    for alpha in alphas:
        k_count = 0
        l_count = 0
        for s in strips:
            y0, y1 = s["y"], s["y"] + s["h"]
            if abs(y0) > alpha or abs(y1) > alpha:
                continue
            x0 = math.sqrt(alpha * alpha - y0 * y0)
            x1 = math.sqrt(alpha * alpha - y1 * y1)
            o, xa = s["offset"], s["x_apex"]
            # up triangles: bottom edge (i, i+1) at y0, apex i at y1
            lo = math.ceil(max((-x0 - o) / L, (-x1 - o - xa) / L))
            hi = math.floor(min((x0 - o) / L - 1.0, (x1 - o - xa) / L))
            ups = max(0, hi - lo + 1)
            # down triangles: bottom vertex i+1 at y0, top edge (i, i+1) at y1
            lo = math.ceil(max((-x0 - o) / L - 1.0, (-x1 - o - xa) / L))
            hi = math.floor(min((x0 - o) / L - 1.0, (x1 - o - xa) / L - 1.0))
            downs = max(0, hi - lo + 1)
            if s["kind"] == "W":
                k_count += ups + downs
            else:
                l_count += ups + downs
        out.append((k_count, l_count))
    return out, alphas


def built_strip_counts(cfg: StripConfig, upto_block: int):
    """Counts of the two congruence classes measured on the built complex;
    the cross-check for the analytic counter."""
    window, cx, alphas = strip_block_triangulation(cfg, upto_block)
    coords = cx.points[cx.cells_array()]
    vertex_dist = np.linalg.norm(coords, axis=2).max(axis=1)
    areas = measures(coords)
    a_delta = _triangle_area_from_sides(cfg.delta)
    a_top = _triangle_area_from_sides(cfg.top)
    if abs(a_delta - a_top) < 1e-12 * (a_delta + a_top):
        raise ValueError("cannot classify by congruence: equal areas")
    is_delta = np.abs(areas - a_delta) < np.abs(areas - a_top)
    out = []
    for alpha in alphas:
        # the built window must be wide enough for the disk
        if cfg.extent * cfg.shared < alpha + cfg.shared:
            raise WindowError("extent too small for the requested disk")
        inside = vertex_dist <= alpha
        out.append((int((inside & is_delta).sum()), int((inside & ~is_delta).sum())))
    return out, alphas


class StripRatios(NamedTuple):
    """F and area of the wide (delta) and narrow (top) strip triangles as
    pairs, Q_delta, Q_top, the ratio Q of one of each, the gap |Q_delta - Q|
    and its scale |Q_delta| + |Q_top| + 1; the pair is ``degenerate`` (no
    gap to witness: F is proportional to the area on it) within 1e-9."""
    f: tuple
    a: tuple
    q_delta: float
    q_top: float
    q_mix: float
    gap: float
    scale: float
    degenerate: bool


def strip_ratios(delta, top, spec: FunctionalSpec, *, shared: float) -> StripRatios:
    """The ``StripRatios`` of the triangles with sides ``delta`` and ``top``
    glued along an edge of length ``shared``."""
    probe = StripConfig(tuple(delta), tuple(top), shared, block_sizes=[3], extent=2)
    f = tuple(float(eval_batch(spec, probe.triangle_coords(kind))[0]) for kind in "WN")
    a = tuple(_triangle_area_from_sides(sides) for sides in (probe.delta, probe.top))
    q_delta, q_top, q_mix = f[0] / a[0], f[1] / a[1], (f[0] + f[1]) / (a[0] + a[1])
    gap, scale = abs(q_delta - q_mix), abs(q_delta) + abs(q_top) + 1.0
    return StripRatios(f, a, q_delta, q_top, q_mix, gap, scale, gap <= 1e-9 * scale)


def strip_gi_sequence(cfg: StripConfig, spec: FunctionalSpec, k: int) -> StripDensityReport:
    """The density-ratio sequence g_i and raw densities f_i of the strip
    construction at the inscribed radii alpha_i, from the analytic counts.

    g_1 equals F(delta)/A(delta) exactly; with block sizes from
    ``choose_block_sizes`` the odd- and even-indexed values cluster near
    Q_delta and Q with a persistent gap, witnessing that the density limit
    does not exist unless F is proportional to the area."""
    r = strip_ratios(cfg.delta, cfg.top, spec, shared=cfg.shared)
    (f_delta, f_top), (a_delta, a_top) = r.f, r.a
    q_delta, q_mix, gap, scale = r.q_delta, r.q_mix, r.gap, r.scale

    counts, alphas = analytic_strip_counts(cfg, k)

    g_values, f_values = [], []
    for (kc, lc), alpha in zip(counts, alphas):
        area_sum = kc * a_delta + lc * a_top
        f_sum = kc * f_delta + lc * f_top
        g_values.append(f_sum / area_sum if area_sum > 0 else math.nan)
        f_values.append(f_sum / (math.pi * alpha * alpha))

    odd, even = g_values[0::2], g_values[1::2]  # g_1, g_3, ... near Q_delta; g_2, ... near Q
    ok = not any(abs(g - q_delta) >= GAP_FRACTION * gap for g in odd)
    ok = ok and not any(abs(g - q_mix) >= GAP_FRACTION * gap for g in even)
    if odd and even:
        ok = ok and min(abs(a - b) for a in odd for b in even) >= gap / 3.0 - 1e-9 * scale
    verdict = "DEGENERATE" if r.degenerate else "PASS" if ok else "FAIL"

    return StripDensityReport(
        q_delta=q_delta,
        q_top=r.q_top,
        q_mix=q_mix,
        gap=gap,
        alphas=[float(a) for a in alphas],
        k_counts=[c[0] for c in counts],
        l_counts=[c[1] for c in counts],
        g_values=g_values,
        f_values=f_values,
        verdict=verdict,
        details={"functional": str(spec), "blocks": list(cfg.block_sizes[:k])},
    )


def choose_block_sizes(delta, top, spec: FunctionalSpec, k: int, *,
                       shared: float) -> list:
    """Greedily grow odd block sizes, from m_1 = 3 up to 2^22, until each g_i
    lands within GAP_FRACTION * |Q_delta - Q| of its alternating target
    (Q_delta for odd i, Q for even i); ``shared`` is the gluing edge's
    length.  Raises ``ValueError`` when ``strip_ratios`` finds the pair
    degenerate."""
    r = strip_ratios(delta, top, spec, shared=shared)
    if r.degenerate:
        raise ValueError("DEGENERATE: F(delta)/A(delta) equals the mixed ratio")

    sizes = [3]
    for i in range(2, k + 1):
        target = r.q_delta if i % 2 == 1 else r.q_mix
        m = 3
        while True:
            cfg = StripConfig(delta=tuple(delta), top=tuple(top), shared=shared,
                              block_sizes=sizes + [m], extent=2)
            counts, _ = analytic_strip_counts(cfg, i)
            kc, lc = counts[-1]
            g = (kc * r.f[0] + lc * r.f[1]) / (kc * r.a[0] + lc * r.a[1])
            if abs(g - target) < GAP_FRACTION * r.gap:
                break
            m = 2 * m + 1
            if m > 1 << 22:
                raise RuntimeError(f"block {i} did not converge to its target")
        sizes.append(m)
    return sizes


# ---------------------------------------------------------------------------
# the distorted-cube experiment


@dataclass
class CubeReport:
    window: float
    n_interior_cubes: int
    all_seven: bool
    tent_volume_max_error: float
    min_interior_volume: float
    rows: list  # (i, j, k, n_tets, vol_bottom, vol_top, want_bottom, want_top)


def distorted_cube_report(W: float) -> CubeReport:
    """Delaunay structure of the distorted cubic lattice window: every
    interior unit cube decomposes into exactly 7 tetrahedra whose flat tents
    have volumes (2/3) / (2 + |k|) at lattice level k."""
    window = distorted_cubic_window(W)
    cx = delaunay_3d(window.points, provenance=dict(window.provenance))
    pts = window.points
    # the corners within norm W - CUBE_MARGIN; the stacked 1x3 @ 3x1 products
    # take NumPy's vector-dot path, so each norm is np.linalg.norm(p) bit for bit
    inner = np.sqrt((pts[:, None, :] @ pts[:, :, None])[:, 0, 0]) <= W - CUBE_MARGIN
    # a point's lattice index (i, j, k): x = i, y = j, and z lies within 1/2 of k
    lattice = np.column_stack([pts[:, :2], np.rint(pts[:, 2])]).astype(np.int64)
    n = int(math.ceil(W))
    side = 2 * n  # cubes (i, j, k) in [-n, n)^3; inner corners lie in (-n, n)^3
    occupied = np.zeros((side + 1,) * 3, dtype=bool)
    occupied[tuple((lattice[inner] + n).T)] = True
    shifts = list(itertools.product((0, 1), repeat=3))
    interior = np.logical_and.reduce(
        [occupied[a:a + side, b:b + side, c:c + side] for a, b, c in shifts]).ravel()
    cubes = np.flatnonzero(interior)  # in (i, j, k) lexicographic order

    # A tetrahedron of inner points lies in the cubes whose corner box holds
    # it: per axis, the lower corner is its lowest index, or one below when it
    # is flat in that axis, so a tetrahedron flat in k lies in two cubes.
    cells = cx.cells_array()
    corners = lattice[cells]
    lo, hi = corners.min(axis=1), corners.max(axis=1)
    pos = np.flatnonzero(inner[cells].all(axis=1) & (hi - lo <= 1).all(axis=1))
    ids = [np.ravel_multi_index(tuple((np.where(s, hi[pos] - 1, lo[pos]) + n).T), (side,) * 3)
           for s in np.array(shifts, dtype=bool)]
    cube_of, pos_of = np.divmod(np.unique(np.concatenate(ids) * len(cells) + np.tile(pos, 8)),
                                len(cells))
    held = interior[cube_of]
    cube_of, pos_of = cube_of[held], pos_of[held]
    rank = np.searchsorted(cubes, cube_of)
    n_tets = np.bincount(rank, minlength=len(cubes))
    # the flat tents: a tetrahedron flat in k at the cube's bottom (0) or top (1) level
    level = np.where(hi[pos_of, 2] == lo[pos_of, 2], lo[pos_of, 2] - (cube_of % side - n), -1)
    tents = np.full((2, len(cubes)), -1)
    for h in (0, 1):
        tents[h, rank[level == h]] = pos_of[level == h]
    # The vertex order fixes the last bits of each volume, which the CSV
    # prints in full: keep each cell's frozenset order.
    used = np.unique(pos_of)
    vols = measures(cx.points[[list(frozenset(c)) for c in cells[used].tolist()]]).tolist()
    volume = dict(zip(used.tolist(), vols))

    rows = []
    all_seven = True
    worst = 0.0
    ijk = (np.column_stack(np.unravel_index(cubes, (side,) * 3)) - n).tolist()
    for (i, j, k), count, b, t in zip(ijk, n_tets.tolist(), *tents.tolist()):
        vb, vt = volume.get(b, math.nan), volume.get(t, math.nan)
        want_b = (2.0 / 3.0) / (2 + abs(k))
        want_t = (2.0 / 3.0) / (2 + abs(k + 1))
        rows.append((i, j, k, count, vb, vt, want_b, want_t))
        if count != 7:
            all_seven = False
        if not math.isnan(vb):
            worst = max(worst, abs(vb - want_b))
        else:
            all_seven = False
        if not math.isnan(vt):
            worst = max(worst, abs(vt - want_t))
        else:
            all_seven = False

    return CubeReport(
        window=float(W),
        n_interior_cubes=len(rows),
        all_seven=all_seven,
        tent_volume_max_error=worst,
        min_interior_volume=float(min(vols, default=math.inf)),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Delaunay-vs-perturbed comparison


@dataclass
class ComparisonReport:
    functional: str
    alphas: np.ndarray
    f_delaunay: np.ndarray
    f_perturbed: np.ndarray
    bracket_subcomplex: np.ndarray  # sum T(a) - sum D'(a)
    bracket_boundary: np.ndarray  # sum D'(a) - sum D(a)
    slack: np.ndarray  # measured boundary term / (V_d alpha^d)
    flips_applied: int
    passed: bool
    tail_delaunay: float
    tail_perturbed: float
    strict_pass: bool  # f_D <= f_T + tiny, without the boundary slack
    details: dict = field(default_factory=dict)


def perturb_by_reverse_flips(
    dcx: TriangulationComplex,
    n_flips: int,
    *,
    window_radius: float,
    q_bound: float,
    seed: int = 0,
):
    """Undo ``n_flips`` locally-Delaunay edges chosen uniformly at random
    among those whose quadrilateral is strictly convex and far from the
    window boundary.  Returns (perturbed complex, flip records, quads).

    Flips whose new cells would have a circumradius above 2 * q_bound are
    skipped, so the perturbed triangulation stays uniformly bounded at
    window scale instead of acquiring near-degenerate slivers.
    """
    if n_flips < 0:
        raise ValueError(f"n_flips must be >= 0, not {n_flips}")
    cx = dcx.copy()
    rng = stream_rng(seed, "reverse-flips")
    cap = 2.0 * q_bound
    records = []
    quads = []
    tries = 0
    margin = window_radius - 2.0 * cap
    norms = np.linalg.norm(cx.points, axis=1)  # each row as a per-pick norm reads it
    # kept in step with cx.interior_facets(): a flip deletes the old diagonal's
    # entry and appends the new one; a flip that raises leaves cx unchanged
    facets = cx.interior_facets()
    while len(records) < n_flips:
        tries += 1
        if tries > 400 * (n_flips + 1):
            raise WindowError("no reverse flip available")
        pick = int(rng.integers(len(facets)))
        facet = facets[pick]
        if norms[list(facet)].max() > margin:
            continue
        try:
            if not is_locally_delaunay(cx, facet):
                continue
            old_cells = cx.facet_cells(facet)
            vertices = sorted(set(old_cells[0]) | set(old_cells[1]))
            if norms[vertices].max() > margin:
                continue
            a, b = (w for w in vertices if w not in facet)
            u, v = facet
            grown = circumradii(cx.points[[[a, b, u], [a, b, v]]]).max()
            if grown > cap:
                continue
            if not all(dcx.has_cell(c) for c in old_cells):
                continue  # a cell made by an earlier flip: keep quads disjoint
            rec = reverse_flip(cx, facet)
        except GeometryError:
            continue
        del facets[pick]
        facets.append((min(a, b), max(a, b)))
        new_cells = cx.facet_cells(facets[-1])
        records.append(rec)
        quads.append(
            {"old_facet": facet, "d_cells": tuple(old_cells),
             "t_cells": tuple(new_cells)}
        )
    return cx, records, quads


def delaunay_minimality_comparison(
    window: PointSetWindow,
    spec: FunctionalSpec,
    n_flips: int,
    alphas,
    *,
    seed: int = 0,
) -> ComparisonReport:
    """Compare the windowed density of the Delaunay triangulation against a
    reverse-flip perturbation of it.

    Per alpha the comparison allows the measured boundary term: the cells of
    the Delaunay triangulation inside the ball but outside the underlying
    space of the perturbed selection form an annulus population whose sum is
    the slack (it grows like alpha^(d-1), so the normalized slack decays like
    1/alpha).  The liminf-tail comparison needs no slack."""
    # the mesh at once: ``perturb_by_reverse_flips`` reads its cell order
    dcx = _mesh_delaunay_2d(window.points, dict(window.provenance))
    q0 = window.R
    tcx, records, quads = perturb_by_reverse_flips(
        dcx, n_flips, window_radius=window.window_radius, q_bound=q0, seed=seed
    )
    q_bound = max([q0, *(rec.after_max_circumradius for rec in records)])
    alphas = np.asarray(alphas, dtype=float)
    f_d, f_t = (density_sequence(cx, spec, np.zeros(2), alphas, q_bound=q_bound,
                                 window_radius=window.window_radius) for cx in (dcx, tcx))

    # combinatorial D'(alpha): unflipped cells inside the ball, plus both
    # Delaunay cells of every quadrilateral whose perturbed pair is inside
    flipped_d = {c for qd in quads for c in qd["d_cells"]}
    d_cells = dcx.cells_array()
    d_coords = dcx.points[d_cells]
    d_dist = np.linalg.norm(d_coords, axis=2).max(axis=1)
    d_f = eval_batch(spec, d_coords)
    d_tuples = list(map(tuple, d_cells.tolist()))
    d_value = dict(zip(d_tuples, d_f.tolist()))
    unflipped_mask = np.array([c not in flipped_d for c in d_tuples])

    t_cells = tcx.cells_array()
    t_dd = np.linalg.norm(tcx.points[t_cells], axis=2).max(axis=1)
    t_dist = dict(zip(map(tuple, t_cells.tolist()), t_dd.tolist()))
    quad_d_vals = [(max(t_dist[c] for c in qd["t_cells"]),
                    _sum_left(d_value[c] for c in qd["d_cells"])) for qd in quads]

    vd = unit_ball_volume(2)
    bracket1 = np.zeros(len(alphas))
    bracket2 = np.zeros(len(alphas))
    slack = np.zeros(len(alphas))
    for i, alpha in enumerate(alphas):
        sum_unflipped = float(d_f[unflipped_mask & (d_dist <= alpha)].sum())
        sum_quads = _sum_left(val for reach, val in quad_d_vals if reach <= alpha)
        sum_dprime = sum_unflipped + sum_quads
        sum_t = float(f_t.sums[i])
        sum_d = float(f_d.sums[i])
        bracket1[i] = sum_t - sum_dprime
        bracket2[i] = sum_dprime - sum_d
        slack[i] = max(0.0, sum_d - sum_dprime) / (vd * alpha**2)

    diff = f_d.values - f_t.values
    tol = inequality_tolerance(f_d.values, f_t.values)
    passed = bool((diff <= slack + tol).all())
    strict = bool((diff <= tol).all())
    return ComparisonReport(
        functional=str(spec),
        alphas=alphas,
        f_delaunay=f_d.values,
        f_perturbed=f_t.values,
        bracket_subcomplex=bracket1,
        bracket_boundary=bracket2,
        slack=slack,
        flips_applied=len(records),
        passed=passed,
        tail_delaunay=f_d.liminf_tail,
        tail_perturbed=f_t.liminf_tail,
        strict_pass=strict,
        details={"seed": seed, "n_flips": n_flips, "q_bound": q_bound},
    )
