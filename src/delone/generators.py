"""Generators for finite windows of Delone sets and the strip constructions.

Every generator is deterministic given its parameters and seed, declares its
packing/covering radii (r, R), and records provenance sufficient to rerun it.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidComplexError, SamplerError
from .geometry import TAU_GEO
from .triangulation import TriangulationComplex, build_complex, first_non_delaunay_facet

JITTER_SCALE = 1e-6  # jitter magnitude as a fraction of r
COMPATIBILITY_TOL = 1e-12  # relative slack of the edge match and the angle tests


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """A named random stream derived from one 64-bit master seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(name.encode())])
    )


@dataclass
class PointSetWindow:
    dim: int
    points: np.ndarray
    r: float
    R: float
    window_radius: float
    provenance: dict = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def save(self, path):
        """Point-set file: header "d r R W", then one point per line."""
        with open(path, "w") as fh:
            fh.write(f"{self.dim} {self.r!r} {self.R!r} {self.window_radius!r}\n")
            for p in self.points:
                fh.write(" ".join(repr(float(x)) for x in p) + "\n")

    @classmethod
    def load(cls, path) -> "PointSetWindow":
        with open(path) as fh:
            head = fh.readline().split()
            d, r, R, W = int(head[0]), float(head[1]), float(head[2]), float(head[3])
            pts = np.array(
                [[float(t) for t in line.split()] for line in fh if line.strip()]
            )
        if pts.shape[1] != d:
            raise ValueError("point file dimension mismatch")
        return cls(dim=d, points=pts, r=r, R=R, window_radius=W,
                   provenance={"generator": "file", "path": str(path)})


@dataclass
class DeloneReport:
    min_pairwise_distance: float
    max_hole_radius: float
    ok: bool
    hole_witness: np.ndarray | None = None


def verify_delone_params(window: PointSetWindow, r=None, R=None) -> DeloneReport:
    """Check condition (I) (no two points within 2r) and condition (II)
    (no empty R-ball centered in the shrunken window), on a probe grid of
    spacing R/4."""
    from scipy.spatial import cKDTree

    r = window.r if r is None else r
    R = window.R if R is None else R
    pts = window.points
    tree = cKDTree(pts)
    dmin, _ = tree.query(pts, k=2)
    min_pair = float(dmin[:, 1].min()) if len(pts) > 1 else math.inf

    probe_extent = window.window_radius - R
    hole = 0.0
    witness = None
    if probe_extent > 0:
        step = R / 4.0
        axis = np.arange(-probe_extent, probe_extent + step, step)
        grids = np.meshgrid(*([axis] * window.dim))
        probes = np.stack([g.ravel() for g in grids], axis=1)
        probes = probes[np.linalg.norm(probes, axis=1) <= probe_extent]
        if len(probes):
            dist, _ = tree.query(probes)
            i = int(np.argmax(dist))
            hole = float(dist[i])
            witness = probes[i]
    scale = max(1.0, abs(2 * r), abs(R))
    ok = min_pair >= 2 * r - TAU_GEO * scale and hole <= R + TAU_GEO * scale
    return DeloneReport(
        min_pairwise_distance=min_pair,
        max_hole_radius=hole,
        ok=bool(ok),
        hole_witness=None if ok else witness,
    )


# ---------------------------------------------------------------------------
# concrete generators


def lattice_window(d: int, W: float, *, jitter: bool = False, seed: int = 0) -> PointSetWindow:
    """Integer lattice points in the closed ball of radius W, optionally
    jittered for genericity."""
    if d not in (2, 3):
        raise ValueError("lattice_window supports d in {2, 3}")
    if W < 1:
        raise ValueError("W must be at least 1")
    n = int(math.floor(W))
    axis = np.arange(-n, n + 1, dtype=float)
    grids = np.meshgrid(*([axis] * d))
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts = pts[np.linalg.norm(pts, axis=1) <= W]
    r, R = 0.5, math.sqrt(d) / 2.0
    prov = {"generator": "lattice", "d": d, "W": W, "jitter": jitter, "seed": seed}
    if jitter:
        eta = JITTER_SCALE * r
        pts = pts + stream_rng(seed, "jitter").uniform(-eta, eta, pts.shape)
        r, R = r - eta, R + eta
        prov["eta"] = eta
    return PointSetWindow(dim=d, points=pts, r=r, R=R, window_radius=float(W),
                          provenance=prov)


def displaced_lattice_point(i: int, j: int, k: int) -> tuple:
    """Where the distorted cubic lattice sends (i, j, k)."""
    return (float(i), float(j), k + ((-1) ** (i + j)) / (2 + abs(k)))


def distorted_cubic_window(W: float) -> PointSetWindow:
    """The distorted cubic lattice: (i, j, k) moves to
    (i, j, k + (-1)^(i+j) / (2 + |k|)).  Its Delaunay tetrahedra include
    arbitrarily flat tents as |k| grows."""
    if W < 3:
        raise ValueError("W must be at least 3")
    n = int(math.ceil(W)) + 1
    pts = []
    for i in range(-n, n + 1):
        for j in range(-n, n + 1):
            for k in range(-n, n + 1):
                p = displaced_lattice_point(i, j, k)
                if p[0] * p[0] + p[1] * p[1] + p[2] * p[2] <= W * W:
                    pts.append(p)
    # vertical neighbours at k=0 are 1 - (1/2 - 1/3) = 5/6 apart, the minimum
    r = 5.0 / 12.0
    R = math.sqrt(3) / 2.0 + 0.5
    return PointSetWindow(
        dim=3, points=np.array(pts), r=r, R=R, window_radius=float(W),
        provenance={"generator": "distorted_cubic", "W": W,
                    "displacement": "(-1)^(i+j) / (2+|k|) on the third axis"},
    )


def poisson_delone_window(r: float, R: float, W: float, seed: int = 0) -> PointSetWindow:
    """Maximal dart-throwing with spacing 2r (Bridson sampling) followed by
    hole-filling until no empty R-ball remains in the shrunken window.

    The points depend only on (r, R, W, seed), and they equal those of the
    loop that draws one radius and one angle per attempt.  Each base draws
    its 30 attempts' doubles at once; on an accept at attempt k the saved
    generator state is restored and 2(k + 1) doubles are redrawn, so the
    stream stands where the one-draw loop leaves it.  The state is restored
    rather than advanced because ``advance`` drops the buffered 32-bit half
    that the next ``integers`` call reads.  The distance tests stay in Python
    floats: NumPy's ``x * x`` and Python's ``x ** 2`` differ in the last bit
    on some inputs.
    """
    if R < 2 * r:
        raise ValueError("need R >= 2r for the sampler to make progress")
    if W <= 4 * R:
        raise ValueError("window too small: need W > 4R")
    rng = stream_rng(seed, "poisson")
    bitgen = rng.bit_generator
    spacing = 2.0 * r
    min_sq = spacing**2
    cell = spacing / math.sqrt(2)
    grid = {}
    # the 25 cells that can hold a conflict, nearest first; any conflict
    # rejects, so the order decides only how soon the scan stops
    near = sorted(((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)),
                  key=lambda o: o[0] * o[0] + o[1] * o[1])

    def accept(p):
        grid[(int((p[0] + W) / cell), int((p[1] + W) / cell))] = p
        points.append(p)
        active.append(p)

    points: list = []
    active: list = []
    first = rng.uniform(-W / 2, W / 2, 2)
    accept((float(first[0]), float(first[1])))
    k_attempts = 30
    while active:
        idx = int(rng.integers(len(active)))
        bx, by = active[idx]
        state = bitgen.state
        u = rng.random(2 * k_attempts).tolist()
        for k in range(k_attempts):
            rad = spacing * (1 + u[2 * k])
            ang = 0.0 + 2 * math.pi * u[2 * k + 1]  # what rng.uniform(0, 2 pi) computes
            px, py = bx + rad * math.cos(ang), by + rad * math.sin(ang)
            if px**2 + py**2 > W * W:
                continue
            cx, cy = int((px + W) / cell), int((py + W) / cell)
            for dx, dy in near:
                q = grid.get((cx + dx, cy + dy))
                if q is not None and (px - q[0]) ** 2 + (py - q[1]) ** 2 < min_sq:
                    break
            else:
                bitgen.state = state
                rng.random(2 * (k + 1))
                accept((px, py))
                break
        else:
            active[idx] = active[-1]
            active.pop()

    # hole-filling: insert centers of any empty R-balls, then re-scan
    from scipy.spatial import cKDTree

    for _ in range(16):
        window = PointSetWindow(
            dim=2, points=np.array(points), r=r, R=R, window_radius=float(W)
        )
        report = verify_delone_params(window)
        if report.ok:
            window.provenance = {
                "generator": "poisson", "r": r, "R": R, "W": W, "seed": seed,
                "n_points": len(points),
            }
            return window
        if report.min_pairwise_distance < 2 * r - TAU_GEO:
            raise SamplerError("dart throwing produced a spacing violation")
        probe_extent = W - R
        step = R / 4.0
        axis = np.arange(-probe_extent, probe_extent + step, step)
        gx, gy = np.meshgrid(axis, axis)
        probes = np.c_[gx.ravel(), gy.ravel()]
        probes = probes[np.linalg.norm(probes, axis=1) <= probe_extent]
        tree = cKDTree(np.array(points))
        dist, _ = tree.query(probes)
        added = []
        for p in probes[dist > R]:
            p = (float(p[0]), float(p[1]))
            if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= spacing**2 for q in added):
                added.append(p)
                points.append(p)
        if not added:
            raise SamplerError(
                f"covering failure persists at hole radius {report.max_hole_radius}"
            )
    raise SamplerError("hole filling did not converge")


# ---------------------------------------------------------------------------
# compatible triangles and strips


def triangle_angles(sides) -> np.ndarray:
    """Interior angles opposite each of the three sides."""
    a, b, c = sides
    def ang(s, p, q):
        return math.acos(max(-1.0, min(1.0, (p * p + q * q - s * s) / (2 * p * q))))
    return np.array([ang(a, b, c), ang(b, a, c), ang(c, a, b)])


def triangles_compatible(sides1, sides2, shared: float) -> bool:
    """Compatibility of two triangles glued along an edge of length ``shared``:
    the two angles opposite the shared edge sum to less than pi and the four
    angles adjacent to it are acute.  This is exactly the condition for the
    glued strips to be locally Delaunay everywhere except between two strips
    of the second kind."""
    tol = COMPATIBILITY_TOL
    out = []
    for sides in (sides1, sides2):
        sides = sorted(sides)
        match = [i for i, s in enumerate(sides) if abs(s - shared) <= tol * max(1.0, shared)]
        if not match:
            return False
        angles = triangle_angles(sides)
        i = match[0]
        out.append((angles[i], [angles[j] for j in range(3) if j != i]))
    (th1, rest1), (th2, rest2) = out
    if th1 + th2 >= math.pi - tol:
        return False
    return all(x < math.pi / 2 - tol for x in rest1 + rest2)


def compatible_isoceles(a: float, phi: float, c: float, psi: float):
    """Isoceles pair (L, L, a) and (L, L, c) with L = 1.05 * max(a/(2cos phi),
    c/(2cos psi)); the shared strip edge is L.

    Returns (delta_sides, top_sides, L).  Note the returned pair is only
    Delaunay-compatible when both apex angles stay acute (L > max(a, c)/sqrt 2);
    ``triangles_compatible`` reports the strict condition.
    """
    if a <= 0 or c <= 0:
        raise ValueError("edge lengths must be positive")
    if not (0 < phi <= math.pi / 4 and 0 < psi <= math.pi / 4):
        raise ValueError("phi and psi must lie in (0, pi/4]")
    L = 1.05 * max(a / (2 * math.cos(phi)), c / (2 * math.cos(psi)))
    return (L, L, a), (L, L, c), L


@dataclass
class StripConfig:
    delta: tuple  # side lengths (L, L, a); the strip whose blocks are pure
    top: tuple  # side lengths (L, L, c); appears in the alternating blocks
    shared: float  # edge length on the strip interfaces
    block_sizes: list  # odd strip counts m_1, m_2, ...
    extent: int = 24  # horizontal periods kept on each side when building

    def validate(self):
        for m in self.block_sizes:
            if m < 1 or m % 2 == 0:
                raise ValueError(f"block sizes must be odd and positive, got {m}")
        for sides in (self.delta, self.top):
            s = sorted(sides)
            if s[0] + s[1] <= s[2]:
                raise ValueError(f"sides {sides} violate the triangle inequality")
            if not any(abs(x - self.shared) <= 1e-9 * self.shared for x in sides):
                raise ValueError("shared edge is not an edge of both triangles")
        if self.extent < 2:
            raise ValueError("extent must be at least 2")

    def strip_geometry(self, kind: str):
        """(base, height, apex offset) of a strip of the given kind."""
        L = self.shared
        sides = self.delta if kind == "W" else self.top
        # base = the side that is not the shared edge (for isoceles L, L, b)
        nonshared = [x for x in sides if abs(x - L) > 1e-9 * max(L, 1.0)]
        base = nonshared[0] if nonshared else L
        area = _triangle_area_from_sides(sides)
        h = 2.0 * area / L
        x_apex = base * base / (2.0 * L)
        return base, h, x_apex

    def triangle_coords(self, kind: str) -> np.ndarray:
        """Canonical coordinates of one triangle of the given strip kind."""
        L = self.shared
        _, h, x_apex = self.strip_geometry(kind)
        return np.array([(0.0, 0.0), (L, 0.0), (x_apex, h)])


def _triangle_area_from_sides(sides) -> float:
    a, b, c = sides
    s = (a + b + c) / 2.0
    val = s * (s - a) * (s - b) * (s - c)
    if val <= 0:
        raise ValueError(f"sides {sides} do not form a triangle")
    return math.sqrt(val)


def block_strip_kinds(cfg: StripConfig, j: int) -> list:
    """Strip kinds of block j, ordered away from the center."""
    m = cfg.block_sizes[j - 1]
    if j % 2 == 1:
        return ["W"] * m
    return ["N" if t % 2 == 0 else "W" for t in range(m)]


def strip_layout(cfg: StripConfig, k: int):
    """Strips (kind, y_bottom, height, x_offset_bottom, x_apex) from bottom to
    top for the first k blocks mirrored about the center line, plus the
    inscribed radii alpha_i of the unions of the first i blocks."""
    cfg.validate()
    if k < 1 or k > len(cfg.block_sizes):
        raise ValueError("k must address an existing block")
    geo = {kind: cfg.strip_geometry(kind) for kind in ("W", "N")}

    upper = []
    for j in range(2, k + 1):
        upper.extend(block_strip_kinds(cfg, j))
    center = block_strip_kinds(cfg, 1)
    kinds = list(reversed(upper)) + center + upper

    half_center = sum(geo[kd][1] for kd in center) / 2.0
    alphas = [half_center]
    for j in range(2, k + 1):
        alphas.append(alphas[-1] + sum(geo[kd][1] for kd in block_strip_kinds(cfg, j)))

    y = -alphas[-1]
    strips = []
    offset = 0.0
    for kd in kinds:
        base, h, x_apex = geo[kd]
        strips.append({"kind": kd, "y": y, "h": h, "offset": offset, "x_apex": x_apex})
        y += h
        offset += x_apex
    # never glue two strips of the second kind together
    for s1, s2 in zip(strips, strips[1:]):
        if s1["kind"] == "N" and s2["kind"] == "N":
            raise InvalidComplexError("two narrow strips are glued together")
    return strips, alphas


def strip_block_triangulation(cfg: StripConfig, k: int, *, require_delaunay=True):
    """Build the first k blocks of the strip triangulation explicitly.

    Returns (PointSetWindow, TriangulationComplex, alphas).  Each row keeps
    the vertices within ``cfg.extent`` shared-edge lengths of the center
    line, so the window box stays centered even though the rows' apex
    offsets drift sideways as the stack grows.
    """
    strips, alphas = strip_layout(cfg, k)
    L = cfg.shared
    e = cfg.extent
    if e * L < alphas[k - 1]:
        raise InvalidComplexError(
            f"extent {e} spans {e * L:.3f} but the inscribed radius is "
            f"{alphas[k - 1]:.3f}; increase cfg.extent"
        )
    ids = {}
    pts = []

    def row_range(offset: float):
        lo = math.ceil((-e * L - offset) / L)
        hi = math.floor((e * L - offset) / L)
        return lo, hi

    def vertex(row: int, i: int, x: float, y: float) -> int:
        key = (row, i)
        if key not in ids:
            ids[key] = len(pts)
            pts.append((x, y))
        return ids[key]

    cells = []
    kinds_count = {"W": 0, "N": 0}
    for t, s in enumerate(strips):
        o_b, o_t = s["offset"], s["offset"] + s["x_apex"]
        y_b, y_t = s["y"], s["y"] + s["h"]
        blo, bhi = row_range(o_b)
        tlo, thi = row_range(o_t)
        for i in range(blo, bhi):
            if not (tlo <= i <= thi):
                continue
            b0 = vertex(t, i, o_b + i * L, y_b)
            b1 = vertex(t, i + 1, o_b + (i + 1) * L, y_b)
            t0 = vertex(t + 1, i, o_t + i * L, y_t)
            cells.append((b0, b1, t0))
            kinds_count[s["kind"]] += 1
            if i + 1 <= thi:
                t1 = vertex(t + 1, i + 1, o_t + (i + 1) * L, y_t)
                cells.append((b1, t0, t1))
                kinds_count[s["kind"]] += 1

    points = np.array(pts)
    cx = build_complex(points, cells, check_coverage=False, provenance={
        "generator": "strips", "blocks": list(cfg.block_sizes[:k]),
        "delta": list(cfg.delta), "top": list(cfg.top), "shared": L,
        "extent": e, "alphas": [float(a) for a in alphas],
    })
    # structural area identity replaces the convex-hull coverage check
    area_delta = _triangle_area_from_sides(cfg.delta)
    area_top = _triangle_area_from_sides(cfg.top)
    want = kinds_count["W"] * area_delta + kinds_count["N"] * area_top
    got = cx.cell_measures().sum()
    if abs(got - want) > 1e-8 * want:
        raise InvalidComplexError("strip areas do not add up")

    if require_delaunay and first_non_delaunay_facet(cx) is not None:
        raise InvalidComplexError(
            "strip complex is not locally Delaunay; the triangle pair "
            "is not strip-compatible (an apex angle is obtuse)"
        )

    from scipy.spatial import cKDTree

    dmin, _ = cKDTree(points).query(points, k=2)
    r = float(dmin[:, 1].min()) / 2.0
    q = max(_circumradius_from_sides(cfg.delta), _circumradius_from_sides(cfg.top))
    window = PointSetWindow(
        dim=2, points=points, r=r, R=2 * q, window_radius=float(alphas[k - 1]),
        provenance=dict(cx.provenance),
    )
    return window, cx, alphas


def _circumradius_from_sides(sides) -> float:
    a, b, c = sides
    return a * b * c / (4.0 * _triangle_area_from_sides(sides))
