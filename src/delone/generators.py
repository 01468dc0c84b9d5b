"""Generators for finite windows of Delone sets and the strip constructions.

Every generator is deterministic given its parameters and seed, declares its
packing/covering radii (r, R), and records provenance sufficient to rerun it.
"""

from __future__ import annotations

import errno
import functools
import io
import math
import operator
import os
import stat
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import memo
from .errors import InvalidComplexError, SamplerError
from .geometry import TAU_GEO
from .triangulation import TriangulationComplex, build_complex

JITTER_SCALE = 1e-6  # jitter magnitude as a fraction of r
COMPATIBILITY_TOL = 1e-12  # relative slack of the edge match and the angle tests
_PROBE_SLAB = 1 << 16  # nodes per slab, and stencil entries per chunk, of the Delone check


def stream_rng(seed: int, name: str) -> np.random.Generator:
    """A named random stream derived from one 64-bit master seed."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, zlib.crc32(name.encode())])
    )


def write_text(path, text: str) -> None:
    """Make ``text`` the whole content of ``path``, the one way every output
    file is written.

    A regular file with one link that we may write is unlinked and created
    anew with its old permission bits: on ext4, truncating a file that an
    earlier run rewrote blocks ``open`` until that rewrite reaches the disk
    (50-65 ms a file with the ``discard`` mount option); unlinking it does
    not, while renaming a temporary file over it stalls as well.  A regular
    file with no write bit
    raises ``PermissionError`` and is left as it is, for root too.
    Everything else (a missing file, a symlink, a file with other links, a
    non-regular file, one we may not unlink) is written in place.  Nothing
    is synced, so no durability is promised."""
    try:
        st = os.lstat(path)
    except OSError:
        st = None
    mode = None
    if st is not None and stat.S_ISREG(st.st_mode):
        if not st.st_mode & 0o222:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
        if st.st_nlink == 1 and os.access(path, os.W_OK):
            try:
                os.unlink(path)
                mode = stat.S_IMODE(st.st_mode)
            except OSError:
                pass
    with open(path, "w") as fh:
        if mode is not None:
            os.chmod(fh.fileno(), mode)
        fh.write(text)


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
        """Point-set file: header "d r R W", then one point per line.  A text
        that ``load`` would accept, of finite points, is kept with its window."""
        points = np.asarray(self.points, dtype=float)
        header = f"{int(self.dim)} {float(self.r)!r} {float(self.R)!r} {float(self.window_radius)!r}"
        text = header + "\n" + "".join(" ".join(map(repr, row)) + "\n" for row in points.tolist())
        write_text(path, text)
        memo.drop("window")
        try:
            d, r, R, W = _header(header, path)  # the checks ``load`` makes
        except ValueError:
            return
        if (header.isprintable() and points.ndim == 2 and len(points) and points.shape[1] == d
                and np.isfinite(points).all()):
            memo.keep("window", text, (d, points.copy(), r, R, W))

    @classmethod
    def load(cls, path) -> "PointSetWindow":
        """One NumPy pass reads the coordinates.  A text it refuses is read
        again line by line, to name the path and the first bad line (or to
        take what ``float`` takes and NumPy does not, such as ``1_0``).  The
        header's r, R and W must be finite and positive.  The file is read
        once; a text equal to the last one ``save`` wrote in this process is
        not parsed again, and its points are a fresh copy."""
        with open(path) as fh:
            text = fh.read()
        provenance = {"generator": "file", "path": str(path)}
        kept = memo.get("window", text)
        if kept is not None:
            d, points, r, R, W = kept
            return cls(dim=d, points=points.copy(), r=r, R=R, window_radius=W,
                       provenance=provenance)
        head, _, body = text.partition("\n")
        d, r, R, W = _header(head, path)
        try:
            with warnings.catch_warnings():  # an empty body is refused below
                warnings.simplefilter("ignore", UserWarning)
                points = np.loadtxt(io.StringIO(body), dtype=float, comments=None, ndmin=2)
        except ValueError:
            points = None
        if points is None or points.shape[1] != d:
            rows = []
            for num, line in enumerate(io.StringIO(body), 2):
                try:
                    row = list(map(float, line.split()))
                    if len(row) not in (0, d):
                        raise ValueError(f"expected {d} coordinates, got {len(row)}")
                except ValueError as exc:
                    raise ValueError(f"{path} line {num}: {exc}") from None
                rows += [row] if row else []
            points = np.array(rows)
        if not len(points):
            raise ValueError(f"{path}: no points after the header")
        return cls(dim=d, points=points, r=r, R=R, window_radius=W, provenance=provenance)


def _header(line, path):
    """(d, r, R, W) of a point file's first line; r, R and W must be finite and positive."""
    try:
        d, r, R, W = (f(t) for f, t in zip((int, float, float, float), line.split(), strict=True))
    except ValueError:
        raise ValueError(f'{path} line 1: expected the header "d r R W"') from None
    for name, value in (("r", r), ("R", R), ("W", W)):
        if not 0 < value < math.inf:
            raise ValueError(f"{path} line 1: {name} must be finite and positive, not {value}")
    return d, r, R, W


@dataclass
class DeloneReport:
    min_pairwise_distance: float
    max_hole_radius: float
    ok: bool
    hole_witness: np.ndarray | None = None


def verify_delone_params(window: PointSetWindow) -> DeloneReport:
    """Check condition (I) (no two points within 2r) and condition (II)
    (no empty R-ball centered in the shrunken window), on a probe grid of
    spacing R/4."""
    return _delone_check(window)[0]


def _delone_check(window: PointSetWindow):
    """The report of ``verify_delone_params`` and the probes farther than R
    from every window point.  The probes are the points of the R/4 grid
    within W - R of the origin; the grid is walked in slabs of its outer
    meshgrid index, at most ``_PROBE_SLAB`` nodes each (one index at least),
    so the whole grid is never held at once.

    Only probes that an exact bound cannot clear are queried.  ``low``, the
    largest distance of the probes on every c-th index of each axis, is a
    probe's own distance, so low <= hole.  A probe closer than
    tau = min(low, R)(1 - 1e-9) to a point is below ``low`` and R: neither
    the first maximum (the witness) nor far.  The rest are queried in the
    walk's order, so the report and the far probes are the whole grid's."""
    from scipy.spatial import cKDTree

    r, R, pts, d = window.r, window.R, window.points, window.dim
    tree = cKDTree(pts)
    dmin, _ = tree.query(pts, k=2)
    min_pair = float(dmin[:, 1].min()) if len(pts) > 1 else math.inf

    probe_extent = window.window_radius - R
    far = [np.empty((0, d))]
    hole, witness = 0.0, None
    if probe_extent > 0:
        step = R / 4.0
        axis = np.arange(-probe_extent, probe_extent + step, step)
        n = len(axis)

        def probes_at(idx):  # in-ball probes of node indices in walk order (y, x, z)
            probes = np.stack([axis[idx[1]], axis[idx[0]], *(axis[i] for i in idx[2:])], axis=1)
            return probes[np.linalg.norm(probes, axis=1) <= probe_extent]

        c = 6 if d == 2 else 2  # the fastest of c = 2..6 measured at W = 4..100
        sub = probes_at(np.indices((len(range(0, n, c)),) * d).reshape(d, -1) * c)
        low = float(tree.query(sub)[0].max()) if len(sub) else 0.0
        # Error budget: a node within rho steps of the node g nearest a point
        # is a probe closer than tau to it.  The point lies within sqrt(d)/2
        # steps of g; arange, rint and the coordinates round by under
        # n^2 2^-52 steps (n nodes per axis: 2e-8 at n = 1e4), far inside
        # the 1e-6; the 1e-9 covers the KD-tree's rounding of a distance.
        rho = min(low, R) * (1 - 1e-9) / step - math.sqrt(d) / 2 - 1e-6
        s = max(0, math.floor(rho))  # the stencil radius pads the node grid
        covered = np.zeros((n + 2 * s,) * d, dtype=bool)  # axes in walk order
        if rho >= 0:
            o = np.indices((2 * s + 1,) * d).reshape(d, -1).T - s
            stencil = o[(o * o).sum(1) <= rho * rho] @ covered.strides
            g = np.rint((pts[:, [1, 0, *range(2, d)]] + probe_extent) / step)
            base = (g[((g >= 0) & (g < n)).all(1)].astype(np.intp) + s) @ covered.strides
            chunk = max(1, _PROBE_SLAB // len(stencil))
            for a in range(0, len(base), chunk):
                covered.reshape(-1)[(base[a:a + chunk, None] + stencil).ravel()] = True
        slab = max(1, _PROBE_SLAB // n ** (d - 1))
        for start in range(0, n, slab):
            rows = (slice(s + start, s + min(start + slab, n)),) + (slice(s, s + n),) * (d - 1)
            idx = list(np.nonzero(~covered[rows]))
            idx[0] += start
            probes = probes_at(idx)
            if not len(probes):
                continue
            dist, _ = tree.query(probes)
            i = int(np.argmax(dist))
            if witness is None or dist[i] > hole:  # the first maximum
                hole, witness = float(dist[i]), probes[i].copy()
            far.append(probes[dist > R])
    scale = max(1.0, abs(2 * r), abs(R))
    ok = min_pair >= 2 * r - TAU_GEO * scale and hole <= R + TAU_GEO * scale
    report = DeloneReport(
        min_pairwise_distance=min_pair,
        max_hole_radius=hole,
        ok=bool(ok),
        hole_witness=None if ok else witness,
    )
    return report, np.concatenate(far)


# ---------------------------------------------------------------------------
# concrete generators


def _require_finite(**params) -> None:
    """A ``ValueError`` naming the first parameter that is NaN or infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


def lattice_window(d: int, W: float, *, jitter: bool = False, seed: int = 0) -> PointSetWindow:
    """Integer lattice points in the closed ball of radius W, optionally
    jittered for genericity."""
    if d not in (2, 3):
        raise ValueError("lattice_window supports d in {2, 3}")
    _require_finite(W=W)
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


def _displaced_height(i, j, k):
    """The third coordinate of lattice point (i, j, k), on ints or int arrays."""
    return k + (1 - 2 * ((i + j) % 2)) / (2 + abs(k))


def displaced_lattice_point(i: int, j: int, k: int) -> tuple:
    """Where the distorted cubic lattice sends (i, j, k)."""
    return (float(i), float(j), _displaced_height(i, j, k))


def distorted_cubic_window(W: float) -> PointSetWindow:
    """The distorted cubic lattice: (i, j, k) moves to
    (i, j, k + (-1)^(i+j) / (2 + |k|)).  Its Delaunay tetrahedra include
    arbitrarily flat tents as |k| grows."""
    _require_finite(W=W)
    if W < 3:
        raise ValueError("W must be at least 3")
    n = int(math.ceil(W)) + 1
    axis = np.arange(-n, n + 1)
    i, j, k = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    pts = np.column_stack([i, j, _displaced_height(i, j, k)])
    pts = pts[pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1] + pts[:, 2] * pts[:, 2] <= W * W]
    # vertical neighbours at k=0 are 1 - (1/2 - 1/3) = 5/6 apart, the minimum
    r = 5.0 / 12.0
    R = math.sqrt(3) / 2.0 + 0.5
    return PointSetWindow(
        dim=3, points=pts, r=r, R=R, window_radius=float(W),
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

    The grid keys cell (cx, cy) by the int ``cx * span + cy``.  Darts lie in
    the disk of radius W, so 0 <= cy <= int(2 W / cell) + 1 (one cell of slack
    for rounding): every scanned ``cy + dy`` lies in [-2, span - 3], ``span``
    consecutive ints, and the key is injective.
    """
    if not r > 0:
        raise ValueError(f"need r > 0, not {r}")
    _require_finite(r=r, R=R, W=W)
    if R < 2 * r:
        raise ValueError("need R >= 2r for the sampler to make progress")
    if W <= 4 * R:
        raise ValueError("window too small: need W > 4R")
    rng = stream_rng(seed, "poisson")
    bitgen = rng.bit_generator
    spacing = 2.0 * r
    min_sq = spacing**2
    cell = spacing / math.sqrt(2)
    span = int(2 * W / cell) + 6
    grid = {}
    get, cos, sin, two_pi = grid.get, math.cos, math.sin, 2 * math.pi
    # the 25 cells that can hold a conflict, nearest first; any conflict
    # rejects, so the order decides only how soon the scan stops
    near = [dx * span + dy for dx, dy in sorted(
        ((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)),
        key=lambda o: o[0] * o[0] + o[1] * o[1])]

    def accept(p):
        grid[int((p[0] + W) / cell) * span + int((p[1] + W) / cell)] = p
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
            ang = 0.0 + two_pi * u[2 * k + 1]  # what rng.uniform(0, 2 pi) computes
            px, py = bx + rad * cos(ang), by + rad * sin(ang)
            if px**2 + py**2 > W * W:
                continue
            key = int((px + W) / cell) * span + int((py + W) / cell)
            for o in near:
                q = get(key + o)
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
    for _ in range(16):
        window = PointSetWindow(
            dim=2, points=np.array(points), r=r, R=R, window_radius=float(W)
        )
        report, far = _delone_check(window)
        if report.ok:
            window.provenance = {
                "generator": "poisson", "r": r, "R": R, "W": W, "seed": seed,
                "n_points": len(points),
            }
            return window
        if report.min_pairwise_distance < 2 * r - TAU_GEO:
            raise SamplerError("dart throwing produced a spacing violation")
        added = []
        for p in far:
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


def _sum_left(values):
    """``values`` added left to right: the built-in ``sum`` compensates float
    rounding since Python 3.12, so its outputs differ between versions."""
    return functools.reduce(operator.add, values, 0)


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

    half_center = _sum_left(geo[kd][1] for kd in center) / 2.0
    alphas = [half_center]
    for j in range(2, k + 1):
        alphas.append(alphas[-1] + _sum_left(geo[kd][1] for kd in block_strip_kinds(cfg, j)))

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


def strip_block_triangulation(cfg: StripConfig, k: int):
    """Build the first k blocks of the strip triangulation explicitly.

    Returns (PointSetWindow, TriangulationComplex, alphas).  Each row keeps
    the vertices within ``cfg.extent`` shared-edge lengths of the center
    line, so the window box stays centered even though the rows' apex
    offsets drift sideways as the stack grows.  The complex is not checked
    for local Delaunayhood (``first_non_delaunay_facet``): the counting
    experiments build incompatible pairs too.
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
    cx = build_complex(points, cells, provenance={
        "generator": "strips", "blocks": list(cfg.block_sizes[:k]),
        "delta": list(cfg.delta), "top": list(cfg.top), "shared": L,
        "extent": e, "alphas": [float(a) for a in alphas],
    })
    # the strip window is no convex hull: an area identity stands in for
    # certify_tiling
    area_delta = _triangle_area_from_sides(cfg.delta)
    area_top = _triangle_area_from_sides(cfg.top)
    want = kinds_count["W"] * area_delta + kinds_count["N"] * area_top
    got = cx.cell_measures().sum()
    if abs(got - want) > 1e-8 * want:
        raise InvalidComplexError("strip areas do not add up")

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
