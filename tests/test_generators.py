import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delone import generators
from delone.errors import InvalidComplexError
from delone.geometry import TAU_GEO
from delone.triangulation import first_non_delaunay_facet
from delone.generators import (
    _delone_check,
    DeloneReport,
    PointSetWindow,
    StripConfig,
    compatible_isoceles,
    displaced_lattice_point,
    distorted_cubic_window,
    lattice_window,
    poisson_delone_window,
    stream_rng,
    strip_block_triangulation,
    strip_layout,
    triangle_angles,
    triangles_compatible,
    verify_delone_params,
)


def test_lattice_window_counts():
    assert lattice_window(2, 10).n_points == 317  # Gauss circle count
    assert lattice_window(2, 1).n_points == 5


def test_lattice_window_verifies():
    w = lattice_window(2, 10)
    assert verify_delone_params(dataclasses.replace(w, R=math.sqrt(2) / 2)).ok
    # an impossible covering radius must fail with a hole witness
    bad = verify_delone_params(dataclasses.replace(w, R=0.5))
    assert not bad.ok
    assert bad.hole_witness is not None
    center_frac = np.abs(bad.hole_witness - np.round(bad.hole_witness))
    assert center_frac.max() > 0.2  # the hole sits near a cell center


def one_shot_delone_check(window):
    """Reference for ``_delone_check``: the whole R/4 probe grid at once,
    then the report and the probes farther than R."""
    from scipy.spatial import cKDTree

    r, R, pts = window.r, window.R, window.points
    tree = cKDTree(pts)
    dmin, _ = tree.query(pts, k=2)
    min_pair = float(dmin[:, 1].min()) if len(pts) > 1 else math.inf
    probe_extent = window.window_radius - R
    probes, dist = np.empty((0, window.dim)), np.empty(0)
    hole, witness = 0.0, None
    if probe_extent > 0:
        step = R / 4.0
        axis = np.arange(-probe_extent, probe_extent + step, step)
        grids = np.meshgrid(*([axis] * window.dim))
        probes = np.stack([g.ravel() for g in grids], axis=1)
        probes = probes[np.linalg.norm(probes, axis=1) <= probe_extent]
        if len(probes):
            dist, _ = tree.query(probes)
            i = int(np.argmax(dist))
            hole, witness = float(dist[i]), probes[i]
    scale = max(1.0, abs(2 * r), abs(R))
    ok = min_pair >= 2 * r - TAU_GEO * scale and hole <= R + TAU_GEO * scale
    report = DeloneReport(min_pairwise_distance=min_pair, max_hole_radius=hole, ok=bool(ok),
                          hole_witness=None if ok else witness)
    return report, probes[dist > R], len(probes)


def uniform_window(d, W, n, R, seed):
    """Of n points drawn uniformly in [-W, W]^d, those in the W-ball."""
    pts = np.random.default_rng(seed).uniform(-W, W, (n, d))
    pts = pts[np.linalg.norm(pts, axis=1) <= W]
    return PointSetWindow(dim=d, points=pts, r=0.01, R=R, window_radius=float(W))


DELONE_WINDOWS = {
    "2d": lambda: lattice_window(2, 60, jitter=True, seed=1),
    "3d": lambda: lattice_window(3, 10, jitter=True, seed=1),
    "2d-failing": lambda: dataclasses.replace(lattice_window(2, 10), R=0.5),
    "3d-failing": lambda: dataclasses.replace(lattice_window(3, 5, jitter=True, seed=2), R=0.55),
    "poisson": lambda: poisson_delone_window(0.5, 1.5, 26, seed=3),
    # unjittered: many probes tie for the largest distance, and the first is the witness
    "2d-plain": lambda: lattice_window(2, 20),
    "3d-plain": lambda: lattice_window(3, 6),
    "distorted-cube": lambda: distorted_cubic_window(6),
    "2d-uniform-failing": lambda: uniform_window(2, 12, 400, 1.0, seed=1),
    "3d-uniform-failing": lambda: uniform_window(3, 5, 300, 1.0, seed=4),
}


@pytest.mark.parametrize("name", sorted(DELONE_WINDOWS))
def test_delone_check_by_slabs_equals_the_one_shot_grid(name):
    window = DELONE_WINDOWS[name]()
    want, want_far, n_probes = one_shot_delone_check(window)
    assert want.ok == (not name.endswith("failing"))
    assert n_probes > 1000  # more than one slab at every size below
    if name in ("2d", "3d"):
        assert n_probes > 1 << 16  # more than one slab at the default size
    if not want.ok:
        assert len(want_far) and want.hole_witness is not None
    for slab in (generators._PROBE_SLAB, 1000, 1):  # 1: one outer index per slab
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generators, "_PROBE_SLAB", slab)
            got, far = _delone_check(window)
        for f in dataclasses.fields(DeloneReport):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), (slab, f.name)
        assert far.shape == want_far.shape and far.tobytes() == want_far.tobytes(), slab


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), lattice=st.booleans(), n=st.integers(1, 60),
       W=st.floats(1.0, 6.0), R_frac=st.floats(1 / 6, 1.0), seed=st.integers(0, 2**32 - 1),
       slab=st.sampled_from([generators._PROBE_SLAB, 50, 1]))
def test_delone_check_equals_the_one_shot_grid_on_random_windows(d, lattice, n, W, R_frac, seed, slab):
    """Uniform points, or a scaled and shifted integer lattice whose probes tie;
    R >= W/6 keeps the grid under 48 probes per axis."""
    rng = np.random.default_rng(seed)
    if lattice:
        a = rng.uniform(0.3, 1.5)
        ticks = np.arange(-math.ceil(W / a), math.ceil(W / a) + 1) * a
        pts = np.stack([g.ravel() for g in np.meshgrid(*[ticks] * d)], axis=1)
        pts = pts + (rng.uniform(-a, a, d) if seed % 2 else 0.0)
        pts = pts[np.linalg.norm(pts, axis=1) <= W]
        if not len(pts):
            pts = np.zeros((1, d))
    else:
        pts = rng.uniform(-W, W, (n, d))
    window = PointSetWindow(dim=d, points=pts, r=0.01, R=R_frac * W, window_radius=W)
    want, want_far, _ = one_shot_delone_check(window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generators, "_PROBE_SLAB", slab)
        got, far = _delone_check(window)
    for f in dataclasses.fields(DeloneReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None and b is None) or np.array_equal(a, b), f.name
    assert far.shape == want_far.shape and far.tobytes() == want_far.tobytes()


def test_delone_check_queries_at_most_half_the_probes(monkeypatch):
    """The jittered 2D W = 24 lattice has 54,530 probes; the exact bound
    clears most of them, so fewer than half reach the KD-tree, the sub-grid
    included."""
    import scipy.spatial

    queried = []

    class CountingTree(scipy.spatial.cKDTree):
        def query(self, x, k=1, **kwargs):
            if k == 1:  # the probe queries; k = 2 is the pair distance
                queried.append(len(x))
            return super().query(x, k=k, **kwargs)

    window = lattice_window(2, 24, jitter=True, seed=3)
    want, _, n_probes = one_shot_delone_check(window)
    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    got, far = _delone_check(window)
    assert n_probes == 54_530 and got == want and not len(far)
    assert 0 < sum(queried) <= n_probes // 2, sum(queried)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 10: jitter moves a point by up to sqrt(d) eta, but R = sqrt(d)/2 + eta "
    "is declared, and the R/4 probe grid does not see the larger hole"))
def test_jittered_lattice_has_no_empty_ball_beyond_its_declared_R():
    """At d = 2, W = 100, seed 2, a Delaunay circumcentre in the probe disk is
    farther than R + 3.2e-8 from every point, yet the Delone check says ok."""
    from scipy.spatial import Delaunay, cKDTree

    w = lattice_window(2, 100, jitter=True, seed=2)
    assert verify_delone_params(w).ok
    p = w.points
    a, b, c = (p[Delaunay(p).simplices[:, i]] for i in range(3))
    b, c = b - a, c - a
    bb, cc = (b * b).sum(1), (c * c).sum(1)
    det = 2 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    centres = a + np.stack([c[:, 1] * bb - b[:, 1] * cc, b[:, 0] * cc - c[:, 0] * bb], axis=1) / det[:, None]
    centres = centres[np.linalg.norm(centres, axis=1) <= w.window_radius - w.R]
    largest = float(cKDTree(p).query(centres)[0].max())  # a real empty ball
    assert largest <= w.R + TAU_GEO * max(1.0, 2 * w.r, w.R), largest - w.R


def test_lattice_window_jitter_reproducible():
    a = lattice_window(2, 6, jitter=True, seed=5)
    b = lattice_window(2, 6, jitter=True, seed=5)
    c = lattice_window(2, 6, jitter=True, seed=6)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)
    assert verify_delone_params(a).ok


def test_distorted_cubic_points():
    assert displaced_lattice_point(0, 0, 0) == (0.0, 0.0, 0.5)
    assert displaced_lattice_point(1, 0, 0) == (1.0, 0.0, -0.5)
    assert displaced_lattice_point(0, 0, 3) == (0.0, 0.0, 3.2)


@pytest.mark.parametrize("W", [3, 4.5, 5.0, 6])
def test_distorted_cubic_window_equals_the_triple_loop(W):
    """Reference: every lattice point in (i, j, k) order, displaced by
    (-1)^(i+j) / (2 + |k|) in Python floats, kept within norm W."""
    n = int(math.ceil(W)) + 1
    want = []
    for i, j, k in itertools.product(range(-n, n + 1), repeat=3):
        p = (float(i), float(j), k + ((-1) ** (i + j)) / (2 + abs(k)))
        assert displaced_lattice_point(i, j, k) == p
        if p[0] * p[0] + p[1] * p[1] + p[2] * p[2] <= W * W:
            want.append(p)
    got = distorted_cubic_window(W).points
    assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()


def test_distorted_cubic_window_verifies():
    w = distorted_cubic_window(4)
    assert w.dim == 3
    rep = verify_delone_params(w)
    assert rep.ok
    assert rep.min_pairwise_distance >= 5.0 / 6.0 - 1e-12


def test_poisson_window_verifies_and_deterministic():
    w = poisson_delone_window(0.4, 1.5, 20, seed=7)
    assert verify_delone_params(w).ok
    again = poisson_delone_window(0.4, 1.5, 20, seed=7)
    assert np.array_equal(w.points, again.points)
    other = poisson_delone_window(0.4, 1.5, 20, seed=8)
    assert not np.array_equal(w.points, other.points)


def test_poisson_count_scales_with_area():
    w = poisson_delone_window(0.4, 1.5, 20, seed=7)
    # spacing 0.8 packing: densities bracketed by packing/covering bounds
    area = math.pi * 20**2
    assert area / (math.pi * 1.5**2) < w.n_points < area / (math.pi * 0.4**2)


def test_poisson_rejects_bad_parameters():
    with pytest.raises(ValueError):
        poisson_delone_window(0.5, 0.8, 20)
    with pytest.raises(ValueError):
        poisson_delone_window(0.4, 1.5, 5)


@pytest.mark.parametrize("make, name, value", [
    (lambda v: poisson_delone_window(0.4, v, 20), "R", math.nan),
    (lambda v: poisson_delone_window(0.4, v, 20), "R", math.inf),
    (lambda v: poisson_delone_window(v, 1.5, 20), "r", math.inf),
    (lambda v: poisson_delone_window(0.4, 1.5, v), "W", math.nan),
    (lambda v: poisson_delone_window(0.4, 1.5, v), "W", math.inf),
    (lambda v: lattice_window(2, v, jitter=True), "W", math.nan),
    (lambda v: lattice_window(3, v), "W", math.inf),
    (lambda v: lattice_window(2, v), "W", -math.inf),
    (lambda v: distorted_cubic_window(v), "W", math.nan),
    (lambda v: distorted_cubic_window(v), "W", math.inf),
])
def test_generators_name_a_non_finite_parameter_before_any_draw(monkeypatch, make, name, value):
    def no_draw(*args):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(generators, "stream_rng", no_draw)
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == f"{name} must be finite, not {value}"


def _reference_dart_throwing(r, R, W, seed):
    """The dart-throwing loop of ``poisson_delone_window`` with one ``rng``
    call per draw.  Returns its points and how many of them were accepted
    at the last of the 30 attempts."""
    rng = stream_rng(seed, "poisson")
    spacing = 2.0 * r
    cell = spacing / math.sqrt(2)
    grid = {}

    def cell_of(p):
        return (int((p[0] + W) / cell), int((p[1] + W) / cell))

    def fits(p):
        cx, cy = cell_of(p)
        for ix in range(cx - 2, cx + 3):
            for iy in range(cy - 2, cy + 3):
                q = grid.get((ix, iy))
                if q is not None and (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 < spacing**2:
                    return False
        return True

    def accept(p):
        grid[cell_of(p)] = p
        points.append(p)
        active.append(p)

    points: list = []
    active: list = []
    last_attempt_accepts = 0
    first = rng.uniform(-W / 2, W / 2, 2)
    accept((float(first[0]), float(first[1])))
    k_attempts = 30
    while active:
        idx = int(rng.integers(len(active)))
        base = active[idx]
        for attempt in range(k_attempts):
            rad = spacing * (1 + rng.random())
            ang = rng.uniform(0, 2 * math.pi)
            p = (base[0] + rad * math.cos(ang), base[1] + rad * math.sin(ang))
            if p[0] ** 2 + p[1] ** 2 > W * W:
                continue
            if fits(p):
                accept(p)
                last_attempt_accepts += attempt == k_attempts - 1
                break
        else:
            active[idx] = active[-1]
            active.pop()
    return points, last_attempt_accepts


def test_poisson_dart_throwing_matches_one_draw_reference():
    # from just above W = 4R, where many candidates leave the disk, up to 26
    settings = [((0.4, 0.8, 3.3), 14), ((0.5, 1.0, 4.1), 14), ((0.4, 1.5, 6.1), 14),
                ((0.5, 1.5, 6.1), 14), ((0.4, 0.8, 10.0), 3), ((0.5, 1.0, 16.0), 1),
                ((0.5, 1.5, 26.0), 1)]
    inputs = [(*rRW, seed) for rRW, seeds in settings for seed in range(seeds)]
    assert len(inputs) >= 60
    last_attempt_accepts = 0
    for r, R, W, seed in inputs:
        want, late = _reference_dart_throwing(r, R, W, seed)
        last_attempt_accepts += late
        got = poisson_delone_window(r, R, W, seed=seed).points
        # hole filling only appends points after the dart-throwing ones
        assert np.array_equal(got[: len(want)], np.array(want)), (r, R, W, seed)
    assert last_attempt_accepts >= 1


def _reference_window(r, R, W, seed):
    """``_reference_dart_throwing`` followed by the hole filling of
    ``poisson_delone_window``: the window's points and how many of them the
    hole filling added."""
    points, _ = _reference_dart_throwing(r, R, W, seed)
    n_darts = len(points)
    spacing = 2.0 * r
    for _ in range(16):
        window = PointSetWindow(dim=2, points=np.array(points), r=r, R=R, window_radius=float(W))
        report, far = _delone_check(window)
        if report.ok:
            return window.points, len(points) - n_darts
        added = []
        for p in map(tuple, far.tolist()):
            if all((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= spacing**2 for q in added):
                added.append(p)
                points.append(p)
    raise AssertionError("hole filling did not converge")


@pytest.mark.parametrize(
    "r, R, W, seed, n_filled",
    [
        (0.5, 1.0, 4.1, 1, 2),
        (0.5, 1.0, 4.1, 3, 1),
        (0.4, 0.8, 10, 0, 10),
        (0.4, 0.8, 10, 2, 3),
        (0.4, 1.5, 10, 0, 0),
        (0.4, 1.5, 10, 3, 0),
        (0.5, 1.5, 26, 0, 0),
        (0.3, 0.6, 26, 0, 69),
        (0.5, 1.5, 60, 9, 0),
    ],
)
def test_poisson_window_matches_tuple_keyed_reference(r, R, W, seed, n_filled):
    """The int-keyed grid, nearest-first scan and batched draws give the
    bytes of the tuple-keyed one-draw loop, hole filling included."""
    want, filled = _reference_window(r, R, W, seed)
    assert filled == n_filled
    assert poisson_delone_window(r, R, W, seed=seed).points.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "r, R, W, seed, n_points, digest",
    [
        (0.5, 1.5, 60, 9, 7136, "8af5f8a81b938b29"),
        (0.4, 1.5, 25, 11, 1959, "959570dfcfd49815"),
        (0.4, 1.5, 20, 7, 1252, "aed0c8cf942b5cac"),
        (0.5, 1.5, 10, 1, 206, "5e9a09c63aaec49a"),
        # hole filling adds 10 and 2 points to these
        (0.4, 0.8, 10, 0, 321, "e468097d45049315"),
        (0.5, 1.0, 4.1, 1, 39, "80f40e9b0ee3d90b"),
    ],
)
def test_poisson_window_pinned(r, R, W, seed, n_points, digest):
    """Any change of draw order, arithmetic or hole filling moves these."""
    w = poisson_delone_window(r, R, W, seed=seed)
    assert w.n_points == n_points
    assert hashlib.sha256(w.points.tobytes()).hexdigest()[:16] == digest


def test_pointset_file_roundtrip(tmp_path):
    w = lattice_window(2, 4, jitter=True, seed=1)
    # NumPy scalars for d, r, R and W write the header of the Python numbers
    scalars = PointSetWindow(np.int64(2), w.points, np.float64(w.r), np.float64(w.R),
                             np.float64(w.window_radius))
    for name, window in (("w.pts", w), ("scalars.pts", scalars)):
        path = tmp_path / name
        window.save(path)
        back = PointSetWindow.load(path)
        assert back.dim == w.dim
        assert back.r == w.r and back.R == w.R and back.window_radius == w.window_radius
        assert np.array_equal(back.points, w.points)  # repr round-trip is exact
    assert (tmp_path / "scalars.pts").read_bytes() == (tmp_path / "w.pts").read_bytes()


def save_by_point(window, path):
    """The point-file writer as it was: one ``repr`` join per point."""
    with open(path, "w") as fh:
        fh.write(f"{window.dim} {window.r!r} {window.R!r} {window.window_radius!r}\n")
        for p in window.points:
            fh.write(" ".join(repr(float(x)) for x in p) + "\n")


def load_by_token(path):
    """The coordinates of a point file, one ``float`` per token."""
    with open(path) as fh:
        fh.readline()
        return np.array([[float(t) for t in line.split()] for line in fh if line.split()])


# -0.0, the smallest subnormal, the largest double, 1e300 and a thirds' repr
EDGE_ROWS = [[-0.0, 5e-324, 1e300], [-1e300, 2.2250738585072014e-308, -0.0],
             [1.7976931348623157e308, 1 / 3, -5e-324], [0.1, -0.0, 1e-300]]
POINT_FILE_WINDOWS = {
    "lattice2d": lambda: lattice_window(2, 8, jitter=True, seed=2),
    "lattice3d": lambda: lattice_window(3, 4, jitter=True, seed=2),
    "poisson": lambda: poisson_delone_window(0.4, 1.5, 8, seed=3),
    "cube3d": lambda: distorted_cubic_window(3),
    "edge2d": lambda: PointSetWindow(2, np.array(EDGE_ROWS)[:, :2], 0.1, 1.0, 2.0),
    "edge3d": lambda: PointSetWindow(3, np.array(EDGE_ROWS), 0.1, 1.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(POINT_FILE_WINDOWS))
def test_point_files_match_the_per_point_writer_and_the_per_token_reader(tmp_path, name):
    window = POINT_FILE_WINDOWS[name]()
    path, want = tmp_path / "w.pts", tmp_path / "want.pts"
    window.save(path)
    save_by_point(window, want)
    assert path.read_bytes() == want.read_bytes()
    back, ref = PointSetWindow.load(path), load_by_token(path)
    assert back.points.dtype == ref.dtype and back.points.shape == ref.shape
    assert back.points.tobytes() == ref.tobytes()
    assert back.points.tobytes() == np.asarray(window.points, dtype=float).tobytes()


def test_a_point_file_numpy_refuses_is_read_as_float_reads_it(tmp_path):
    """``float`` takes digit underscores and the one-pass reader does not;
    the line-by-line pass reads such a file as before."""
    path = tmp_path / "under.pts"
    path.write_text("2 0.5 1.5 3.0\n1_0 0\n0 2_5.5\n")
    assert PointSetWindow.load(path).points.tolist() == [[10.0, 0.0], [0.0, 25.5]]


def test_compatible_isoceles_formula():
    delta, top, L = compatible_isoceles(1.0, math.pi / 6, 1.0, math.pi / 6)
    assert L == pytest.approx(1.05 / math.sqrt(3), rel=1e-12)
    assert delta == top  # symmetric input gives congruent triangles


def test_compatible_isoceles_domain():
    with pytest.raises(ValueError):
        compatible_isoceles(1.0, math.pi / 2, 1.0, math.pi / 6)
    with pytest.raises(ValueError):
        compatible_isoceles(-1.0, math.pi / 6, 1.0, math.pi / 6)


def test_triangles_compatible_strict():
    # both apex angles acute: valid strip pair
    delta, top, L = compatible_isoceles(1.0, math.pi / 4, 1.2, math.pi / 4)
    assert triangles_compatible(delta, top, L)
    # obtuse apex of the narrow triangle breaks the four-acute condition
    delta2, top2, L2 = compatible_isoceles(1.0, math.pi / 6, 1.6, math.pi / 5)
    assert not triangles_compatible(delta2, top2, L2)


def test_triangle_angles_sum():
    ang = triangle_angles((3.0, 4.0, 5.0))
    assert ang.sum() == pytest.approx(math.pi)
    assert ang[2] == pytest.approx(math.pi / 2)  # opposite the hypotenuse


def valid_cfg(blocks, extent=6):
    delta, top, L = compatible_isoceles(1.0, math.pi / 4, 1.2, math.pi / 4)
    return StripConfig(delta=delta, top=top, shared=L, block_sizes=blocks,
                       extent=extent)


def test_strip_layout_alphas():
    cfg = valid_cfg([3, 3, 5])
    strips, alphas = strip_layout(cfg, 3)
    h_w = cfg.strip_geometry("W")[1]
    h_n = cfg.strip_geometry("N")[1]
    assert alphas[0] == pytest.approx(1.5 * h_w)
    assert alphas[1] == pytest.approx(1.5 * h_w + 2 * h_n + h_w)
    # total stack is symmetric about the center line
    assert strips[0]["y"] == pytest.approx(-alphas[-1])
    assert strips[-1]["y"] + strips[-1]["h"] == pytest.approx(alphas[-1])


def test_strip_layout_rejects_even_blocks():
    cfg = valid_cfg([4])
    with pytest.raises(ValueError):
        strip_layout(cfg, 1)


def test_strip_kind_sequence_never_narrow_narrow():
    cfg = valid_cfg([3, 9, 5, 7])
    strips, _ = strip_layout(cfg, 4)
    kinds = [s["kind"] for s in strips]
    assert "N" in kinds
    for a, b in zip(kinds, kinds[1:]):
        assert not (a == "N" and b == "N")


def test_strip_block_triangulation_all_wide():
    cfg = valid_cfg([3])
    window, cx, alphas = strip_block_triangulation(cfg, 1)
    assert first_non_delaunay_facet(cx) is None
    # every triangle congruent to the wide triangle
    want = sorted(cfg.delta)
    for cell in cx.cells:
        got = sorted(edge_lengths(cx.cell_coords(cell)))
        assert got == pytest.approx(want, rel=1e-9)


def test_strip_block_triangulation_locally_delaunay():
    cfg = valid_cfg([3, 3])
    _, cx, _ = strip_block_triangulation(cfg, 2)
    from delone.triangulation import is_locally_delaunay

    assert first_non_delaunay_facet(cx) is None
    for facet in cx.interior_facets():
        assert is_locally_delaunay(cx, facet)


def test_strip_uniform_bound_is_max_of_the_two_circumradii():
    from delone.geometry import circumradius
    from delone.triangulation import uniform_bound_q

    cfg = valid_cfg([3, 3])
    _, cx, _ = strip_block_triangulation(cfg, 2)
    want = max(
        circumradius(cfg.triangle_coords("W")),
        circumradius(cfg.triangle_coords("N")),
    )
    assert uniform_bound_q(cx) == pytest.approx(want, rel=1e-9)


def test_strip_block_incompatible_pair_rejected():
    delta, top, L = compatible_isoceles(1.0, math.pi / 6, 1.6, math.pi / 5)
    cfg = StripConfig(delta=delta, top=top, shared=L, block_sizes=[3, 3], extent=6)
    # the counting experiments build it explicitly; its obtuse apex angle
    # leaves a facet that is not locally Delaunay
    _, cx, _ = strip_block_triangulation(cfg, 2)
    assert cx.n_cells > 0
    assert first_non_delaunay_facet(cx) is not None


def test_strip_block_extent_guard():
    delta, top, L = compatible_isoceles(1.0, math.pi / 4, 1.2, math.pi / 4)
    cfg = StripConfig(delta=delta, top=top, shared=L, block_sizes=[9], extent=2)
    with pytest.raises(InvalidComplexError, match="extent"):
        strip_block_triangulation(cfg, 1)


def test_strip_window_covers_its_ball():
    # offsets drift sideways as strips stack; the window must stay covered
    delta, top, L = compatible_isoceles(1.0, math.pi / 4, 1.2, math.pi / 4)
    cfg = StripConfig(delta=delta, top=top, shared=L, block_sizes=[3, 9],
                      extent=16)
    window, _, _ = strip_block_triangulation(cfg, 2)
    assert verify_delone_params(window).ok


def test_stream_rng_independent_names():
    a = stream_rng(42, "one").integers(1 << 30)
    b = stream_rng(42, "two").integers(1 << 30)
    c = stream_rng(42, "one").integers(1 << 30)
    assert a == c and a != b


def edge_lengths(simplex) -> np.ndarray:
    """Lengths of all C(d+1, 2) edges, in index order of the vertex pairs."""
    pts = np.asarray(simplex, dtype=float)
    n = len(pts)
    return np.array(
        [np.linalg.norm(pts[i] - pts[j]) for i in range(n) for j in range(i + 1, n)]
    )
