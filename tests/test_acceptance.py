"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` so the verdict lines are
not captured; every tolerance is pinned here.
"""

import math

import numpy as np
import pytest

from delone.delaunay import delaunay_2d
from delone.density import (
    center_invariance_gap,
    choose_block_sizes,
    count_certificate,
    distorted_cube_report,
    geometric_grid,
    delaunay_minimality_comparison,
    strip_gi_sequence,
)
from delone.functionals import (
    FunctionalSpec,
    check_flip_inequality,
    complex_sum,
    eval_batch,
    fe_lifted_volume,
    random_radon_pair,
)
from delone.generators import (
    StripConfig,
    compatible_isoceles,
    lattice_window,
    poisson_delone_window,
    stream_rng,
    verify_delone_params,
)
from delone.geometry import area_via_circumradius, measure
from delone.oracle import enumerate_triangulations_2d, fe_quadrature
from delone.triangulation import (
    build_unbounded_prefix,
    is_locally_delaunay,
    legalize_to_delaunay,
    reverse_flip,
    uniform_bound_q,
)


def report(n, text):
    print(f"ACCEPTANCE {n}: {text} ... PASS")


@pytest.fixture(scope="module")
def lattice60():
    w = lattice_window(2, 60, jitter=True, seed=60)
    return w, delaunay_2d(w.points, provenance=w.provenance)


def test_criterion_1_area_identity():
    tri = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]
    direct = measure(tri)
    via_radius = area_via_circumradius(5, 4, 3, 2.5)
    assert abs(via_radius - 6.0) <= 1e-12
    assert abs(direct - 6.0) <= 1e-12
    assert abs(via_radius - direct) <= 1e-12
    report(1, "area from edge lengths and circumradius equals 6 exactly")


def test_criterion_2_distorted_cube():
    mins = []
    for W in (4, 6, 8):
        rep = distorted_cube_report(W)
        assert rep.n_interior_cubes > 0
        assert rep.all_seven, f"W={W}: an interior cube is not 7 tetrahedra"
        assert rep.tent_volume_max_error <= 1e-9
        mins.append(rep.min_interior_volume)
    assert mins[1] <= mins[0] + 1e-12 and mins[2] <= mins[1] + 1e-12
    report(2, f"7 tetrahedra per interior cube, tent volumes (2/3)*delta, "
              f"min volumes {mins} non-increasing")


def test_criterion_3_lifted_relation():
    rng = np.random.default_rng(3)
    for d in (2, 3):
        coords = rng.normal(scale=2.0, size=(1000, d + 1, d))
        fr = eval_batch(FunctionalSpec("FR"), coords)
        fe = eval_batch(FunctionalSpec("FE"), coords)
        rel = np.abs(fr - (d + 1) * (d + 2) * fe) / np.maximum(np.abs(fr), 1e-30)
        assert rel.max() <= 1e-6
    tri345 = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]
    assert abs(fe_quadrature(tri345, 256) - 25.0) <= 1e-6
    for _ in range(100):
        tri = rng.normal(scale=2.0, size=(3, 2))
        want = fe_lifted_volume(tri)
        assert abs(fe_quadrature(tri, 256) - want) <= 1e-6 * max(1.0, abs(want))
    report(3, "FR = (d+1)(d+2) FE at 1e-6 on 1000 simplices for d=2,3; "
              "s=256 quadrature matches the closed form at 1e-6")


def test_criterion_4_flip_class_suite():
    specs = [
        FunctionalSpec("F1", c1=1.0),
        FunctionalSpec("F2", c2=1.0),
        FunctionalSpec("F3"),
        FunctionalSpec("F4"),
        FunctionalSpec("F5"),
        FunctionalSpec("F6"),
    ]
    rng = stream_rng(4, "acceptance-flip")
    pairs = [random_radon_pair(rng, 2)[1] for _ in range(1000)]
    for spec in specs:
        violations = sum(
            0 if check_flip_inequality(spec, *pair).passed else 1 for pair in pairs
        )
        assert violations == 0, f"{spec}: {violations} violations"
    report(4, "0 violations in 1000 four-point flip trials for F1, F2, F3, "
              "F4, F5, F6")


def test_criterion_5_finite_optimality_oracle():
    rng = stream_rng(5, "acceptance-oracle")
    specs = [FunctionalSpec("F5"), FunctionalSpec("FR"), FunctionalSpec("FE")]
    area = FunctionalSpec("AREA")
    done = 0
    while done < 200:
        n = int(rng.integers(5, 9))
        pts = rng.uniform(size=(n, 2)) * 4.0
        try:
            tris = enumerate_triangulations_2d(pts)
        except Exception:
            continue
        dcells = sorted(delaunay_2d(pts).cells)
        assert sorted(tris[0].cells) == dcells
        for spec in specs:
            sums = [complex_sum(spec, cx) for cx in tris]
            tol = (abs(sums[0]) + 1.0) * 1e-9
            assert sums[0] <= min(sums) + tol, f"{spec} beaten at instance {done}"
        asums = [complex_sum(area, cx) for cx in tris]
        assert max(asums) - min(asums) <= (abs(asums[0]) + 1.0) * 1e-9
        done += 1
    report(5, "Delaunay attains the minimum for F5, FR, FE and AREA ties, "
              "200 enumerated instances with n in 5..8")


def test_criterion_6_flip_engine():
    rng = stream_rng(6, "acceptance-legalize")
    for trial in range(200):
        n = int(rng.integers(10, 31))
        pts = rng.uniform(size=(n, 2)) * 6.0
        dt = delaunay_2d(pts)
        cx = dt.copy()
        q_before = uniform_bound_q(cx)
        wanted = int(rng.integers(1, 12))
        flipped = 0
        tries = 0
        while flipped < wanted and tries < 200:
            tries += 1
            facets = cx.interior_facets()
            facet = facets[int(rng.integers(len(facets)))]
            try:
                if not is_locally_delaunay(cx, facet):
                    continue
                reverse_flip(cx, facet)
                flipped += 1
            except Exception:
                continue
        out, records = legalize_to_delaunay(cx)
        assert sorted(out.cells) == sorted(dt.cells), f"trial {trial}"
        for rec in records:
            assert rec.after_max_circumradius <= rec.before_max_circumradius + 1e-9
        assert uniform_bound_q(out) <= max(q_before, uniform_bound_q(cx)) + 1e-9
    report(6, "legalization reproduces the Delaunay cell set on 200 scrambled "
              "triangulations with monotone flip logs")


def test_criterion_7_strip_non_convergence():
    delta, top, L = compatible_isoceles(1.0, math.pi / 6, 1.6, math.pi / 5)
    spec = FunctionalSpec("F1", c1=1.0)
    sizes = choose_block_sizes(delta, top, spec, 6, shared=L)
    cfg = StripConfig(delta=delta, top=top, shared=L, block_sizes=sizes, extent=2)
    rep = strip_gi_sequence(cfg, spec, 6)
    gap_third = rep.gap / 3.0
    for i, g in enumerate(rep.g_values, start=1):
        if i % 2 == 1:
            assert abs(g - rep.q_delta) < gap_third, f"odd g_{i}"
        else:
            assert abs(g - rep.q_mix) < gap_third, f"even g_{i}"
    odd = [g for i, g in enumerate(rep.g_values, 1) if i % 2 == 1]
    even = [g for i, g in enumerate(rep.g_values, 1) if i % 2 == 0]
    sep = min(abs(a - b) for a in odd for b in even)
    assert sep >= gap_third - 1e-12
    assert rep.verdict == "PASS"

    area_rep = strip_gi_sequence(cfg, FunctionalSpec("AREA"), 6)
    q = max(rep_circumradius(delta), rep_circumradius(top))
    assert abs(area_rep.f_values[-1] - 1.0) <= 3 * q / area_rep.alphas[-1]
    report(7, f"g oscillates between {rep.q_delta:.4f} and {rep.q_mix:.4f} "
              f"with gap/3 separation (blocks {sizes}); AREA density reaches "
              f"1 within 3q/alpha")


def rep_circumradius(sides):
    a, b, c = sides
    s = (a + b + c) / 2.0
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    return a * b * c / (4.0 * area)


def test_criterion_8_window_comparison():
    w = lattice_window(2, 40, jitter=True, seed=8)
    alphas = geometric_grid(10.0, 33.0, 1.1)
    for kind in ("F1:c1=1", "F5"):
        rep = delaunay_minimality_comparison(
            w, FunctionalSpec.parse(kind), 50, alphas, seed=8
        )
        assert rep.flips_applied == 50
        # the comparison includes the measured boundary term (the Delaunay
        # cells inside the ball but outside the perturbed selection's space),
        # which decays like 1/alpha; roundoff tolerance rides on top
        assert rep.passed, f"{kind}: density comparison failed"
    rep = delaunay_minimality_comparison(w, FunctionalSpec("FR"), 50, alphas, seed=8)
    scale = (
        np.abs(rep.f_perturbed) + np.abs(rep.f_delaunay) + 1.0
    ) * math.pi * alphas**2
    assert (rep.bracket_subcomplex >= -1e-9 * scale).all()
    report(8, "Delaunay density below the perturbed density within the "
              "measured boundary slack for F1 and F5; the subcomplex bracket "
              "stays non-negative for FR")


@pytest.fixture(scope="module")
def poisson60():
    w = poisson_delone_window(0.5, 1.5, 60, seed=9)
    return w, delaunay_2d(w.points, provenance=w.provenance)


def test_criterion_9_count_certificates(lattice60, poisson60):
    for name, (w, cx) in (("lattice", lattice60), ("poisson", poisson60)):
        assert verify_delone_params(w).ok
        cert = count_certificate(w, cx)
        assert abs(cert.point_exponent - 2.0) <= 0.1, name
        assert abs(cert.cell_exponent - 2.0) <= 0.1, name
        assert abs(cert.annulus_point_exponent - 1.0) <= 0.2, name
        assert abs(cert.annulus_cell_exponent - 1.0) <= 0.2, name
        floor = 2.0 * w.r**3 / cert.q_interior
        assert cert.min_cell_measure >= floor - 1e-12, name
    report(9, "growth exponents d +/- 0.1 and d-1 +/- 0.2 on lattice and "
              "poisson windows at W=60; min triangle area above 2 r^3 / q")


def test_criterion_10_center_invariance(lattice60):
    w, cx = lattice60
    alphas = geometric_grid(20.0, 50.0, 1.05)
    gaps, ok, _, _ = center_invariance_gap(
        cx, FunctionalSpec("AREA"), (5.0, 0.0), alphas,
        window_radius=w.window_radius, q_bound=w.R,
    )
    quarter = max(1, len(gaps) // 4)
    assert gaps[-quarter:].max() < gaps[:quarter].max()
    assert ok
    report(10, f"center-shift gap decays: first-quartile max "
               f"{gaps[:quarter].max():.2e} vs last-quartile max "
               f"{gaps[-quarter:].max():.2e}")


def test_criterion_11_unbounded_prefix():
    w = poisson_delone_window(0.4, 1.5, 25, seed=11)
    cx = build_unbounded_prefix(w, phases=5)

    edges = set()
    for cell in cx.cells:
        edges.update(
            ((cell[0], cell[1]), (cell[1], cell[2]), (cell[0], cell[2]))
        )
    longest = max(np.linalg.norm(cx.points[a] - cx.points[b]) for a, b in edges)
    assert longest > 5.0

    dt = delaunay_2d(w.points)
    from delone.density import interior_cell_mask

    interior = interior_cell_mask(dt, w.window_radius, 2 * w.R)
    radii = dt.cell_circumradii()
    q_interior = float(radii[interior].max())
    assert longest > q_interior

    # zero points of the window interior to any cell
    from delone.geometry import point_in_simplex

    used = set(cx.vertices_used().tolist())
    coords = cx.points[cx.cells_array()]
    lo = coords.min(axis=1)
    hi = coords.max(axis=1)
    for idx in range(len(cx.points)):
        if idx in used:
            continue
        p = cx.points[idx]
        candidates = np.nonzero(((lo <= p) & (p <= hi)).all(axis=1))[0]
        for ci in candidates:
            assert not point_in_simplex(coords[ci], p), (idx, cx.cells[ci])
    report(11, f"phase-5 prefix is a valid complex, longest edge "
               f"{longest:.2f} > 5 > interior Delaunay bound "
               f"{q_interior:.2f}, no covered point is a non-vertex")
