import math

import numpy as np
import pytest

from delone.delaunay import delaunay_2d
from delone.errors import DegenerateSimplexError, SamplerError
from delone.functionals import (
    ClassReport,
    FunctionalSpec,
    check_ecal_bounds,
    check_flip_inequality,
    check_g_inequality,
    complex_sum,
    eval_batch,
    eval_functional,
    fe_lifted_volume,
    run_flip_trials,
)
from delone.triangulation import build_complex

TRI_345 = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]


def test_parse_grammar():
    assert FunctionalSpec.parse("F1:c1=1.5") == FunctionalSpec("F1", c1=1.5)
    assert FunctionalSpec.parse("F2:c2=2") == FunctionalSpec("F2", c2=2.0)
    assert FunctionalSpec.parse("area") == FunctionalSpec("AREA")
    assert str(FunctionalSpec.parse("F5")) == "F5"
    with pytest.raises(ValueError):
        FunctionalSpec.parse("F9")
    with pytest.raises(ValueError):
        FunctionalSpec("F1", c1=-1)
    with pytest.raises(ValueError):
        FunctionalSpec("F2", c2=0.5)


def test_eval_reference_values():
    assert eval_functional(FunctionalSpec("F5"), TRI_345) == pytest.approx(300.0)
    assert eval_functional(FunctionalSpec("F3"), [(0, 0), (3, 0), (0, 4)]) == pytest.approx(-1.0)
    assert eval_functional(FunctionalSpec("AREA"), TRI_345) == pytest.approx(6.0)
    assert eval_functional(FunctionalSpec("F1", c1=2.0), TRI_345) == pytest.approx(6.25)
    assert eval_functional(FunctionalSpec("F4"), TRI_345) == pytest.approx(50.0 / 6.0)
    eq = [(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)]
    assert eval_functional(FunctionalSpec("F6"), eq) == pytest.approx(0.0, abs=1e-18)


def test_fe_345():
    assert fe_lifted_volume(TRI_345) == pytest.approx(25.0, rel=1e-12)
    assert eval_functional(FunctionalSpec("FE"), TRI_345) == pytest.approx(25.0)
    assert eval_functional(FunctionalSpec("FR"), TRI_345) == pytest.approx(300.0)


def test_fr_is_constant_multiple_of_fe():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        coords = rng.normal(scale=3.0, size=(200, d + 1, d))
        fr = eval_batch(FunctionalSpec("FR"), coords)
        fe = eval_batch(FunctionalSpec("FE"), coords)
        np.testing.assert_allclose(fr, (d + 1) * (d + 2) * fe, rtol=1e-9)


def test_fe_rigid_motion_invariance():
    rng = np.random.default_rng(4)
    for d in (2, 3):
        for _ in range(40):
            simplex = rng.normal(scale=2.0, size=(d + 1, d))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            moved = simplex @ q.T + rng.normal(scale=5.0, size=d)
            a, b = fe_lifted_volume(simplex), fe_lifted_volume(moved)
            assert b == pytest.approx(a, rel=1e-9)


def test_all_kinds_rigid_motion_invariant():
    rng = np.random.default_rng(14)
    kinds_by_dim = {
        2: ["F1", "F2", "F3", "F4", "F5", "F6", "FR", "FE", "AREA"],
        3: ["F1", "F2", "FR", "FE", "AREA"],
    }
    for d, kinds in kinds_by_dim.items():
        for _ in range(25):
            simplex = rng.normal(scale=2.0, size=(d + 1, d))
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            if np.linalg.det(q) < 0:
                q[:, 0] *= -1
            moved = simplex @ q.T + rng.normal(scale=4.0, size=d)
            for kind in kinds:
                spec = FunctionalSpec(kind)
                a = eval_functional(spec, simplex)
                b = eval_functional(spec, moved)
                assert b == pytest.approx(a, rel=1e-8, abs=1e-12), kind


def test_dimension_validity():
    tet = np.eye(4)[:, :3] * 1.0
    with pytest.raises(ValueError):
        eval_functional(FunctionalSpec("F3"), tet)
    with pytest.raises(ValueError):
        eval_functional(FunctionalSpec("F5"), tet)
    assert eval_functional(FunctionalSpec("FR"), tet) > 0


def test_f4_degenerate_raises():
    with pytest.raises(DegenerateSimplexError):
        eval_functional(FunctionalSpec("F4"), [(0, 0), (1, 0), (2, 0)])


@pytest.mark.parametrize("kind", ["F1", "F2", "F6"])
def test_circumcenter_kinds_raise_degenerate_on_float_singular_triangle(kind):
    # exactly non-degenerate, but the float circumcenter solve is singular
    tri = [[0.0, 0.0], [0.686424914749346, 1.5059366220404455],
           [0.424040095722155, 0.9302947717081502]]
    with pytest.raises(DegenerateSimplexError):
        eval_batch(FunctionalSpec(kind), [tri])


def test_ecal_bounds_area():
    r, q = 0.5, 1.0
    e_hat, E_hat = check_ecal_bounds(FunctionalSpec("AREA"), r, q, 2, samples=400, seed=1)
    assert e_hat >= 2 * r**3 / q - 1e-12  # area lower bound from spacing
    assert E_hat <= (2 * q) ** 2  # generous covering-ball bound
    assert e_hat <= E_hat


def test_ecal_bounds_circumradius():
    e_hat, E_hat = check_ecal_bounds(FunctionalSpec("F1"), 0.5, 1.0, 2, samples=200, seed=2)
    assert E_hat <= 1.0 + 1e-12


def test_ecal_bounds_3d():
    e_hat, E_hat = check_ecal_bounds(FunctionalSpec("FR"), 0.4, 1.2, 3, samples=100, seed=3)
    assert 0 < e_hat <= E_hat


def test_ecal_sampler_starves():
    with pytest.raises(SamplerError):
        check_ecal_bounds(FunctionalSpec("AREA"), 0.99, 1.0, 2, samples=5, seed=0)


def test_flip_inequality_f5_small_battery():
    report = run_flip_trials(FunctionalSpec("F5"), trials=100, seed=11)
    assert report.passed, report.witness


def test_flip_inequality_area_margin_zero():
    rng = np.random.default_rng(9)
    from delone.functionals import random_radon_points

    for _ in range(20):
        pts = random_radon_points(rng, 2)
        res = check_flip_inequality(FunctionalSpec("AREA"), pts)
        assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_flip_inequality_3d_fr():
    report = run_flip_trials(FunctionalSpec("FR"), trials=50, seed=5, d=3)
    assert report.passed, report.witness


def test_g_inequality_delaunay_region_margin_zero():
    rng = np.random.default_rng(21)
    pts = rng.uniform(size=(7, 2))
    dcx = delaunay_2d(pts)
    for spec in (FunctionalSpec("FE"), FunctionalSpec("FR"), FunctionalSpec("F5")):
        res = check_g_inequality(spec, dcx, delaunay_2d(pts))
        assert res.passed
        assert res.margin == pytest.approx(0.0, abs=1e-9)


def test_g_inequality_fe_on_other_triangulations():
    from delone.oracle import enumerate_triangulations_2d

    rng = np.random.default_rng(33)
    for trial in range(10):
        pts = rng.uniform(size=(6, 2)) * 3
        tris = enumerate_triangulations_2d(pts)
        dcx = delaunay_2d(pts)
        for cx in tris[1:3]:
            for spec in (FunctionalSpec("FE"), FunctionalSpec("FR")):
                res = check_g_inequality(spec, cx, dcx)
                assert res.passed, (trial, res)


def test_g_inequality_non_delaunay_subset():
    # T' = the non-Delaunay cells of a scrambled triangulation, a proper
    # subcomplex whose union is generally non-convex
    from delone.oracle import enumerate_triangulations_2d

    rng = np.random.default_rng(55)
    hits = 0
    for trial in range(20):
        pts = rng.uniform(size=(7, 2)) * 2
        tris = enumerate_triangulations_2d(pts)
        if len(tris) < 2:
            continue
        dcells = set(tris[0].cells)
        other = tris[int(rng.integers(1, len(tris)))]
        subset = [c for c in other.cells if c not in dcells]
        if not subset:
            continue
        region = build_complex(pts, subset)
        res = check_g_inequality(FunctionalSpec("FE"), region, delaunay_2d(pts))
        assert res.passed, trial
        hits += 1
    assert hits >= 5


def test_g_inequality_rejects_delaunay_of_other_points():
    rng = np.random.default_rng(21)
    pts = rng.uniform(size=(7, 2))
    with pytest.raises(ValueError, match="not a complex on the Delaunay points"):
        check_g_inequality(FunctionalSpec("FE"), delaunay_2d(pts), delaunay_2d(pts[:6]))
    with pytest.raises(ValueError, match="not a complex on the Delaunay points"):
        check_g_inequality(FunctionalSpec("FE"), delaunay_2d(pts), delaunay_2d(pts + 1.0))


def test_complex_sum_matches_loop():
    rng = np.random.default_rng(2)
    pts = rng.uniform(size=(10, 2))
    cx = delaunay_2d(pts)
    spec = FunctionalSpec("F5")
    manual = sum(eval_functional(spec, cx.cell_coords(c)) for c in cx.cells)
    assert complex_sum(spec, cx) == pytest.approx(manual, rel=1e-12)


def test_class_report_roundtrip():
    rep = ClassReport(functional="F5", trials=10, violations=0)
    d = rep.to_dict()
    assert d["passed"] is True and d["trials"] == 10
