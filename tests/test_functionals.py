import hashlib
import json
import math

import numpy as np
import pytest

from delone.delaunay import delaunay_2d, radon_split, restrict_delaunay
from delone.errors import DegenerateSimplexError, SamplerError
from delone.functionals import (
    ClassReport,
    _paired_sums,
    FunctionalSpec,
    check_ecal_bounds,
    check_flip_inequality,
    check_g_inequality,
    complex_sum,
    eval_batch,
    eval_functional,
    fe_lifted_volume,
    random_radon_pair,
    run_flip_trials,
)
from delone.generators import stream_rng
from delone.oracle import enumerate_triangulations_2d
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
    for _ in range(20):
        _, (dcx, tcx) = random_radon_pair(rng, 2)
        res = check_flip_inequality(FunctionalSpec("AREA"), dcx, tcx)
        assert res.margin == pytest.approx(0.0, abs=1e-12)


def test_flip_inequality_3d_fr():
    report = run_flip_trials(FunctionalSpec("FR"), trials=50, seed=5, d=3)
    assert report.passed, report.witness


# (d, spec, seed, start) -> (violations, min_margin, witness) of
# run_flip_trials(spec, 12, seed=seed, d=d, start=start): a change to the
# draws, the Radon split or the predicates that moves any trial shows here.
FLIP_TRIAL_PINS = {
    (2, "F5", 0, 0): (0, 0.0026977907532904077, None),
    (2, "F5", 3, 17): (0, 0.0006335567171260291, None),
    (2, "F5", 11, 40): (0, 0.0008630412913963602, None),
    (2, "F5", 29, 123): (0, 0.0028571184880984146, None),
    (2, "F1:c1=1.5", 0, 0): (0, 0.07213735312080602, None),
    (2, "F1:c1=1.5", 3, 17): (0, 0.028406977095427832, None),
    (2, "F1:c1=1.5", 11, 40): (0, 0.06846132067975441, None),
    (2, "F1:c1=1.5", 29, 123): (0, 0.0292254669403732, None),
    (2, "AREA", 0, 0): (0, -5.551115123125783e-17, None),
    (2, "AREA", 3, 17): (0, -2.7755575615628914e-17, None),
    (2, "AREA", 11, 40): (0, -5.551115123125783e-17, None),
    (2, "AREA", 29, 123): (0, -5.551115123125783e-17, None),
    (3, "FR", 0, 0): (0, 0.00015832289920794662, None),
    (3, "FR", 3, 17): (0, 0.0014475493775331777, None),
    (3, "FR", 11, 40): (0, 0.00033766033581293653, None),
    (3, "FR", 29, 123): (0, 0.0008887105170857779, None),
    (3, "FE", 0, 0): (0, 7.916144960397591e-06, None),
    (3, "FE", 3, 17): (0, 7.237746887666079e-05, None),
    (3, "FE", 11, 40): (0, 1.688301679064969e-05, None),
    (3, "FE", 29, 123): (0, 4.44355258542891e-05, None),
    (3, "F1", 0, 0): (7, -1.2683286387920827, [
        [0.8995977959166565, 0.5619468620985577, 0.7168373475395349],
        [0.35828139355655364, 0.017023727657043297, 0.45555621869369856],
        [0.6279429097388475, 0.6974528275500885, 0.8596431639089931],
        [0.17545374402505554, 0.6699361422488682, 0.2777580620494967],
        [0.3293490532010417, 0.9659364001012728, 0.8888953016777466],
    ]),
    (3, "F1", 3, 17): (6, -2.9717412761802686, [
        [0.973505722915009, 0.7807048825838473, 0.10121583473560813],
        [0.8781483590145921, 0.6681452475092576, 0.791601817603969],
        [0.2903956286267092, 0.4867234892953983, 0.2668611493641889],
        [0.8430254290848457, 0.43028304074483803, 0.17515812644138773],
        [0.6784559306565524, 0.6734655771108636, 0.6805902977327933],
    ]),
    (3, "F1", 11, 40): (8, -12.111937818509794, [
        [0.7717365217985097, 0.4610259299802012, 0.7311203484777068],
        [0.37636938667270603, 0.5812314102383609, 0.22159640450617524],
        [0.7575129855553632, 0.22185019702866438, 0.26109622231562557],
        [0.18917153171970413, 0.9583914697825751, 0.04843931561744841],
        [0.9426047787133356, 0.8959441046021237, 0.955281622938691],
    ]),
    (3, "F1", 29, 123): (8, -6.028324834960907, [
        [0.1518282233539966, 0.613110236902001, 0.3374490787030755],
        [0.3632922509626526, 0.376162134633512, 0.2784918220315675],
        [0.8755260773644926, 0.35360818030672025, 0.026660999181252643],
        [0.47663182874536203, 0.9079166409884288, 0.6901191293998569],
        [0.7127806789655127, 0.3505722567505657, 0.9672788068795056],
    ]),
}


@pytest.mark.parametrize("key", FLIP_TRIAL_PINS, ids=lambda k: "-".join(map(str, k)))
def test_flip_trials_pinned(key):
    d, text, seed, start = key
    violations, margin, witness = FLIP_TRIAL_PINS[key]
    spec = FunctionalSpec.parse(text)
    report = run_flip_trials(spec, 12, seed=seed, d=d, start=start)
    assert json.dumps(report.to_dict()) == json.dumps({  # keys in the order flipcheck writes
        "functional": str(spec), "trials": 12, "violations": violations,
        "passed": violations == 0, "witness": witness,
        "notes": {"min_margin": margin, "d": d},
    })


def test_random_radon_pair_keeps_the_draw_sequence():
    """200 draws in a row and the generator state after them, pinned as the
    sha256 of the points' bytes and the next uniform: a draw is kept exactly
    when ``radon_split`` accepts it, and the pair is that split."""
    want = {
        2: ("0d52c73ad94c3cb185b0310782c5ff0f5ab09546be9f4fd903c219ac341c1298",
            0.14898467385622804),
        3: ("459940916800f4e187f6d1c1ac8f0593a69e25a3575fc9415fc95b44c1af1553",
            0.3065222649360526),
    }
    for d, (digest, after) in want.items():
        rng = stream_rng(7, f"radon-draws-{d}")
        h = hashlib.sha256()
        for _ in range(200):
            pts, (dcx, tcx) = random_radon_pair(rng, d)
            assert [dcx.cells, tcx.cells] == [sorted(cells) for cells in radon_split(pts)]
            h.update(pts.tobytes())
        assert (h.hexdigest(), rng.random()) == (digest, after)
    with pytest.raises(ValueError, match="R\\^2 or R\\^3"):
        random_radon_pair(rng, 4)  # raises instead of drawing forever


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


PAIRED_SPECS = [FunctionalSpec("AREA"), FunctionalSpec("F1", c1=1.0), FunctionalSpec("F1", c1=1.5),
                FunctionalSpec("F2"), FunctionalSpec("F3"), FunctionalSpec("F4"),
                FunctionalSpec("F5"), FunctionalSpec("F6"), FunctionalSpec("FR"),
                FunctionalSpec("FE")]


@pytest.fixture(scope="module")
def paired_inputs():
    """(a, b) as the flip trials hand them over (seeded Radon pairs, d = 2
    and 3) and as the g-trials do (a restricted Delaunay triangulation and
    its region: a whole triangulation, its non-Delaunay cells, and one
    non-Delaunay cell, whose restriction is empty)."""
    rng = np.random.default_rng(416)
    pairs = [random_radon_pair(rng, d)[1] for d in (2, 3) for _ in range(12)]
    for n in (5, 6, 7, 8):
        pts = rng.uniform(size=(n, 2)) * 4.0
        tris = enumerate_triangulations_2d(pts)
        dcx, other = tris[0], tris[-1].cells
        rest = [c for c in other if not dcx.has_cell(c)]
        for cells in (other, rest, rest[:1]):
            region = build_complex(pts, cells)
            pairs.append((restrict_delaunay(dcx, region), region))
    assert any(not a.n_cells for a, _ in pairs)
    return pairs


@pytest.mark.parametrize("spec", PAIRED_SPECS, ids=str)
def test_paired_sums_equal_two_complex_sums(spec, paired_inputs):
    checked = 0
    for a, b in paired_inputs:
        if spec.admissible_dim(a.dim):
            assert _paired_sums(spec, a, b) == (complex_sum(spec, a), complex_sum(spec, b))
            checked += 1
    assert checked >= 24


def test_class_report_roundtrip():
    rep = ClassReport(functional="F5", trials=10, violations=0)
    d = rep.to_dict()
    assert d["passed"] is True and d["trials"] == 10
