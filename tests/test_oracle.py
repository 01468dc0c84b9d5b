import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from delone.delaunay import delaunay_2d
from delone import oracle
from delone.errors import InvalidComplexError, NonGenericError
from delone.functionals import FunctionalSpec, complex_sum, fe_lifted_volume
from delone.oracle import (
    ENUMERATION_LIMIT,
    enumerate_triangulations_2d,
    fe_quadrature,
    min_sum_triangulation,
    noncrossing_triangulations,
    run_g_trials,
)
from delone.geometry import orient2d
from delone.triangulation import build_complex

TRI_345 = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]


def convex_ngon(n, seed=0, wobble=1e-2):
    """A strictly convex n-gon, counterclockwise, near the unit circle.
    Each angle stays within a quarter step of its slot 2 pi k / n, so
    neighbours are at least pi / n apart, and a vertex sinks below the chord
    of its neighbours only by a radius change of about (pi / n)^2 / 2, far
    above ``wobble`` for n <= ENUMERATION_LIMIT.  Random angles had let two
    neighbours crowd together, and the wobble then pushed the point between
    them inside the hull."""
    rng = np.random.default_rng(seed)
    ang = 2 * math.pi * (np.arange(n) + rng.uniform(-0.25, 0.25, n)) / n
    radius = 1.0 + rng.uniform(-wobble, wobble, n)
    pts = np.c_[radius * np.cos(ang), radius * np.sin(ang)]
    xy = pts.tolist()
    assert all(orient2d(*xy[k - 2], *xy[k - 1], *xy[k]) == 1 for k in range(n)), (n, seed)
    return pts


def test_convex_quad_two_triangulations():
    pts = [(0.0, 0.0), (3.0, 0.0), (3.2, 1.1), (0.0, 1.0)]
    assert len(enumerate_triangulations_2d(pts)) == 2


def test_convex_pentagon_catalan():
    assert len(enumerate_triangulations_2d(convex_ngon(5, seed=3))) == 5


def test_convex_hexagon_catalan():
    assert len(enumerate_triangulations_2d(convex_ngon(6, seed=4))) == 14


@pytest.mark.parametrize("n", range(4, ENUMERATION_LIMIT + 1))
def test_convex_ngon_catalan(n):
    # every convex n-gon has Catalan(n - 2) triangulations; seeds 1 and 5
    # gave a non-convex 9-gon under random angles
    catalan = math.comb(2 * (n - 2), n - 2) // (n - 1)
    for seed in (0, 1, 5):
        assert len(enumerate_triangulations_2d(convex_ngon(n, seed=seed))) == catalan


def test_interior_point_configuration():
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)]
    flips = enumerate_triangulations_2d(pts)
    independent = noncrossing_triangulations(pts)
    assert len(flips) == len(independent)
    assert {frozenset(cx.cells) for cx in flips} == set(independent)


def test_enumerators_agree_on_random_instances():
    rng = np.random.default_rng(17)
    for trial in range(12):
        n = int(rng.integers(4, 8))
        pts = rng.uniform(size=(n, 2)) * 3
        flips = {frozenset(cx.cells) for cx in enumerate_triangulations_2d(pts)}
        independent = set(noncrossing_triangulations(pts))
        assert flips == independent, trial


def _facet_map(cells):
    """Edge -> incident cells, in the iteration order of ``cells``."""
    adj = {}
    for cell in cells:
        for facet in itertools.combinations(cell, 2):
            adj.setdefault(facet, []).append(cell)
    return adj


def scalar_enumeration(points):
    """Reference flip-graph traversal: four scalar ``orient2d`` calls per
    interior edge and state, and a full ``build_complex`` per state."""
    pts = np.asarray(points, dtype=float)

    def neighbors(cells):
        out = []
        for facet, incident in _facet_map(cells).items():
            if len(incident) != 2:
                continue
            c0, c1 = incident
            (a,) = set(c0) - set(facet)
            (b,) = set(c1) - set(facet)
            u, v = facet
            if orient2d(*pts[a], *pts[b], *pts[u]) * orient2d(*pts[a], *pts[b], *pts[v]) >= 0:
                continue
            if orient2d(*pts[u], *pts[v], *pts[a]) * orient2d(*pts[u], *pts[v], *pts[b]) >= 0:
                continue
            out.append(frozenset((cells - {c0, c1}) | {
                tuple(sorted((a, b, u))), tuple(sorted((a, b, v)))}))
        return out

    root = frozenset(delaunay_2d(pts).cells)
    seen, order, queue = {root}, [root], [root]
    while queue:
        for nxt in neighbors(queue.pop()):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
                queue.append(nxt)
    return [build_complex(pts, sorted(state)).cells for state in order]


def enumeration_outcome(enumerate_cells, pts):
    try:
        return enumerate_cells(pts)
    except NonGenericError as exc:
        return str(exc)


def traversal_inputs():
    """Seeded uniform and dyadic point sets of 4..9 points, the dyadic ones
    with the last point the exact midpoint of two others, then 120 sets of
    5..8 points drawn as ``run_g_trials`` draws them."""
    rng = np.random.default_rng(43)
    for n in range(4, 10):
        for _ in range(6):
            uniform = rng.uniform(size=(n, 2)) * 3
            dyadic = rng.integers(0, 64, size=(n, 2)) / 8
            i, j = rng.choice(n - 1, size=2, replace=False)
            dyadic[-1] = (dyadic[i] + dyadic[j]) / 2
            for pts, kind in ((uniform, "uniform"), (dyadic, "dyadic")):
                if len(np.unique(pts, axis=0)) == n:
                    yield pts, kind
    for _ in range(120):
        yield rng.uniform(size=(int(rng.integers(5, 9)), 2)) * 4.0, "trial"


def test_enumeration_matches_scalar_traversal():
    generic = collinear = 0
    for pts, kind in traversal_inputs():
        want = enumeration_outcome(scalar_enumeration, pts)
        got = enumeration_outcome(
            lambda p: [cx.cells for cx in enumerate_triangulations_2d(p)], pts)
        assert got == want
        if isinstance(want, list):
            generic += kind != "dyadic"
            collinear += kind == "dyadic"
    assert generic > 150 and collinear > 10


def test_enumerated_states_equal_built_complexes():
    # no state goes through build_complex any more: each must still be the
    # complex that build_complex makes of its sorted cells, down to the
    # iteration order of its cell set and of its facet adjacency
    inputs = [pts for pts, _ in traversal_inputs()] + [convex_ngon(9, seed=5)]
    checked = 0
    for pts in inputs:
        try:
            tris = enumerate_triangulations_2d(pts)
        except NonGenericError:
            continue
        for cx in tris:
            ref = build_complex(pts, sorted(cx.cells))
            assert list(cx._cells) == list(ref._cells)
            assert cx.cells == ref.cells
            assert list(cx.facet_adjacency.items()) == list(ref.facet_adjacency.items())
            assert cx.provenance == ref.provenance == {}
        checked += len(tris)
    assert len(tris) == 429  # the convex 9-gon: Catalan number C_7
    assert checked > 2000


def test_flip_onto_an_existing_edge_raises(monkeypatch):
    # a triangle around an interior point has no flip; a forged sign table
    # that calls every quadrilateral convex proposes flips onto hull edges
    pts = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)]
    assert len(enumerate_triangulations_2d(pts)) == 1
    monkeypatch.setattr(oracle, "_orientation_table",
                        lambda p: [[[(-1) ** k for k in range(4)]] * 4] * 4)
    with pytest.raises(InvalidComplexError, match=r"edge \(\d, \d\) exists already"):
        enumerate_triangulations_2d(pts)


# (spec, seed, n_range) -> (violations, min_margin, witness) of three g-trials,
# recorded when each trial still triangulated its points twice.  No 2D
# functional (F1 to F6 at several exponents, FR, FE, AREA) violates the
# subcomplex inequality within 50 trials of seeds 0-9, so every witness is None.
G_TRIALS = {
    ("FE", 3, (5, 8)): (0, 0.7960189872748539, None),
    ("FE", 4, (5, 8)): (0, 0.029672893478825943, None),
    ("FE", 5, (4, 6)): (0, 0.0, None),
    ("FE", 8, (7, 9)): (0, 0.31237115761588363, None),
    ("FR", 3, (5, 8)): (0, 9.552227847298248, None),
    ("FR", 4, (5, 8)): (0, 0.35607472174591104, None),
    ("FR", 5, (4, 6)): (0, 0.0, None),
    ("FR", 8, (7, 9)): (0, 3.748453891390593, None),
    ("F5", 3, (5, 8)): (0, 9.552227847298248, None),
    ("F5", 4, (5, 8)): (0, 0.35607472174591104, None),
    ("F5", 5, (4, 6)): (0, 0.0, None),
    ("F5", 8, (7, 9)): (0, 3.748453891390593, None),
}


@pytest.mark.parametrize("spec, seed, n_range", list(G_TRIALS))
def test_g_trials_are_unchanged(spec, seed, n_range):
    """The whole report, keys in the order ``gcheck`` writes them."""
    violations, margin, witness = G_TRIALS[spec, seed, n_range]
    report = run_g_trials(FunctionalSpec(spec), 3, n_range=n_range, seed=seed)
    assert json.dumps(report.to_dict()) == json.dumps({
        "functional": spec, "trials": 3, "violations": violations,
        "passed": violations == 0, "witness": witness,
        "notes": {"min_margin": margin, "n_range": list(n_range)},
    })


def test_g_trials_count_violations_and_keep_the_first_witness(monkeypatch):
    """No functional violates the subcomplex inequality (see ``G_TRIALS``), so
    a check that fails every trial but the first stands in for one."""
    points, margins = [], []
    check = oracle.check_g_inequality

    def failing(spec, region, dcx):
        res = check(spec, region, dcx)
        points.append(region.points.tolist())
        margins.append(res.margin)
        return dataclasses.replace(res, passed=len(points) == 1)

    monkeypatch.setattr(oracle, "check_g_inequality", failing)
    report = run_g_trials(FunctionalSpec("FE"), 5, seed=3)
    assert len(points) == 5
    assert report.violations == 4 and report.witness == points[1]
    assert report.notes == {"min_margin": min(margins), "n_range": [5, 8]}


def test_delaunay_appears_exactly_once():
    rng = np.random.default_rng(23)
    for _ in range(8):
        pts = rng.uniform(size=(7, 2))
        tris = enumerate_triangulations_2d(pts)
        dcells = frozenset(delaunay_2d(pts).cells)
        assert sum(frozenset(cx.cells) == dcells for cx in tris) == 1


def test_min_sum_f5_is_delaunay():
    rng = np.random.default_rng(31)
    for _ in range(8):
        pts = rng.uniform(size=(7, 2)) * 2
        best, _, _ = min_sum_triangulation(enumerate_triangulations_2d(pts), FunctionalSpec("F5"))
        assert sorted(best.cells) == sorted(delaunay_2d(pts).cells)


def test_min_sum_fe_is_delaunay():
    rng = np.random.default_rng(37)
    for _ in range(8):
        pts = rng.uniform(size=(6, 2)) * 2
        best, _, _ = min_sum_triangulation(enumerate_triangulations_2d(pts), FunctionalSpec("FE"))
        assert sorted(best.cells) == sorted(delaunay_2d(pts).cells)


def test_min_sum_area_all_tie():
    rng = np.random.default_rng(41)
    pts = rng.uniform(size=(6, 2))
    tris = enumerate_triangulations_2d(pts)
    _, _, ties = min_sum_triangulation(tris, FunctionalSpec("AREA"))
    assert ties == len(tris)


def test_fe_quadrature_345():
    assert fe_quadrature(TRI_345, 64) == pytest.approx(25.0, abs=1e-3)
    assert fe_quadrature(TRI_345, 256) == pytest.approx(25.0, abs=1e-6)


def test_fe_quadrature_matches_closed_form_random():
    rng = np.random.default_rng(2)
    for _ in range(100):
        tri = rng.normal(scale=2.0, size=(3, 2))
        want = fe_lifted_volume(tri)
        assert fe_quadrature(tri, 256) == pytest.approx(want, rel=1e-6, abs=1e-12)


def test_fe_quadrature_3d():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tet = rng.normal(size=(4, 3))
        want = fe_lifted_volume(tet)
        assert fe_quadrature(tet, 8) == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_paraboloid_gap_nonnegative():
    # the affine interpolant of a convex function dominates it on the simplex
    from delone.oracle import _affine_interpolant, _paraboloid_gap

    rng = np.random.default_rng(5)
    for d in (2, 3):
        for _ in range(30):
            simplex = rng.normal(scale=3.0, size=(d + 1, d))
            alpha, beta = _affine_interpolant(simplex)
            lam = rng.dirichlet(np.ones(d + 1), size=50)
            xs = lam @ simplex
            assert (_paraboloid_gap(alpha, beta, xs) >= -1e-12).all()


def test_min_sum_matches_flip_checker_optimality():
    # finite-set optimality: Delaunay minimizes for every F accepted by the
    # flip checker on these instances
    rng = np.random.default_rng(6)
    specs = [FunctionalSpec("F1"), FunctionalSpec("F5"), FunctionalSpec("FE")]
    for _ in range(5):
        pts = rng.uniform(size=(6, 2)) * 2
        tris = enumerate_triangulations_2d(pts)
        dsum = {str(s): complex_sum(s, tris[0]) for s in specs}
        for cx in tris:
            for s in specs:
                assert dsum[str(s)] <= complex_sum(s, cx) + 1e-9
