import math

import numpy as np
import pytest

from delone.delaunay import delaunay_2d
from delone.errors import NonGenericError
from delone.functionals import FunctionalSpec, complex_sum, fe_lifted_volume
from delone.oracle import (
    enumerate_triangulations_2d,
    fe_quadrature,
    min_sum_triangulation,
    noncrossing_triangulations,
)
from delone.geometry import orient2d
from delone.oracle import _facet_map
from delone.triangulation import build_complex

TRI_345 = [(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)]


def convex_ngon(n, seed=0, wobble=1e-2):
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * math.pi, n))
    radius = 1.0 + rng.uniform(-wobble, wobble, n)
    return np.c_[radius * np.cos(ang), radius * np.sin(ang)]


def test_convex_quad_two_triangulations():
    pts = [(0.0, 0.0), (3.0, 0.0), (3.2, 1.1), (0.0, 1.0)]
    assert len(enumerate_triangulations_2d(pts)) == 2


def test_convex_pentagon_catalan():
    assert len(enumerate_triangulations_2d(convex_ngon(5, seed=3))) == 5


def test_convex_hexagon_catalan():
    assert len(enumerate_triangulations_2d(convex_ngon(6, seed=4))) == 14


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


def test_enumeration_matches_scalar_traversal():
    rng = np.random.default_rng(43)
    generic = collinear = 0
    for n in range(4, 10):
        for _ in range(6):
            uniform = rng.uniform(size=(n, 2)) * 3
            # dyadic points, the last the exact midpoint of two others
            dyadic = rng.integers(0, 64, size=(n, 2)) / 8
            i, j = rng.choice(n - 1, size=2, replace=False)
            dyadic[-1] = (dyadic[i] + dyadic[j]) / 2
            for pts in (uniform, dyadic):
                if len(np.unique(pts, axis=0)) < n:
                    continue
                want = enumeration_outcome(scalar_enumeration, pts)
                got = enumeration_outcome(
                    lambda p: [cx.cells for cx in enumerate_triangulations_2d(p)], pts)
                assert got == want
                if isinstance(want, list):
                    generic += pts is uniform
                    collinear += pts is dyadic
    assert generic > 30 and collinear > 10


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
