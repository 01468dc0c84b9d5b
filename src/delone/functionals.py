"""Simplex functionals and the empirical class-membership checkers.

Kinds (triangle edge lengths a, b, c; circumradius rho; area/volume A):

  F1 = rho^c1                  F2 = rho^c2 * A        F3 = -inradius
  F4 = (a^2+b^2+c^2) / A       F5 = (a^2+b^2+c^2) * A
  F6 = |centroid - circumcenter|^2 * A
  FR = Vol * sum of squared edge lengths (any d)
  FE = volume between the lifted-vertex facet and the paraboloid
  AREA = d-dimensional measure

FR = (d+1)(d+2) * FE holds identically; both evaluate it independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .delaunay import radon_two_triangulations, restrict_delaunay
from .errors import DegenerateSimplexError, SamplerError
from .generators import stream_rng
from .geometry import circumcenters, measures, orientation

_PLANAR_ONLY = {"F3", "F4", "F5", "F6"}
_KINDS = {"F1", "F2", "F3", "F4", "F5", "F6", "FR", "FE", "AREA"}


@dataclass(frozen=True)
class FunctionalSpec:
    kind: str
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown functional kind {self.kind!r}")
        if self.c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.c2 < 1:
            raise ValueError("c2 must be at least 1")

    def admissible_dim(self, d: int) -> bool:
        if d == 2:
            return True
        return d == 3 and self.kind not in _PLANAR_ONLY

    @classmethod
    def parse(cls, text: str) -> "FunctionalSpec":
        """Grammar: "F1:c1=1.5", "F2:c2=2", "F5", "FR", "AREA", ..."""
        head, _, tail = text.strip().partition(":")
        kwargs = {}
        if tail:
            for item in tail.split(","):
                key, _, val = item.partition("=")
                if key not in ("c1", "c2"):
                    raise ValueError(f"unknown functional parameter {key!r}")
                kwargs[key] = float(val)
        return cls(kind=head.upper(), **kwargs)

    def __str__(self):
        if self.kind == "F1":
            return f"F1:c1={self.c1!r}"
        if self.kind == "F2":
            return f"F2:c2={self.c2!r}"
        return self.kind


# ---------------------------------------------------------------------------
# batched evaluation


def _batch_circumradius(coords: np.ndarray) -> np.ndarray:
    centers = circumcenters(coords)
    return np.linalg.norm(coords[:, 0, :] - centers, axis=1)


def _batch_sq_edge_sum(coords: np.ndarray) -> np.ndarray:
    n = coords.shape[1]
    out = np.zeros(len(coords))
    for i in range(n):
        for j in range(i + 1, n):
            out += ((coords[:, i, :] - coords[:, j, :]) ** 2).sum(axis=1)
    return out


def fe_lifted_volume_batch(coords: np.ndarray) -> np.ndarray:
    """Closed form for the volume between the simplex's lifted-vertex facet
    and the paraboloid graph: Vol * [(d+1) sum|v|^2 - |sum v|^2] / ((d+1)(d+2)).
    """
    d = coords.shape[2]
    vol = measures(coords)
    sq = (coords**2).sum(axis=(1, 2))
    tot = coords.sum(axis=1)
    tot_sq = (tot**2).sum(axis=1)
    return vol * ((d + 1) * sq - tot_sq) / ((d + 1) * (d + 2))


def fe_lifted_volume(simplex) -> float:
    coords = np.asarray(simplex, dtype=float)[None, :, :]
    if orientation(coords[0]) == 0:
        raise DegenerateSimplexError("FE is undefined for degenerate simplices")
    return float(fe_lifted_volume_batch(coords)[0])


def eval_batch(spec: FunctionalSpec, coords) -> np.ndarray:
    """Evaluate the functional on an (m, d+1, d) stack of simplices."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim == 2:
        coords = coords[None, :, :]
    d = coords.shape[2]
    if not spec.admissible_dim(d):
        raise ValueError(f"{spec} is not defined in dimension {d}")
    kind = spec.kind
    if kind == "AREA":
        return measures(coords)
    if kind == "F1":
        return _batch_circumradius(coords) ** spec.c1
    if kind == "F2":
        return _batch_circumradius(coords) ** spec.c2 * measures(coords)
    if kind == "FR":
        return measures(coords) * _batch_sq_edge_sum(coords)
    if kind == "FE":
        return fe_lifted_volume_batch(coords)
    area = measures(coords)
    if kind == "F3":
        a = np.linalg.norm(coords[:, 1, :] - coords[:, 2, :], axis=1)
        b = np.linalg.norm(coords[:, 0, :] - coords[:, 2, :], axis=1)
        c = np.linalg.norm(coords[:, 0, :] - coords[:, 1, :], axis=1)
        return -2.0 * area / (a + b + c)
    if kind == "F4":
        with np.errstate(divide="ignore"):
            return _batch_sq_edge_sum(coords) / area
    if kind == "F5":
        return _batch_sq_edge_sum(coords) * area
    if kind == "F6":
        centers = circumcenters(coords)
        cent = coords.mean(axis=1)
        return ((cent - centers) ** 2).sum(axis=1) * area
    raise AssertionError(kind)


def eval_functional(spec: FunctionalSpec, simplex) -> float:
    """Evaluate the functional on one simplex; raises on degenerate input
    where the kind needs an inscribed or circumscribed sphere."""
    coords = np.asarray(simplex, dtype=float)
    needs_nondegenerate = ("F1", "F2", "F3", "F4", "F6")
    if spec.kind in needs_nondegenerate and orientation(coords) == 0:
        raise DegenerateSimplexError(f"{spec.kind} is undefined on degenerate simplices")
    return float(eval_batch(spec, coords)[0])


def complex_sum(spec: FunctionalSpec, cx) -> float:
    if not cx.n_cells:
        return 0.0
    return float(eval_batch(spec, cx.points[cx.cells_array()]).sum())


def _paired_sums(spec: FunctionalSpec, a, b) -> tuple:
    """``(complex_sum(spec, a), complex_sum(spec, b))`` from one ``eval_batch``
    call over both complexes' cells; each row's value and each side's
    summation order are those of two ``complex_sum`` calls."""
    vals = eval_batch(spec, np.concatenate([a.points[a.cells_array()],
                                            b.points[b.cells_array()]]))
    return float(vals[:a.n_cells].sum()), float(vals[a.n_cells:].sum())


# ---------------------------------------------------------------------------
# class-membership checkers


@dataclass
class CheckResult:
    passed: bool
    margin: float  # right-hand sum minus left-hand sum (>= -tol when passed)
    sum_delaunay: float
    sum_other: float


@dataclass
class ClassReport:
    functional: str
    trials: int
    violations: int
    witness: list | None = None
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_dict(self) -> dict:
        return {
            "functional": self.functional,
            "trials": self.trials,
            "violations": self.violations,
            "passed": self.passed,
            "witness": self.witness,
            "notes": self.notes,
        }


def inequality_tolerance(left, right):
    """The one slack of every check that the Delaunay side is at most the
    other side; of floats or of NumPy arrays."""
    return (abs(left) + abs(right) + 1.0) * 1e-9


def _check(sum_d: float, sum_t: float) -> CheckResult:
    """The inequality's one verdict on a Delaunay sum and the other sum."""
    passed = sum_d <= sum_t + inequality_tolerance(sum_d, sum_t)
    return CheckResult(bool(passed), float(sum_t - sum_d), sum_d, sum_t)


def check_flip_inequality(spec: FunctionalSpec, dcx, tcx) -> CheckResult:
    """The flip inequality on a pair from ``radon_two_triangulations``: the sum
    over the Delaunay triangulation ``dcx`` must not exceed that over ``tcx``."""
    return _check(*_paired_sums(spec, dcx, tcx))


def check_g_inequality(spec: FunctionalSpec, t_prime, dcx) -> CheckResult:
    """The subcomplex inequality: sum over the restriction of ``dcx``, the
    Delaunay triangulation of Y, to the underlying space of T' must not
    exceed the sum over T'.  Raises ``ValueError`` when T' is not a complex
    on the points of ``dcx``."""
    return _check(*_paired_sums(spec, restrict_delaunay(dcx, t_prime), t_prime))


def sample_admissible_simplex(rng, r: float, q: float, d: int):
    """A random d-simplex with all edges >= 2r and circumradius <= q, sampled
    by placing vertices on a circumscribed sphere and rejecting, 4000 tries."""
    rho_min = 2 * r / math.sqrt(3) if d == 2 else 2 * r * math.sqrt(3.0 / 8.0)
    if rho_min > q:
        raise SamplerError(f"no admissible simplex: need circumradius >= {rho_min} > q={q}")
    for _ in range(4000):
        rho = rng.uniform(rho_min, q)
        dirs = rng.normal(size=(d + 1, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        simplex = rho * dirs
        ok = True
        for i in range(d + 1):
            for j in range(i + 1, d + 1):
                if np.linalg.norm(simplex[i] - simplex[j]) < 2 * r:
                    ok = False
                    break
            if not ok:
                break
        if ok and orientation(simplex) != 0:
            return simplex
    raise SamplerError("admissible-simplex sampler starved (r too close to q)")


def check_ecal_bounds(
    spec: FunctionalSpec, r: float, q: float, d: int, samples: int, seed: int = 0
):
    """Observed min and max of the functional over random admissible
    simplices (edges >= 2r, circumradius <= q)."""
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = stream_rng(seed, "ecal")
    stack = np.stack(
        [sample_admissible_simplex(rng, r, q, d) for _ in range(samples)]
    )
    vals = eval_batch(spec, stack)
    if not np.isfinite(vals).all():
        raise SamplerError("functional returned a non-finite value on an admissible simplex")
    return float(vals.min()), float(vals.max())


# ---------------------------------------------------------------------------
# randomized trial batteries


def random_radon_pair(rng, d: int):
    """d+2 generic points, none inside the hull of the others, drawn until
    ``radon_two_triangulations`` accepts them: (points, (Delaunay, other))."""
    if d not in (2, 3):
        raise ValueError(f"Radon pairs are drawn in R^2 or R^3, not R^{d}")
    while True:
        pts = rng.uniform(size=(d + 2, d))
        try:
            return pts, radon_two_triangulations(pts)
        except ValueError:
            continue


def run_flip_trials(
    spec: FunctionalSpec, trials: int, seed: int = 0, d: int = 2, start: int = 0
) -> ClassReport:
    """Seeded flip-inequality battery over trials ``start .. start + trials - 1``.
    Each trial draws from its own named stream, so trial i is the same
    whether it runs alone or within a longer range."""
    if trials < 1:
        raise ValueError("trials must be positive")
    draws = (random_radon_pair(stream_rng(seed, f"flip-trial-{i}"), d)
             for i in range(start, start + trials))
    results = ((pts, check_flip_inequality(spec, *pair)) for pts, pair in draws)
    return _trial_report(spec, trials, results, d=d)


def _trial_report(spec: FunctionalSpec, trials: int, results, **notes) -> ClassReport:
    """A battery's report from its (points, CheckResult) per trial, in draw
    order: the violations, the first violation's points as the witness, and
    the smallest margin as the first note, before ``notes``."""
    violations, witness, worst = 0, None, math.inf
    for pts, res in results:
        worst = min(worst, res.margin)
        if not res.passed:
            violations += 1
            if witness is None:
                witness = pts.tolist()
    return ClassReport(
        functional=str(spec),
        trials=trials,
        violations=violations,
        witness=witness,
        notes={"min_margin": worst, **notes},
    )
