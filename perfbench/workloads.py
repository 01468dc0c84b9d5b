"""The four benchmark workloads, their output checks and their metrics.

A workload is a sequence of passes.  Pass ``i`` of a run with seed ``s``
draws its inputs from (s, i), so no two passes of one run share an input and
a result cache cannot turn later passes into lookups.  Each pass is a list of
operations: one CLI stage through ``delone.cli.main`` or one library trial.
Only the call into ``delone`` is timed; checking and hashing its output
happen after the clock stops and use only numpy and scipy, never ``delone``.

An operation fails if it raises, if ``cli.main`` exits non-zero, if its
verdict is false, or if its output digest differs from the one recorded in
``reference.json``.  A CLI stage that exits 3 (its summary says ok=false)
still has its outputs checked and hashed, and its verdict is false.  Every
failure makes the run incorrect.  The one exception is the known ``compare``
defect (see ``is_known_defect``): it is not a failure of the benchmark but a
documented outcome of its input, so it is counted on its own, reported with
every run and never avoided.  Nothing is retried or skipped.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

from delone import cli, delaunay, density, errors, functionals, generators, geometry
from delone import oracle, triangulation

from tracer import Tracer

# Input sizes.  "full" is what the benchmark measures; "tiny" is the warm-up
# pass of every run and the size the self-test runs at.
SIZES = {
    "full": {
        "lattice_W": 24.0, "poisson_W": 26.0, "reverse_flips": 50,
        "lattice3d_W": 7.0, "cube_W": 6.0, "counts3d": True,
        "prefix_W": 10.0, "phases": 3, "prefix_windows": 3,
        "battery_cycles": 125,  # 1000 trials: ten lie beyond a block's p99
    },
    "tiny": {
        # a 3D window must have W >= 7 before `counts` has an alpha grid
        "lattice_W": 12.0, "poisson_W": 13.0, "reverse_flips": 5,
        "lattice3d_W": 4.0, "cube_W": 4.0, "counts3d": False,
        "prefix_W": 9.0, "phases": 2, "prefix_windows": 1,
        "battery_cycles": 1,
    },
}

POISSON_r, POISSON_R = 0.5, 1.5  # window2d's Poisson-maximal window
PREFIX_r, PREFIX_R = 0.4, 1.5  # criterion 11's window
# one battery cycle; three quarters of the trials are the fast flip trials,
# so the median trial is a flip trial and p99 lies in the slow tail
BATTERY_CYCLE = ("flip2", "flip3") * 3 + ("subcomplex", "legalize")
MIN_PASSES = 3
WARMUP_INDEX = 999_999  # input index of the warm-up pass; timed passes count from 0
RTOL = 1e-9

def sub_seed(seed: int, index: int, salt: int = 0) -> int:
    """Seed of input ``index`` of a run; distinct runs and passes never
    share one."""
    return (seed * 1_000_003 + index) * 7 + salt


def _cpu() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


@dataclass
class Op:
    name: str  # e.g. "lattice.tri", "legalize"
    group: str  # digest group: the stage name, or the trial kind
    seconds: float  # raw, without kernel runs
    cpu_s: float  # raw, without kernel runs
    factor: float  # speed factor: seconds * factor is reference-speed time
    cpu_factor: float  # the same for cpu_s, from the kernel's CPU time
    points: int = 0
    error: str | None = None  # exception or non-zero exit, if any
    verdict: bool = False
    digest: str = ""
    digest_ok: bool = True
    detail: str | None = None  # why a check failed

    @property
    def ok(self) -> bool:
        return self.error is None and self.verdict and self.digest_ok

    @property
    def ref_s(self) -> float:
        return self.seconds * self.factor


@dataclass
class Pass:
    index: int
    ops: list = field(default_factory=list)
    points: int = 0

    @property
    def raw_wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def wall_s(self) -> float:
        """Reference-speed wall time of the pass's operations."""
        return sum(op.ref_s for op in self.ops)

    @property
    def raw_cpu_s(self) -> float:
        return sum(op.cpu_s for op in self.ops)

    @property
    def cpu_s(self) -> float:
        return sum(op.cpu_s * op.cpu_factor for op in self.ops)

    def group_digests(self) -> dict:
        groups: dict = {}
        for op in self.ops:
            groups.setdefault(op.group, []).append(op.digest if op.error is None else None)
        return {g: (None if None in ds else _hash(*ds)) for g, ds in groups.items()}


class Context:
    def __init__(self, seed, size, corrupt, speed):
        self.seed = seed
        self.sizes = SIZES[size]
        # one injected fault, for the self-test: "cell" drops one cell from
        # the first checked output, "verdict" makes the first CLI stage
        # report ok=false, "raise" makes the first operation raise
        self.corrupt = corrupt
        self.speed = speed

    def take_corruption(self, kind) -> bool:
        if self.corrupt == kind:
            self.corrupt = None
            return True
        return False


# ---------------------------------------------------------------------------
# operations


def _injected_failure():
    raise RuntimeError("injected failure")


def _timed(ctx, call):
    """Run ``call``; return (result, error, wall s, cpu s, wall and cpu speed
    factors), times without the kernel runs that interrupted it."""
    if ctx.take_corruption("raise"):
        call = _injected_failure
    c0 = _cpu()
    t0 = time.perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failed operation is data, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    cpu = _cpu() - c0
    kernel, kernel_cpu, factor, cpu_factor = ctx.speed.over(t0, t1)
    return result, error, t1 - t0 - kernel, cpu - kernel_cpu, factor, cpu_factor


def _verdict(check, *args):
    """Run an output check; a check that cannot read the output is a false
    verdict.  Returns (verdict, digest parts, detail)."""
    try:
        verdict, parts = check(*args)
        return bool(verdict), parts, None
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, (), f"check raised {type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _reporting_not_ok(command):
    """While active, ``delone <command>`` reports ok=false, so ``cli.main``
    exits 3 (the self-test's injected false verdict)."""
    attr = f"cmd_{command}"
    original = getattr(cli, attr)

    def not_ok(args):
        summary = original(args)
        summary["ok"] = False
        return summary

    setattr(cli, attr, not_ok)
    try:
        yield
    finally:
        setattr(cli, attr, original)


@contextlib.contextmanager
def _raising_keyerror(command):
    """While active, ``delone <command>`` raises a KeyError before it starts
    (the self-test's failure that looks like the known defect but is not)."""
    attr = f"cmd_{command}"
    original = getattr(cli, attr)

    def raising(args):
        raise KeyError("injected failure")

    setattr(cli, attr, raising)
    try:
        yield
    finally:
        setattr(cli, attr, original)


@contextlib.contextmanager
def _watching_comparison(origins):
    """While active, an exception leaving
    ``density.delaunay_minimality_comparison`` appends "<type> in
    <file>:<function>" of the frame that raised it to ``origins``.
    ``cli.main`` turns exceptions into exit 1, so the origin is taken here.
    The function is looked up on the module at call time, so the wrapper
    reaches it."""
    original = density.delaunay_minimality_comparison

    def watched(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except Exception as exc:
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            qualname = getattr(code, "co_qualname", code.co_name)
            where = f"{os.path.basename(code.co_filename)}:{qualname}"
            origins.append(f"{type(exc).__name__} in {where}")
            raise

    density.delaunay_minimality_comparison = watched
    try:
        yield
    finally:
        density.delaunay_minimality_comparison = original


def cli_op(ctx, pas, name, argv, outputs, check):
    """One CLI stage.  The verdict is exit code 0, a summary without
    ok=false, and ``check(summary, outputs)``; ``outputs`` are the files the
    stage writes, hashed into the digest.  Exit 3 means the stage finished
    with ok=false: its outputs are checked like any other, its verdict is
    false."""
    out, err = io.StringIO(), io.StringIO()
    falsify = ctx.take_corruption("verdict")
    compare = argv[0] == "compare"
    # a KeyError from outside the known defect, in the stage that has it
    keyerror = compare and ctx.take_corruption("keyerror")
    origins: list = []

    def call():
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            if falsify:
                stack.enter_context(_reporting_not_ok(argv[0]))
            if keyerror:
                stack.enter_context(_raising_keyerror(argv[0]))
            if compare:
                stack.enter_context(_watching_comparison(origins))
            return cli.main(argv)

    rc, error, wall, cpu, factor, cpu_factor = _timed(ctx, call)
    if error is None and rc not in (0, 3):
        error = f"exit {rc}: {err.getvalue().strip()}"
        if origins:
            error += f" [{origins[-1]}]"
    op = Op(name=name, group=name, seconds=wall, cpu_s=cpu, factor=factor,
            cpu_factor=cpu_factor, error=error)
    if error is None:
        if name.endswith(".tri") and ctx.take_corruption("cell"):
            _drop_one_cell(outputs[0])

        def checked(text, paths):
            summary = json.loads(text.strip().splitlines()[-1])
            blobs = []
            for path in paths:
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            verdict = rc == 0 and summary.get("ok", True) is True and check(summary, paths)
            return verdict, (text, *blobs)

        op.verdict, parts, op.detail = _verdict(checked, out.getvalue(), outputs)
        if rc == 3 and op.detail is None:
            op.detail = "exit 3: summary ok=false"
        op.digest = _hash(*parts)
    pas.ops.append(op)
    return op


def lib_op(ctx, pas, name, group, call, check, points=0):
    """One library call.  ``check(result)`` returns (verdict, digest parts).
    Returns the operation and the call's result."""
    result, error, wall, cpu, factor, cpu_factor = _timed(ctx, call)
    op = Op(name=name, group=group, seconds=wall, cpu_s=cpu, factor=factor,
            cpu_factor=cpu_factor, points=points, error=error)
    if error is None:
        op.verdict, parts, op.detail = _verdict(check, result)
        op.digest = _hash(*parts)
    pas.ops.append(op)
    return op, result


def _drop_one_cell(path):
    with open(path) as fh:
        data = json.load(fh)
    data["cells"] = data["cells"][:-1]
    with open(path, "w") as fh:
        json.dump(data, fh)


# ---------------------------------------------------------------------------
# output checks (numpy and scipy only)


def covers_hull(points, cells, all_used=True) -> bool:
    """The cells tile the convex hull of their vertices: measures sum to the
    hull volume, and (if ``all_used``) every point is a vertex."""
    points = np.asarray(points, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    if len(cells) == 0:
        return False
    used = np.unique(cells)
    if all_used and len(used) != len(points):
        return False
    coords = points[cells]
    d = points.shape[1]
    vols = np.abs(np.linalg.det(coords[:, 1:, :] - coords[:, :1, :])) / math.factorial(d)
    hull = ConvexHull(points[used]).volume
    return abs(vols.sum() - hull) <= RTOL * max(hull, 1.0)


def check_complex_file(summary, outputs) -> bool:
    with open(outputs[0]) as fh:
        data = json.load(fh)
    return summary["cells"] == len(data["cells"]) and covers_hull(data["points"], data["cells"])


def grid_len(alpha_min, alpha_max, ratio=1.1) -> int:
    """Length of ``density.geometric_grid(alpha_min, alpha_max, ratio)``."""
    out = [alpha_min]
    while out[-1] * ratio <= alpha_max:
        out.append(out[-1] * ratio)
    return len(out) + (out[-1] < alpha_max)


def check_csv(path, rows, column) -> bool:
    with open(path) as fh:
        table = list(csv.DictReader(fh))
    return len(table) == rows and all(math.isfinite(float(r[column])) for r in table)


def ok_flag(summary, outputs) -> bool:
    return summary["ok"] is True


# ---------------------------------------------------------------------------
# workloads


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def window2d_pass(ctx, index) -> Pass:
    """gen -> tri -> density -> compare -> counts on one jittered lattice
    window and one Poisson-maximal window."""
    sz = ctx.sizes
    pas = Pass(index)
    s = sub_seed(ctx.seed, index)
    windows = (
        ("lattice", sz["lattice_W"],
         ["gen", "lattice", "--d", "2", "--W", str(sz["lattice_W"]), "--jitter",
          "--seed", str(s)]),
        ("poisson", sz["poisson_W"],
         ["gen", "poisson", "--r", str(POISSON_r), "--R", str(POISSON_R),
          "--W", str(sz["poisson_W"]), "--seed", str(s)]),
    )
    for kind, W, gen_argv in windows:
        pts = f"{kind}.pts"
        gen = cli_op(ctx, pas, f"{kind}.gen", gen_argv + ["--out", pts],
                     [pts, pts + ".manifest.json"], ok_flag)
        if gen.error is not None:
            continue
        with open(pts) as fh:
            R = float(fh.readline().split()[2])
            pas.points += sum(1 for _ in fh)
        cli_op(ctx, pas, f"{kind}.tri", ["tri", pts, "--out", f"{kind}.json"],
               [f"{kind}.json"], check_complex_file)
        a_min, a_max = W / 4, W - 2 * R - 1.5
        rows = grid_len(a_min, a_max)
        cli_op(ctx, pas, f"{kind}.density",
               ["density", f"{kind}.json", "--F", "F5", "--alpha-min", _fmt(a_min),
                "--alpha-max", _fmt(a_max), "--center", "1,0",
                "--window-radius", str(W), "--q-bound", repr(R),
                "--out", f"{kind}.density.csv"],
               [f"{kind}.density.csv", f"{kind}.density.csv.manifest.json"],
               lambda summ, outs, rows=rows: check_csv(outs[0], rows, "f_value"))
        # the perturbed triangulation's circumradii stay below 2R, so the
        # grid must end 4R inside the window
        c_min, c_max = W / 4, W - 4 * R
        cli_op(ctx, pas, f"{kind}.compare",
               ["compare", pts, "--F", "F5", "--reverse-flips", str(sz["reverse_flips"]),
                "--seed", str(s), "--alpha-min", _fmt(c_min), "--alpha-max", _fmt(c_max),
                "--out", f"{kind}.compare.csv"],
               [f"{kind}.compare.csv", f"{kind}.compare.csv.manifest.json"], ok_flag)
        cli_op(ctx, pas, f"{kind}.counts", ["counts", pts, "--out", f"{kind}.counts.json"],
               [f"{kind}.counts.json"], ok_flag)
    return pas


def lattice3d_pass(ctx, index) -> Pass:
    """gen lattice --d 3 -> tri -> density (FR) -> counts, then cube3d."""
    sz = ctx.sizes
    pas = Pass(index)
    s = sub_seed(ctx.seed, index)
    W = sz["lattice3d_W"]
    gen = cli_op(ctx, pas, "lattice3d.gen",
                 ["gen", "lattice", "--d", "3", "--W", str(W), "--jitter", "--seed", str(s),
                  "--out", "l3.pts"], ["l3.pts", "l3.pts.manifest.json"], ok_flag)
    if gen.error is None:
        with open("l3.pts") as fh:
            R = float(fh.readline().split()[2])
            pas.points += sum(1 for _ in fh)
        cli_op(ctx, pas, "lattice3d.tri", ["tri", "l3.pts", "--out", "l3.json"],
               ["l3.json"], check_complex_file)
        a_min, a_max = W / 4, W - 2 * R - 0.5
        rows = grid_len(a_min, a_max)
        cli_op(ctx, pas, "lattice3d.density",
               ["density", "l3.json", "--F", "FR", "--alpha-min", _fmt(a_min),
                "--alpha-max", _fmt(a_max), "--window-radius", str(W),
                "--q-bound", repr(R), "--out", "l3.density.csv"],
               ["l3.density.csv", "l3.density.csv.manifest.json"],
               lambda summ, outs, rows=rows: check_csv(outs[0], rows, "f_value"))
        if sz["counts3d"]:
            cli_op(ctx, pas, "lattice3d.counts", ["counts", "l3.pts", "--out", "l3.counts.json"],
                   ["l3.counts.json"], ok_flag)

    def cube_check(summary, outputs):
        with open(outputs[0]) as fh:
            rows = list(csv.DictReader(fh))
        return (summary["ok"] is True and summary["all_seven"] is True
                and len(rows) == summary["interior_cubes"] > 0)

    cli_op(ctx, pas, "cube3d", ["cube3d", "--window", str(sz["cube_W"]), "--out", "cube.csv"],
           ["cube.csv", "cube.csv.manifest.json"], cube_check)
    return pas


def _flip_trial(d, spec, seed, i):
    def call():
        return functionals.run_flip_trials(
            functionals.FunctionalSpec.parse(spec), 1, seed=seed, d=d, start=i)

    def check(report):
        return report.violations == 0, (report.violations, report.notes["min_margin"])

    return call, check, d + 2


def _subcomplex_trial(k, seed):
    n = 5 + k % 4

    def call():
        return oracle.run_g_trials(
            functionals.FunctionalSpec.parse("FE"), 1, n_range=(n, n), seed=seed)

    def check(report):
        return report.violations == 0, (report.violations, report.notes["min_margin"])

    return call, check, n


def _legalize_trial(ctx, rng, k):
    """Criterion 6: scramble a Delaunay triangulation with reverse flips, then
    legalize it; the result must be the Delaunay cell set again."""
    n = 10 + k % 21
    pts = rng.uniform(size=(n, 2)) * 6.0
    wanted = 1 + k % 11
    picks = rng.integers(0, 1 << 30, size=200)

    def call():
        dt = delaunay.delaunay_2d(pts)
        cx = dt.copy()
        q_before = triangulation.uniform_bound_q(cx)
        flipped = 0
        for pick in picks:
            if flipped >= wanted:
                break
            facets = cx.interior_facets()
            facet = facets[int(pick) % len(facets)]
            try:
                if not triangulation.is_locally_delaunay(cx, facet):
                    continue
                triangulation.reverse_flip(cx, facet)
                flipped += 1
            except errors.GeometryError:
                continue  # not strictly convex or cocircular: pick again
        q_scrambled = triangulation.uniform_bound_q(cx)
        out, records = triangulation.legalize_to_delaunay(cx)
        return dt, out, records, max(q_before, q_scrambled)

    def check(result):
        dt, out, records, q_max = result
        cells = sorted(out.cells)
        if ctx.take_corruption("cell"):
            cells = cells[:-1]
        radii = [(rec.before_max_circumradius, rec.after_max_circumradius) for rec in records]
        coords = out.points[np.asarray(out.cells)]
        q_out = float(_circumradii_2d(coords).max())
        verdict = (
            cells == sorted(dt.cells)
            and all(after <= before + 1e-9 for before, after in radii)
            # another formula than the library's: hull slivers reach radii
            # of 1e4 and more, so only a relative tolerance is meaningful
            and q_out <= q_max * (1 + RTOL)
        )
        return verdict, (cells, radii)

    return call, check, n


def _circumradii_2d(coords):
    a = np.linalg.norm(coords[:, 1] - coords[:, 2], axis=1)
    b = np.linalg.norm(coords[:, 0] - coords[:, 2], axis=1)
    c = np.linalg.norm(coords[:, 0] - coords[:, 1], axis=1)
    u, v = coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]
    area2 = np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    return a * b * c / (2 * area2)


def battery_pass(ctx, index) -> Pass:
    """A block of tiny independent trials, each timed alone.  The sizes of
    the subcomplex and legalization trials cycle through their ranges
    instead of being drawn, so every block holds the same mix of sizes."""
    pas = Pass(index)
    cycles = ctx.sizes["battery_cycles"]
    rng = np.random.default_rng([ctx.seed, index, 6])
    for c in range(cycles):
        k = index * cycles + c  # cycle number in the run
        for j, kind in enumerate(BATTERY_CYCLE):
            i = k * len(BATTERY_CYCLE) + j  # trial number in the run
            if kind == "flip2":
                call, check, pts = _flip_trial(2, "F5", ctx.seed, i)
            elif kind == "flip3":
                call, check, pts = _flip_trial(3, "FR", ctx.seed, i)
            elif kind == "subcomplex":
                call, check, pts = _subcomplex_trial(k, sub_seed(ctx.seed, i, 1))
            else:
                call, check, pts = _legalize_trial(ctx, rng, k)
            lib_op(ctx, pas, kind, kind, call, check, points=pts)
            pas.points += pts
    return pas


def _longest_edge(points, cells) -> float:
    coords = np.asarray(points)[np.asarray(cells)]
    return max(
        float(np.linalg.norm(coords[:, a] - coords[:, b], axis=1).max())
        for a, b in ((0, 1), (1, 2), (0, 2))
    )


def prefix_pass(ctx, index) -> Pass:
    """Criterion 11 on ``prefix_windows`` Poisson windows.  One window's time
    varies by about 13% between inputs, skewed to the slow side; a pass sums
    several so that the median over passes is steady."""
    sz = ctx.sizes
    pas = Pass(index)
    n = sz["prefix_windows"]
    for j in range(n):
        _prefix_window(ctx, pas, sub_seed(ctx.seed, index * n + j), sz["prefix_W"], sz["phases"])
    return pas


def _prefix_window(ctx, pas, s, W, phases):
    """A Poisson window, its unbounded-prefix triangulation, the interior
    Delaunay circumradius bound, and the scan that no window point lies in
    the prefix without being a vertex."""

    def window_check(w):
        close = cKDTree(w.points).query_pairs(2 * PREFIX_r * (1 - 1e-12))
        return w.n_points > 0 and not close, (w.points.tobytes(),)

    op, w = lib_op(ctx, pas, "prefix.window", "prefix.window",
                   lambda: generators.poisson_delone_window(PREFIX_r, PREFIX_R, W, seed=s),
                   window_check)
    if op.error is not None:
        return
    pas.points += w.n_points
    longest = []

    def prefix_check(cx):
        cells = sorted(cx.cells)
        if ctx.take_corruption("cell"):
            cells = cells[:-1]
        longest.append(_longest_edge(cx.points, cells))
        return longest[0] > phases and covers_hull(cx.points, cells, all_used=False), (
            cells, longest[0])

    op, cx = lib_op(ctx, pas, "prefix.build", "prefix.build",
                    lambda: triangulation.build_unbounded_prefix(w, phases=phases),
                    prefix_check)
    if op.error is not None:
        return

    op, dt = lib_op(ctx, pas, "prefix.delaunay", "prefix.delaunay",
                    lambda: delaunay.delaunay_2d(w.points),
                    lambda dt: (covers_hull(dt.points, dt.cells), (dt.cells,)))
    if op.error is not None:
        return

    def radii_call():
        interior = density.interior_cell_mask(dt, w.window_radius, 2 * w.R)
        return float(dt.cell_circumradii()[interior].max())

    lib_op(ctx, pas, "prefix.radii", "prefix.radii", radii_call,
           lambda q_interior: (longest[0] > q_interior, (q_interior,)))

    def scan_call():
        cells = np.asarray(cx.cells)
        used = set(np.unique(cells).tolist())
        coords = cx.points[cells]
        lo, hi = coords.min(axis=1), coords.max(axis=1)
        hits = []
        for idx in range(len(cx.points)):
            if idx in used:
                continue
            p = cx.points[idx]
            for ci in np.nonzero(((lo <= p) & (p <= hi)).all(axis=1))[0]:
                if geometry.point_in_simplex(coords[ci], p):
                    hits.append((idx, int(ci)))
        return hits

    lib_op(ctx, pas, "prefix.scan", "prefix.scan", scan_call, lambda hits: (not hits, (hits,)))


PASSES = {
    "window2d": window2d_pass,
    "battery": battery_pass,
    "lattice3d": lattice3d_pass,
    "prefix": prefix_pass,
}


# ---------------------------------------------------------------------------
# a run


def is_known_defect(op) -> bool:
    """The reverse-flip bookkeeping KeyError of ``delone compare``: a
    KeyError raised in the body of ``density.delaunay_minimality_comparison``
    (or a generator expression in it), not in a function it calls
    (reference.json, "known_defects").  A KeyError from anywhere else is a
    failure."""
    where = "[KeyError in density.py:delaunay_minimality_comparison"
    return (op.name.endswith(".compare") and op.error is not None
            and op.error.startswith("exit 1: ") and op.error.endswith("]")
            and (op.error.endswith(where + "]") or where + ".<locals>." in op.error))


def apply_reference(pas, expected: dict):
    """Mark the ops of every digest group that differs from ``expected``.
    Groups recorded as null (an op raised when recorded) are not compared."""
    got = pas.group_digests()
    bad = {g for g, want in expected.items() if want is not None and got.get(g) not in (None, want)}
    for op in pas.ops:
        if op.group in bad:
            op.digest_ok = False


def run(workload, seed, seconds, trace, size, corrupt, expected, speed, e2e_names,
        layer_names, spans_path=None) -> dict:
    """Warm up at tiny size, then time passes for ``seconds``; with ``trace``
    time untraced passes of input 0 for half of ``seconds``, then one traced
    pass of the same input.  ``expected`` holds the recorded pass-0 digests,
    or None; ``speed`` is the process's active ``Speed``."""
    make = PASSES[workload]
    warm = make(Context(seed, "tiny", None, speed), WARMUP_INDEX)
    ctx = Context(seed, size, corrupt, speed)
    budget = seconds / 2 if trace else seconds
    need = 1 if trace else MIN_PASSES
    passes = []
    start = time.perf_counter()
    while True:
        pas = make(ctx, 0 if trace else len(passes))
        if pas.index == 0 and expected:
            apply_reference(pas, expected)
        passes.append(pas)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.raw_wall_s for p in passes)
        if len(passes) >= need and elapsed + typical > budget:
            break

    traced = None
    if trace:
        tracer = Tracer()
        tracer.install()
        speed.listener = tracer.absorb
        try:
            traced = make(ctx, 0)
        finally:
            speed.listener = None
            tracer.uninstall()
        # tracing must not change a single output byte
        apply_reference(traced, passes[0].group_digests())
        if spans_path:
            tracer.write_spans(spans_path)

    ops = [op for p in [warm, *passes] + ([traced] if traced else []) for op in p.ops]
    not_ok = [op for op in ops if not op.ok]
    result = {
        "attempted": len(ops),
        "failed": sum(not is_known_defect(op) for op in not_ok),
        "known_defect": sum(is_known_defect(op) for op in not_ok),
        "failures": [
            {"op": op.name, "error": op.error, "verdict": op.verdict,
             "digest_ok": op.digest_ok, "detail": op.detail,
             "known_defect": is_known_defect(op)}
            for op in not_ok
        ],
        "passes": [
            {"index": p.index, "wall_s": p.wall_s, "raw_wall_s": p.raw_wall_s,
             "cpu_s": p.cpu_s, "raw_cpu_s": p.raw_cpu_s,
             "speed_factor": p.wall_s / p.raw_wall_s, "points": p.points,
             "ops": len(p.ops),
             "raw_op_s": [[op.name, op.seconds, op.factor] for op in p.ops]}
            for p in passes
        ],
        "pass0_digests": passes[0].group_digests(),
        "digests_checked": bool(expected),
        "raw": {
            "wall_s": statistics.median(p.raw_wall_s for p in passes),
            "cpu_s": statistics.median(p.raw_cpu_s for p in passes),
        },
    }
    if trace:
        untraced = statistics.median(p.wall_s for p in passes)
        result["traced_wall_s"] = traced.wall_s
        result["metrics"] = layer_metrics(layer_names, tracer.stats(),
                                          traced.wall_s / traced.raw_wall_s,
                                          traced.wall_s / untraced - 1.0)
    else:
        result["metrics"] = e2e_metrics(e2e_names, passes)
    return result


def e2e_metrics(names, passes) -> dict:
    """Timing metrics are taken per pass, at reference speed, and reported
    as the median over passes."""

    def per_pass(f):
        return statistics.median(f(p) for p in passes)

    def latency(p, q):
        return float(np.percentile([op.ref_s for op in p.ops], q)) * 1e3

    values = {
        "wall_s": per_pass(lambda p: p.wall_s),
        "cpu_s": per_pass(lambda p: p.cpu_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points_per_s": per_pass(lambda p: p.points / p.wall_s),
        "trials_per_s": per_pass(lambda p: len(p.ops) / p.wall_s),
        "trial_p50_ms": per_pass(lambda p: latency(p, 50)),
        "trial_p99_ms": per_pass(lambda p: latency(p, 99)),
    }
    return {name: values[name] for name in names if name in values}


PERTURB = "density.perturb_by_reverse_flips"
SIZE_STATS = ("points", "cells", "triangulations", "flips", "simplices")


def layer_metrics(names, stats, factor, overhead) -> dict:
    """Per-layer metrics from the tracer's statistics.  ``<function>.<stat>``
    reads one of calls, self_s, total_s, raised or a size count; a few
    names are ratios defined here.  Times are scaled by the traced pass's
    speed ``factor``."""
    fns, by_caller = stats["functions"], stats["by_caller"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0, "size": 0}

    def fn(name):
        return fns.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    def from_perturb(callee):
        return by_caller.get(f"{callee}<-{PERTURB}", [0, 0])

    out = {}
    for name in names:
        if name == "trace.overhead_frac":
            value = overhead
        elif name == "functionals.radon_calls_per_flip_trial":
            value = ratio(fn("delaunay.radon_two_triangulations")["calls"],
                          fn("functionals.check_flip_inequality")["calls"])
        elif name == f"{PERTURB}.flip_yield":
            calls, raised = from_perturb("triangulation.reverse_flip")
            value = ratio(calls - raised, from_perturb("triangulation.is_locally_delaunay")[0])
        elif name == f"{PERTURB}.swallowed":
            value = sum(raised for key, (_, raised) in by_caller.items()
                        if key.endswith(f"<-{PERTURB}"))
        else:
            function, stat = name.rsplit(".", 1)
            e = fn(function)
            if stat == "us_per_point":
                value = ratio(e["total_s"], e["size"]) * 1e6 * factor
            elif stat in SIZE_STATS:
                value = e["size"]
            elif stat.endswith("_s"):
                value = e[stat] * factor
            else:
                value = e[stat]
        out[name] = value
    return out
