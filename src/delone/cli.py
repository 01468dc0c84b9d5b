"""Command line interface: reproducible experiments with CSV/JSON outputs.

Every subcommand is deterministic given its parameters and seed; a manifest
JSON capturing them is written next to each data file.  Errors exit with
code 1 and a single-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import density as density_mod
from . import functionals as fun
from .delaunay import delaunay_of
from .generators import (
    PointSetWindow,
    StripConfig,
    compatible_isoceles,
    distorted_cubic_window,
    lattice_window,
    poisson_delone_window,
    strip_block_triangulation,
    verify_delone_params,
)
from .oracle import enumerate_triangulations_2d, min_sum_triangulation
from .triangulation import TriangulationComplex, legalize_to_delaunay

SCHEMA = 1


def worker_count(tasks: int) -> int:
    """``DELONE_THREADS`` (default 1) capped at the CPU count and at ``tasks``;
    raises ``ValueError`` unless the variable is a positive integer."""
    value = os.environ.get("DELONE_THREADS", "1")
    wanted = int(value) if value.strip().isdecimal() else 0
    if wanted < 1:
        raise ValueError(f"DELONE_THREADS must be a positive integer, not {value!r}")
    return max(1, min(wanted, os.cpu_count() or 1, tasks))


def _trial_chunks(trials: int, workers: int) -> list:
    """(start, count) of each worker's consecutive share of ``trials``."""
    if trials < 1:
        raise ValueError("trials must be positive")
    chunk = math.ceil(trials / workers)
    return [(start, min(chunk, trials - start)) for start in range(0, trials, chunk)]


def _write_manifest(path: str, command: str, params: dict):
    clean = {
        k: v
        for k, v in params.items()
        if isinstance(v, (int, float, str, bool, list, type(None)))
    }
    manifest = {"schema": SCHEMA, "command": command, "params": clean}
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(float(x)) if isinstance(x, float) else str(int(x))
                    if isinstance(x, (int, np.integer))
                    else str(x)
                    for x in row
                )
            )
            fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(summary: dict):
    print(json.dumps(summary, sort_keys=True, default=_json_default))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> dict:
    out = args.out or f"{args.kind}.pts"
    if args.kind == "lattice":
        window = lattice_window(args.d, args.W, jitter=args.jitter, seed=args.seed)
    elif args.kind == "cube3d":
        window = distorted_cubic_window(args.W)
    elif args.kind == "poisson":
        window = poisson_delone_window(args.r, args.R, args.W, seed=args.seed)
    elif args.kind == "strips":
        delta, top, L = compatible_isoceles(args.a, args.phi, args.c, args.psi)
        sizes = density_mod.choose_block_sizes(
            delta, top, fun.FunctionalSpec.parse(args.F), args.blocks, shared=L
        )
        built = min(args.blocks, args.built_blocks)
        probe = StripConfig(delta=delta, top=top, shared=L,
                            block_sizes=sizes, extent=2)
        _, alphas = density_mod.analytic_strip_counts(probe, built)
        extent = max(args.extent, math.ceil(alphas[built - 1] / L) + 2)
        cfg = StripConfig(delta=delta, top=top, shared=L,
                          block_sizes=sizes, extent=extent)
        window, cx, alphas = strip_block_triangulation(cfg, built)
        with open(out + ".complex.json", "w") as fh:
            fh.write(cx.to_json())
    else:
        raise ValueError(f"unknown generator {args.kind}")
    window.save(out)
    report = verify_delone_params(window)
    _write_manifest(out + ".manifest.json", "gen", vars(args) | {"out": out})
    return {
        "out": out,
        "n_points": window.n_points,
        "r": window.r,
        "R": window.R,
        "delone_ok": report.ok,
        "ok": report.ok,
    }


def cmd_tri(args) -> dict:
    if args.legalize:
        with open(args.legalize) as fh:
            cx = TriangulationComplex.from_json(fh.read())
        out = args.out or args.legalize + ".legalized.json"
        legal, records = legalize_to_delaunay(cx)
        with open(out, "w") as fh:
            fh.write(legal.to_json())
        log = [
            {
                "facet": list(rec.facet),
                "before": rec.before_max_circumradius,
                "after": rec.after_max_circumradius,
                "direction": rec.direction,
            }
            for rec in records
        ]
        with open(out + ".fliplog.json", "w") as fh:
            json.dump({"schema": SCHEMA, "flips": log}, fh)
        return {"out": out, "flips": len(records), "cells": legal.n_cells}
    window = PointSetWindow.load(args.pointfile)
    cx = delaunay_of(window.points, provenance=dict(window.provenance))
    out = args.out or args.pointfile + ".delaunay.json"
    with open(out, "w") as fh:
        fh.write(cx.to_json())
    return {"out": out, "cells": cx.n_cells, "dimension": cx.dim}


def cmd_density(args) -> dict:
    with open(args.complexfile) as fh:
        cx = TriangulationComplex.from_json(fh.read())
    spec = fun.FunctionalSpec.parse(args.F)
    alphas = density_mod.geometric_grid(args.alpha_min, args.alpha_max, args.ratio)
    center = np.array([float(t) for t in args.center.split(",")]) if args.center else np.zeros(cx.dim)
    kw = {}
    if args.window_radius is not None:
        kw = {"window_radius": args.window_radius, "q_bound": args.q_bound}
    origin_seq = density_mod.density_sequence(cx, spec, np.zeros(cx.dim), alphas, **kw)
    center_seq = density_mod.density_sequence(cx, spec, center, alphas, **kw)
    out = args.out or "density.csv"
    _write_csv(out, density_mod.CSV_HEADER, origin_seq.csv_rows(center_seq))
    _write_manifest(out + ".manifest.json", "density", vars(args) | {"out": out})
    return {
        "out": out,
        "liminf_tail": origin_seq.liminf_tail,
        "last_value": float(origin_seq.values[-1]),
    }


def _flip_chunk(payload):
    spec_str, trials, seed, d, start = payload
    report = fun.run_flip_trials(
        fun.FunctionalSpec.parse(spec_str), trials, seed=seed, d=d, start=start
    )
    return report.violations, report.witness, report.notes["min_margin"]


def cmd_flipcheck(args) -> dict:
    spec = fun.FunctionalSpec.parse(args.F)
    workers = worker_count(args.trials)
    # per-trial streams make the result independent of the partitioning
    payloads = [(str(spec), n, args.seed, args.d, start)
                for start, n in _trial_chunks(args.trials, workers)]
    if len(payloads) == 1:
        results = [_flip_chunk(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            results = list(pool.map(_flip_chunk, payloads))
    violations = sum(r[0] for r in results)
    witness = next((r[1] for r in results if r[1]), None)
    report = fun.ClassReport(
        functional=str(spec),
        trials=args.trials,
        violations=violations,
        witness=witness,
        notes={"min_margin": min(r[2] for r in results), "d": args.d},
    )
    out = args.out or "flipcheck.json"
    with open(out, "w") as fh:
        json.dump({"schema": SCHEMA} | report.to_dict(), fh)
    return {"out": out, "violations": violations, "passed": report.passed,
            "ok": report.passed}


def cmd_gcheck(args) -> dict:
    from .oracle import run_g_trials

    spec = fun.FunctionalSpec.parse(args.F)
    lo, _, hi = args.n.partition("..")
    n_range = (int(lo), int(hi or lo))
    report = run_g_trials(spec, args.trials, n_range=n_range, seed=args.seed)
    out = args.out or "gcheck.json"
    with open(out, "w") as fh:
        json.dump({"schema": SCHEMA} | report.to_dict(), fh)
    return {"out": out, "violations": report.violations,
            "passed": report.passed, "ok": report.passed}


def cmd_strips(args) -> dict:
    spec = fun.FunctionalSpec.parse(args.F)
    delta, top, L = compatible_isoceles(args.a, args.phi, args.c, args.psi)
    try:
        sizes = density_mod.choose_block_sizes(delta, top, spec, args.blocks, shared=L)
    except ValueError as exc:
        if "DEGENERATE" not in str(exc):
            raise
        sizes = [3] * args.blocks
    cfg = StripConfig(delta=delta, top=top, shared=L, block_sizes=sizes, extent=2)
    report = density_mod.strip_gi_sequence(cfg, spec, args.blocks)
    out = args.out or "strips.csv"
    rows = [
        (i + 1, report.alphas[i], report.k_counts[i], report.l_counts[i],
         report.g_values[i], report.f_values[i])
        for i in range(len(report.alphas))
    ]
    _write_csv(out, "i,alpha,k_count,l_count,g_value,f_value", rows)
    _write_manifest(out + ".manifest.json", "strips",
                    vars(args) | {"out": out, "block_sizes": sizes})
    return {
        "out": out,
        "verdict": report.verdict,
        "Q_delta": report.q_delta,
        "Q": report.q_mix,
        "gap": report.gap,
        "block_sizes": sizes,
        "ok": report.verdict != "FAIL",
    }


def cmd_cube3d(args) -> dict:
    report = density_mod.distorted_cube_report(args.window)
    out = args.out or "cube3d.csv"
    _write_csv(
        out,
        "i,j,k,n_tets,vol_bottom,vol_top,want_bottom,want_top",
        [tuple(r) for r in report.rows],
    )
    _write_manifest(out + ".manifest.json", "cube3d", vars(args) | {"out": out})
    return {
        "out": out,
        "interior_cubes": report.n_interior_cubes,
        "all_seven": report.all_seven,
        "tent_volume_max_error": report.tent_volume_max_error,
        "min_interior_volume": report.min_interior_volume,
        "ok": report.all_seven and report.tent_volume_max_error <= 1e-9,
    }


def cmd_counts(args) -> dict:
    window = PointSetWindow.load(args.pointfile)
    cx = delaunay_of(window.points, provenance=dict(window.provenance))
    cert = density_mod.count_certificate(window, cx)
    out = args.out or "counts.json"
    with open(out, "w") as fh:
        json.dump({"schema": SCHEMA} | cert.to_dict(), fh)
    return {
        "out": out,
        "n_points": window.n_points,
        "ok": cert.ok,
        "point_exponent": cert.point_exponent,
        "annulus_cell_exponent": cert.annulus_cell_exponent,
    }


def cmd_compare(args) -> dict:
    window = PointSetWindow.load(args.pointfile)
    spec = fun.FunctionalSpec.parse(args.F)
    hi = args.alpha_max or (window.window_radius - 6 * window.R)
    alphas = density_mod.geometric_grid(args.alpha_min, hi, args.ratio)
    report = density_mod.delaunay_minimality_comparison(
        window, spec, args.reverse_flips, alphas, seed=args.seed
    )
    out = args.out or "compare.csv"
    rows = [
        (float(a), float(fd), float(ft), float(b1), float(b2), float(sl))
        for a, fd, ft, b1, b2, sl in zip(
            report.alphas, report.f_delaunay, report.f_perturbed,
            report.bracket_subcomplex, report.bracket_boundary, report.slack,
        )
    ]
    _write_csv(out, "alpha,f_delaunay,f_perturbed,bracket_subcomplex,bracket_boundary,slack", rows)
    _write_manifest(out + ".manifest.json", "compare", vars(args) | {"out": out})
    return {
        "out": out,
        "passed": report.passed,
        "strict_pass": report.strict_pass,
        "flips": report.flips_applied,
        "tail_delaunay": report.tail_delaunay,
        "tail_perturbed": report.tail_perturbed,
        "ok": report.passed,
    }


def cmd_oracle(args) -> dict:
    window = PointSetWindow.load(args.pointfile)
    spec = fun.FunctionalSpec.parse(args.F)
    tris = enumerate_triangulations_2d(window.points)  # Delaunay first
    best, best_sum, ties = min_sum_triangulation(tris, spec)
    argmin_is_delaunay = best.cells == tris[0].cells
    out = args.out or "oracle.json"
    with open(out, "w") as fh:
        json.dump(
            {
                "schema": SCHEMA,
                "n_triangulations": len(tris),
                "best_sum": best_sum,
                "ties": ties,
                "argmin_is_delaunay": argmin_is_delaunay,
                "argmin_cells": [list(c) for c in best.cells],
            },
            fh,
        )
    return {
        "out": out,
        "n_triangulations": len(tris),
        "argmin_is_delaunay": argmin_is_delaunay,
    }


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="delone",
        description="Triangulations of Delone-set windows and functional densities",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a point-set window")
    g.add_argument("kind", choices=["lattice", "cube3d", "poisson", "strips"])
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--W", "--window", dest="W", type=float, default=10.0)
    g.add_argument("--r", type=float, default=0.4)
    g.add_argument("--R", type=float, default=1.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--jitter", action="store_true")
    g.add_argument("--a", type=float, default=1.0)
    g.add_argument("--phi", type=float, default=math.pi / 4)
    g.add_argument("--c", type=float, default=1.2)
    g.add_argument("--psi", type=float, default=math.pi / 4)
    g.add_argument("--F", default="F1:c1=1")
    g.add_argument("--blocks", type=int, default=2)
    g.add_argument("--built-blocks", type=int, default=2)
    g.add_argument("--extent", type=int, default=8)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    t = sub.add_parser("tri", help="Delaunay triangulation or flip legalization")
    t.add_argument("pointfile", nargs="?")
    t.add_argument("--legalize", help="complex JSON to legalize instead")
    t.add_argument("--out")
    t.set_defaults(func=cmd_tri)

    d = sub.add_parser("density", help="windowed density sequence CSV")
    d.add_argument("complexfile")
    d.add_argument("--F", required=True)
    d.add_argument("--alpha-min", type=float, required=True)
    d.add_argument("--alpha-max", type=float, required=True)
    d.add_argument("--ratio", type=float, default=1.1)
    d.add_argument("--center", default="")
    d.add_argument("--window-radius", type=float)
    d.add_argument("--q-bound", type=float)
    d.add_argument("--out")
    d.set_defaults(func=cmd_density)

    f = sub.add_parser("flipcheck", help="flip-inequality trial battery")
    f.add_argument("--F", required=True)
    f.add_argument("--trials", type=int, default=1000)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--d", type=int, default=2, choices=(2, 3))
    f.add_argument("--out")
    f.set_defaults(func=cmd_flipcheck)

    gc = sub.add_parser("gcheck", help="subcomplex-inequality trials (oracle-backed)")
    gc.add_argument("--F", required=True)
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--n", default="5..8")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--out")
    gc.set_defaults(func=cmd_gcheck)

    s = sub.add_parser("strips", help="strip-construction density oscillation")
    s.add_argument("--F", required=True)
    s.add_argument("--blocks", type=int, default=6)
    s.add_argument("--a", type=float, required=True)
    s.add_argument("--phi", type=float, required=True)
    s.add_argument("--c", type=float, required=True)
    s.add_argument("--psi", type=float, required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_strips)

    c3 = sub.add_parser("cube3d", help="distorted-cube tetrahedra volumes")
    c3.add_argument("--window", type=float, default=6.0)
    c3.add_argument("--out")
    c3.set_defaults(func=cmd_cube3d)

    c = sub.add_parser("counts", help="point/cell count certificate")
    c.add_argument("pointfile")
    c.add_argument("--out")
    c.set_defaults(func=cmd_counts)

    cm = sub.add_parser("compare", help="Delaunay vs reverse-flip perturbation")
    cm.add_argument("pointfile")
    cm.add_argument("--F", required=True)
    cm.add_argument("--reverse-flips", type=int, default=50)
    cm.add_argument("--seed", type=int, default=0)
    cm.add_argument("--alpha-min", type=float, default=10.0)
    cm.add_argument("--alpha-max", type=float)
    cm.add_argument("--ratio", type=float, default=1.1)
    cm.add_argument("--out")
    cm.set_defaults(func=cmd_compare)

    o = sub.add_parser("oracle", help="exhaustive enumeration and argmin")
    o.add_argument("pointfile")
    o.add_argument("--F", required=True)
    o.add_argument("--out")
    o.set_defaults(func=cmd_oracle)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        summary = args.func(args)
    except Exception as exc:  # precondition failures become machine-readable
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 1
    _emit(summary)
    return 0 if summary.get("ok", True) else 3


if __name__ == "__main__":
    sys.exit(main())
