"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs every workload at tiny size, untraced and traced, and checks that:

* the last output line has exactly the keys correct, attempted, failed,
  metrics, and every metric of BENCHMARK.json is printed with its unit;
* a clean run is correct, and each injected fault makes a run incorrect,
  with the failure counted: one cell dropped from the first checked output
  (every workload), a CLI stage that reports ok=false and so exits 3
  (window2d, lattice3d), an operation that raises (battery, prefix), and a
  ``compare`` stage that exits 1 with a KeyError that is not the known
  defect (window2d);
* each workload's traced run reaches the layer it exists for;
* without ``src/`` the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("window2d", "battery", "lattice3d", "prefix")
# faults injected with --corrupt on each workload, besides "cell"
FAULTS = {"window2d": ("verdict", "keyerror"), "battery": ("raise",),
          "lattice3d": ("verdict",), "prefix": ("raise",)}
# a per-layer metric each workload's traced run must move off zero
REACHES = {
    "window2d": ("delaunay.delaunay_2d.calls", "geometry.incircle2d.calls",
                 "cli.compare.total_s"),
    "battery": ("oracle.enumerate_triangulations_2d.calls",
                "triangulation.legalize_to_delaunay.calls",
                "functionals.radon_calls_per_flip_trial"),
    "lattice3d": ("delaunay.delaunay_3d.points", "density.distorted_cube_report.self_s",
                  "cli.cube3d.total_s"),
    "prefix": ("geometry.point_in_simplex.calls", "triangulation.build_complex.cells"),
}


def run(workload, *extra, cwd="."):
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", workload, "--size", "tiny", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=175)


def result_line(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int) and 0 <= line["failed"] <= line["attempted"]
    return line


def units(line) -> dict:
    return {name: m["unit"] for name, m in line["metrics"].items()}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in WORKLOADS:
        clean = result_line(run(workload))
        assert clean["correct"] is True, (workload, clean)
        assert units(clean) == e2e, (workload, units(clean))
        for name, m in clean["metrics"].items():
            assert isinstance(m["value"], float) and m["value"] > 0, (workload, name, m)

        for fault in ("cell", *FAULTS[workload]):
            bad = result_line(run(workload, "--corrupt", fault))
            assert bad["correct"] is False, (workload, fault, "the fault went unnoticed")
            assert bad["failed"] >= 1, (workload, fault, bad)
            with open(os.path.join(".perfbench_out", f"{workload}-seed1-trace0.json")) as fh:
                failures = json.load(fh)["failures"]
            assert not any(f["known_defect"] for f in failures), failures
            if fault == "raise":
                assert any("injected failure" in (f["error"] or "") for f in failures), failures
            elif fault == "keyerror":
                assert any((f["error"] or "").startswith("exit 1:") and "KeyError" in f["error"]
                           for f in failures), failures
            else:
                assert any(f["error"] is None and not f["verdict"] for f in failures), failures
            if fault == "verdict":
                assert any("exit 3" in (f["detail"] or "") for f in failures), failures

        traced = result_line(run(workload, "--trace", "1"))
        assert traced["correct"] is True, (workload, traced)
        assert units(traced) == layers, (workload, set(units(traced)) ^ set(layers))
        for name in REACHES[workload]:
            assert traced["metrics"][name]["value"] > 0, (workload, name)
        print(f"selftest {workload}: ok")

    os.makedirs(".perfbench_tmp", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=".perfbench_tmp")
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("window2d", cwd=bare)
        assert proc.returncode != 0, "ran without the library"
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("selftest bare directory: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
