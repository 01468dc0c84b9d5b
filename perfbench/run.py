#!/usr/bin/env python3
"""Benchmark of the delone experiments.

Run from the root of a checkout:

    python3 perfbench/run.py --workload window2d --seed 1 --seconds 18 --trace 0

Workloads: window2d, battery, lattice3d, prefix (see BENCHMARK.json for why
each exists).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs a traced pass as well and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

Each run builds nothing: it imports ``delone`` from ``src/`` of the checkout
in fresh processes with one thread each (DELONE_THREADS and the BLAS thread
variables set to 1).  ``setup_s`` is the median, over four probe processes
and the workload process, of the time from process start until ``delone``,
numpy and ``scipy.spatial`` are imported.  All times are scaled to a
reference machine speed measured while they run (see speed.py); a ``#``
line prints the unscaled medians and the run record keeps the raw times.
Scratch files go to ``.perfbench_tmp/`` and are removed; a record of each
run (versions, load, per-pass timings, failures) goes to
``.perfbench_out/``.

``--size tiny`` and ``--corrupt`` exist for ``selftest.py``: ``--corrupt
cell`` drops one cell from the first checked output, ``--corrupt verdict``
makes the first CLI stage report ok=false (it then exits 3), ``--corrupt
raise`` makes the first operation raise, and ``--corrupt keyerror`` makes
the first ``compare`` stage raise a KeyError that is not the known defect.
``--record-digests N`` rewrites the digests in ``reference.json`` for seeds
0..N-1; do that only when an output change is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("window2d", "battery", "lattice3d", "prefix")
SETUP_PROBES = 4
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = ("DELONE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_ENV})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


class Child:
    """Runs ``child.py`` in ``workdir`` and returns its result JSON."""

    def __init__(self, root: str, workdir: str, deadline: float):
        self.root, self.workdir, self.deadline = root, workdir, deadline
        self.count = 0

    def run(self, *args) -> tuple[dict, float]:
        self.count += 1
        result = os.path.join(self.workdir, f"result{self.count}.json")
        log = os.path.join(self.workdir, f"stderr{self.count}.txt")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", self.root,
               "--result", result, *map(str, args)]
        with open(log, "w") as err:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=child_env(),
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - started))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError(f"benchmark process timed out: {' '.join(args)}")
        if code != 0:
            with open(log) as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"benchmark process exited {code}:\n{tail}")
        with open(result) as fh:
            return json.load(fh), started


def setup_seconds(result, started) -> tuple:
    """Reference-speed and raw time from process start until the imports
    finished, without the calibration samples taken meanwhile (see
    speed.py)."""
    raw = result["ready"] - started - result["kernel_s"]
    return raw * result["speed_factor"], raw


def measure(args, root) -> dict:
    begun = time.monotonic()
    load1 = os.getloadavg()[0]
    tmp_root = os.path.join(root, ".perfbench_tmp")
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(tmp_root, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix=tag + "-", dir=tmp_root)
    try:
        child = Child(root, workdir, begun + DEADLINE_S)
        setup = []
        for _ in range(SETUP_PROBES):
            probe, started = child.run("--probe")
            setup.append(setup_seconds(probe, started))
        flags = ["--workload", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace, "--size", args.size]
        if args.corrupt:
            flags += ["--corrupt", args.corrupt]
        if args.trace:
            flags += ["--spans", os.path.join(out_dir, f"{tag}-spans.json")]
        result, started = child.run(*flags)
        setup.append(setup_seconds(result, started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(s for s, _ in setup)
        result["raw"]["setup_s"] = statistics.median(raw for _, raw in setup)
    result["setup_samples_s"] = setup
    result["run"] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "corrupt": args.corrupt,
        "nproc": os.cpu_count(), "loadavg_1min_at_start": load1,
        "commit": git_commit(root), **result.pop("versions"),
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(result, spec, trace) -> dict:
    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(units) - set(result["metrics"])
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    run = result["run"]
    print("# " + " ".join(f"{k}={v}" for k, v in run.items()))
    passes = result["passes"]
    print(f"# {len(passes)} timed passes, pass wall_s: "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print(f"# operations per pass: {passes[0]['ops']}, speed factors: "
          + " ".join(f"{p['speed_factor']:.2f}" for p in passes))
    print("# unscaled medians: " + " ".join(f"{k}={v:.6g}" for k, v in result["raw"].items()))
    failed_frac = result["failed"] / result["attempted"]
    print(f"# attempted={result['attempted']} failed={result['failed']} "
          f"failed_frac={failed_frac:.4f} known_compare_defect={result['known_defect']} "
          f"digests_checked={result['digests_checked']}")
    for failure in result["failures"][:10]:
        reason = failure["error"] or failure["detail"] or (
            "verdict false" if failure["digest_ok"] else "digest mismatch")
        kind = "known defect" if failure["known_defect"] else "failed"
        print(f"#   {kind} {failure['op']}: {reason}")
    for name, unit in units.items():
        print(f"{name:58s} {result['metrics'][name]:.6g} {unit}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def record_digests(root, seeds, workloads):
    path = os.path.join(HERE, "reference.json")
    with open(path) as fh:
        reference = json.load(fh)
    tmp_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    for workload in workloads:
        workdir = tempfile.mkdtemp(prefix=f"digests-{workload}-", dir=tmp_root)
        try:
            child = Child(root, workdir, time.monotonic() + 3600)
            result, _ = child.run("--workload", workload, "--digest-seeds", seeds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference["digests"][workload] = result["digests"]
        print(f"{workload}: recorded seeds 0..{seeds - 1}")
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--corrupt", choices=("cell", "verdict", "raise", "keyerror"),
                   help="inject one wrong output or failure (for selftest.py)")
    p.add_argument("--record-digests", type=int, metavar="N")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "src", "delone", "__init__.py"))
            and os.path.isfile(os.path.join(root, "BENCHMARK.json"))):
        sys.stderr.write("run from the root of a delone checkout (src/delone is missing)\n")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.record_digests:
        record_digests(root, args.record_digests,
                       [args.workload] if args.workload else WORKLOADS)
        return 0
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        result = measure(args, root)
        line = report(result, spec, args.trace)
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
