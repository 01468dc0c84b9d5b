"""One benchmark process: imports the library from the checkout, stamps the
moment it is ready, then either exits (a set-up probe) or runs one workload
and writes its result as JSON.  Started by ``run.py``; not meant to be run
by hand."""

from __future__ import annotations

import time

from speed import Speed

START = time.perf_counter()

import argparse  # noqa: E402  (after the clock starts: part of set-up)
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main(speed) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--size", default="full")
    p.add_argument("--corrupt")
    p.add_argument("--spans")
    p.add_argument("--digest-seeds", type=int, default=0)
    args = p.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import numpy
    import scipy
    import scipy.spatial  # build_complex would import it lazily on first use
    import delone

    ready = time.monotonic()
    kernel_s, _, factor, _ = speed.over(START, time.perf_counter())
    if not os.path.abspath(delone.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.stderr.write(f"delone imported from {delone.__file__}, not from {src}\n")
        return 2
    # the parent turns this into set-up time: (ready - start - kernel_s) * factor
    result = {"ready": ready, "kernel_s": kernel_s, "speed_factor": factor}
    if not args.probe:
        import workloads

        bench_dir = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(args.root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        with open(os.path.join(bench_dir, "reference.json")) as fh:
            reference = json.load(fh)
        if args.digest_seeds:
            # pass-0 digests of seeds 0..N-1, for reference.json
            result["digests"] = {
                str(seed): workloads.PASSES[args.workload](
                    workloads.Context(seed, "full", None, speed), 0
                ).group_digests()
                for seed in range(args.digest_seeds)
            }
        else:
            expected = None
            if args.size == "full":
                expected = reference["digests"].get(args.workload, {}).get(str(args.seed))
            result.update(workloads.run(
                args.workload, args.seed, args.seconds, bool(args.trace), args.size,
                args.corrupt, expected, speed,
                [m["name"] for m in spec["end_to_end"]],
                [m["name"] for m in spec["per_layer"]],
                spans_path=args.spans,
            ))
        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    with Speed() as process_speed:
        code = main(process_speed)
    sys.exit(code)
