"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train|score|evaluate --seed N \
        --seconds S --trace 0|1

Run it from the root of a kwslab checkout: the program is imported from
`src/` there, and run outputs go to `.perfbench_out/`. `--trace 0` reports
the end-to-end metrics; `--trace 1` reports the per-layer metrics and
writes the spans to `.perfbench_out/trace-<workload>-seed<N>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _cap_threads():
    """One BLAS/OpenMP thread, set before numpy loads. On a 2-core machine a
    2-epoch training took 13.4 s with one BLAS thread and 14.7 s with two,
    at half the CPU time: the detector's matrices are too small to split."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["train", "score", "evaluate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kwslab", "__init__.py")):
        print(f"perfbench: no kwslab sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    _cap_threads()
    sys.path[:0] = [src, ROOT]
    from perfbench import workloads

    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, trace_path=trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
