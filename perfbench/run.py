"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload text-f64 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The compiled CSR kernels are built from
this checkout's ``src/`` into ``perfbench/.build`` and loaded before
:mod:`repro` is imported; a run whose extension fails to build or load
exits non-zero without a result.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones (see ``perfbench/README.md``).
Timings are normalised by a fixed host probe (``perfbench/calibrate.py``);
the provenance line before the result holds the raw medians.  The last
line of standard output is::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent

#: BLAS runs single-threaded, so the program's own threads (batcher,
#: writer, shard workers) are the only parallelism measured; on two cores
#: BLAS worker threads woke and competed with them and swung the figures.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the benchmark's self-tests",
    )
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (REPO / "src" / "repro").is_dir():
        print("error: run from a checkout that holds src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(1, str(REPO / "src"))
    from extension import BuildError, build_extension, load_extension
    from workloads import WORKLOADS, run

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        path, build_s, reused = build_extension(REPO, HERE / ".build")
        load_extension(path)
    except BuildError as exc:
        print(f"error: compiled kernels unavailable: {exc}", file=sys.stderr)
        return 3
    started = time.perf_counter()
    from repro.linalg import kernels

    import_s = time.perf_counter() - started
    if kernels.active_backend() != "compiled":
        print("error: kernel backend is not 'compiled'", file=sys.stderr)
        return 3
    provenance = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "cpu_count": os.cpu_count(),
        "kernel_backend": kernels.active_backend(),
        "build_s": build_s,
        "build_reused": reused,
        "import_s": import_s,
        "python": sys.version.split()[0],
    }
    outcome = run(spec, args.seed, args.seconds, bool(args.trace), args.scale)
    tally = outcome.tally
    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    provenance["raw_medians_s"] = outcome.raw
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
