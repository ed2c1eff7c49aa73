#!/usr/bin/env python3
"""MASF training benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload full_triplet --seed 0 --seconds 20 --trace 0

It trains the library in ``src/`` in this process and prints, as the last
line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they
are its per-layer metrics, from a traced run checked against an untraced
one. The line before it holds the environment and per-run notes. Workloads
and metric names are listed in ``BENCHMARK.json``; ``perfbench/moves.json``
says which end-to-end metric each per-layer metric should move, and on which
workload. Exit status is 2 when the masf sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The workload's matrices are at most 150 x 150, too small for BLAS threads
# to help; one thread keeps the scheduler out of the numbers.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "masf" / "__init__.py").is_file():
        print(f"perfbench: no masf sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    # numpy is first imported here, after the BLAS thread count is fixed
    import workload

    if Path(workload.masf.__file__).resolve().parent != (SRC / "masf").resolve():
        print(f"perfbench: imported masf from {workload.masf.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    result = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    computed = result.pop("metrics")
    metrics = {}
    for m in wanted:
        value = computed.get(m["name"])
        if value is None and args.trace and computed:
            value = 0.0  # a span or node kind this workload never reaches
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    listed = {m["name"] for m in wanted}
    result["unlisted_metrics"] = {k: v for k, v in computed.items() if k not in listed}
    result["environment"] = workload.environment(args.seed)
    print(json.dumps(result))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
