#!/usr/bin/env python3
"""attnalloc benchmark.

    python3 perfbench/run.py --workload {pipeline,dataset-noisy,serve} \
        --seed N --seconds S --trace {0,1}

Runs one workload in a closed loop with one client and prints every metric
by name with its unit and sample count; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics for --seconds seconds, after
setting up at least three times and for at least 6 s (setup_s is the
median); its times are scaled to the host's nominal speed by an
interleaved probe (hostspeed.py). --trace 1 runs the workload's fixed units
twice, untraced and then with span wrappers on every layer, and reports the
per-layer metrics, the tracing overhead and the self-checks (identical
output digests and exact counts in both passes, well-nested spans).

perfbench/README.md describes the workloads, metrics and measured spreads.

The package is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

import argparse
import os
import signal
import sys
from pathlib import Path

WORKLOAD_NAMES = ("pipeline", "dataset-noisy", "serve")
# BLAS/OpenMP pools are capped before numpy is imported: one client, and the
# pipeline's vectors are too small for threads to help
THREAD_CAP = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # unwind on SIGTERM too, so the staged files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    if not (SRC / "attnalloc" / "__init__.py").is_file():
        print(f"error: attnalloc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    import harness
    return harness.main(args, load_start)


if __name__ == "__main__":
    sys.exit(main())
