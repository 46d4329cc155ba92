"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet_verify --seed 1 --seconds 10 --trace 0

Workloads: ``earbud_stream``, ``fleet_verify``, ``gate_identify`` and
``fleet_verify_pool`` (see ``perfbench/workloads.py``).  ``--trace 0``
is a timed run and reports the end-to-end metrics; ``--trace 1``
wraps every layer and reports the per-layer metrics instead.

The substrate (``perfbench/fixture.py``) is built in its own process
when the cache lacks it -- about 35 s the first time in a checkout.
The workload then runs in a fresh process with BLAS and OpenMP pinned
to one thread.  Its standard output is this one's: a details line with
machine facts and every named metric, then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("earbud_stream", "fleet_verify", "gate_identify", "fleet_verify_pool")
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    built = subprocess.run([sys.executable, str(HERE / "fixture.py")], env=env)
    if built.returncode != 0:
        print("error: building the substrate failed", file=sys.stderr)
        return built.returncode
    measured = subprocess.run(
        [
            sys.executable,
            str(HERE / "workloads.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        env=env,
    )
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main())
