"""rfmpc benchmark: one workload per call, run from the repository root.

    python3 perfbench/run.py --workload loop-perfect --seed 1 --seconds 25 --trace 0

The workload runs in a child process (worker.py) that imports ``rfmpc`` from
``./src`` and has the OpenBLAS and OpenMP thread counts pinned to 1.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("loop-perfect", "loop-fd", "query-cold", "query-infeasible")
TIMEOUT_S = 170
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")

    src = Path.cwd() / "src"
    if not (src / "rfmpc" / "__init__.py").is_file():
        print(f"run.py: no rfmpc package under {src}; run from the repository root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.update({k: "1" for k in PINNED})
    cmd = [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
