"""Regenerate the committed behavioural reference under ``tests/reference_outputs``.

The reference is the ``--zero-timing`` output of five CLI runs: the step CSVs
of ``rfmpc simulate --horizon 30`` in perfect and fd mode under both
input-bound conventions, and the CSV of the default ``rfmpc benchmark``.
``test_reference_outputs.py`` regenerates the same runs and compares them.
Rewrite the reference only for a change that is meant to move these outputs,
and say so where the change is recorded.

Run from the repository root::

    PYTHONPATH=src python tests/make_reference_outputs.py
"""
import gzip
import sys
import tempfile
from pathlib import Path

from rfmpc import cli

OUT_DIR = Path(__file__).resolve().parent / "reference_outputs"

# File stem and CLI arguments of each reference run.
RUNS = {
    **{f"simulate-{mode}-{scaling}": ["simulate", "--horizon", "30", "--mode", mode,
                                      "--bound-scaling", scaling]
       for mode in ("perfect", "fd") for scaling in ("physical", "reciprocal")},
    "benchmark": ["benchmark"],
}


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv in RUNS.items():
            csv = Path(tmp) / f"{stem}.csv"
            code = cli.dispatch([*argv, "--zero-timing", "--out", str(csv)])
            if code != 0:
                print(f"{stem}: rfmpc exited {code}", file=sys.stderr)
                return code
            # mtime=0 keeps the archive bytes a function of the CSV alone.
            with open(OUT_DIR / f"{stem}.csv.gz", "wb") as raw, \
                    gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
                gz.write(csv.read_bytes())
    return 0


if __name__ == "__main__":
    sys.exit(main())
