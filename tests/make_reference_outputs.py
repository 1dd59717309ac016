"""Regenerate the committed behavioural reference under ``tests/reference_outputs``.

The reference is the ``--zero-timing`` output of five CLI runs: the step CSVs
of ``rfmpc simulate --horizon 30`` in perfect and fd mode under both
input-bound conventions, and the CSV of the default ``rfmpc benchmark``.
Three dumps pin the text writers: the ``rfmpc lift`` stdout dumps of the
corner toy and of a problem with no constraint rows, and the
``rfmpc beam build --horizon 2 --profiles-out`` CSV.
``test_reference_outputs.py`` regenerates the same outputs and compares them.
Rewrite the reference only for a change that is meant to move these outputs,
and say so where the change is recorded.

Run from the repository root::

    PYTHONPATH=src python tests/make_reference_outputs.py
"""
import contextlib
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

import rfmpc
from rfmpc import cli

OUT_DIR = Path(__file__).resolve().parent / "reference_outputs"
CORNER_TOY = Path(rfmpc.__file__).with_name("data") / "corner_toy.json"

# File stem and CLI arguments of each reference run.
RUNS = {
    **{f"simulate-{mode}-{scaling}": ["simulate", "--horizon", "30", "--mode", mode,
                                      "--bound-scaling", scaling]
       for mode in ("perfect", "fd") for scaling in ("physical", "reciprocal")},
    "benchmark": ["benchmark"],
}


def dump_runs(tmp: Path) -> dict:
    """File name -> ``(argv, path)`` of each reference dump: the CLI arguments,
    and the file they write, or ``None`` for a dump to stdout."""
    no_rows = json.loads(CORNER_TOY.read_text())
    no_rows["constraints"].update(d_hat=[], E_hat=[], F_hat=[])
    (tmp / "no_rows.json").write_text(json.dumps(no_rows))
    profiles = tmp / "profiles.csv"
    return {
        "lift-corner-toy.txt": (["lift", str(CORNER_TOY)], None),
        "lift-no-rows.txt": (["lift", str(tmp / "no_rows.json")], None),
        "beam-profiles-2.csv": (["beam", "build", "--horizon", "2", "--out", str(tmp / "beam2.json"),
                                 "--profiles-out", str(profiles)], profiles),
    }


def _write_gz(name: str, data: bytes) -> None:
    # mtime=0 keeps the archive bytes a function of the data alone.
    with open(OUT_DIR / f"{name}.gz", "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
        gz.write(data)


def main() -> int:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv in RUNS.items():
            csv = Path(tmp) / f"{stem}.csv"
            code = cli.dispatch([*argv, "--zero-timing", "--out", str(csv)])
            if code != 0:
                print(f"{stem}: rfmpc exited {code}", file=sys.stderr)
                return code
            _write_gz(f"{stem}.csv", csv.read_bytes())
        for name, (argv, path) in dump_runs(Path(tmp)).items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.dispatch(argv)
            if code != 0:
                print(f"{name}: rfmpc exited {code}", file=sys.stderr)
                return code
            _write_gz(name, path.read_bytes() if path else stdout.getvalue().encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
