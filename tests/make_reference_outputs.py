"""Regenerate the committed behavioural reference under ``tests/reference_outputs``.

The reference is the ``--zero-timing`` output of five CLI runs: the step CSVs
of ``rfmpc simulate --horizon 30`` in perfect and fd mode under both
input-bound conventions, and the CSV of the default ``rfmpc benchmark``.
Three dumps pin the text writers: the ``rfmpc lift`` stdout dumps of the
corner toy and of a problem with no constraint rows, and the
``rfmpc beam build --horizon 2 --profiles-out`` CSV.
``test_reference_outputs.py`` regenerates the same outputs and compares them.
Rewrite a reference only for a change that is meant to move it, and say so
where the change is recorded.

Run from the repository root.  With no arguments the script lists the
reference names and writes nothing; with names it rewrites those files only,
so the references that a change does not mean to move keep their bytes::

    PYTHONPATH=src python tests/make_reference_outputs.py
    PYTHONPATH=src python tests/make_reference_outputs.py benchmark.csv lift-no-rows.txt
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


def all_runs(tmp: Path) -> dict:
    """File name -> ``(argv, path)`` of every reference: the ``--zero-timing``
    CSVs of :data:`RUNS`, then the dumps of :func:`dump_runs`."""
    csvs = {f"{stem}.csv": ([*argv, "--zero-timing", "--out", str(tmp / f"{stem}.csv")],
                            tmp / f"{stem}.csv") for stem, argv in RUNS.items()}
    return {**csvs, **dump_runs(tmp)}


def main(names) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = all_runs(Path(tmp))
        unknown = [name for name in names if name not in runs]
        if unknown:
            print(f"no reference named {', '.join(unknown)}", file=sys.stderr)
        if unknown or not names:
            print("references (name one or more to rewrite it):", *runs, sep="\n  ")
            return 1 if unknown else 0
        OUT_DIR.mkdir(exist_ok=True)
        for name in names:
            argv, path = runs[name]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.dispatch(argv)
            if code != 0:
                print(f"{name}: rfmpc exited {code}", file=sys.stderr)
                return code
            _write_gz(name, path.read_bytes() if path else stdout.getvalue().encode())
            print(f"wrote {OUT_DIR.name}/{name}.gz")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
