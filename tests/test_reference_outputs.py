"""Behavioural reference: the ``--zero-timing`` CSVs of the reference runs.

The committed files under ``reference_outputs/`` were written by
``make_reference_outputs.py``.  Each test reruns one of them and compares it
column by column.  The search columns (the active set and the counts) and the
integer columns must match exactly.  A float cell may move by float64 noise
only: ``FLOAT_TOL`` on the inputs and the means (the fd loops amplify
roundoff to about this size) and ``COST_TOL`` on the costs, each relative to
``max(1, |reference|)``.
"""
import csv
import gzip
from dataclasses import fields
from pathlib import Path

import pytest

from rfmpc import sim

REFERENCE_DIR = Path(__file__).resolve().parent / "reference_outputs"

FLOAT_TOL = 1e-9
COST_TOL = 1e-8
COST_COLUMNS = {"J_opt", "J_cum", "J_d"}


@pytest.fixture(scope="module")
def bench30_reciprocal():
    return sim.make_benchmark(N=30, bound_scaling="reciprocal")


def _rows(text: str) -> list:
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


def _check(stem: str, cls, path: Path) -> None:
    """Compare the CSV at ``path`` against the reference ``stem``, written from ``cls`` records."""
    ref = _rows(gzip.decompress((REFERENCE_DIR / f"{stem}.csv.gz").read_bytes()).decode())
    new = _rows(path.read_text())
    assert new[0] == ref[0], f"{stem}: header"
    assert len(new) == len(ref), f"{stem}: {len(new) - 1} rows, reference has {len(ref) - 1}"
    floats = {f.name for f in fields(cls)
              if f.type in ("float", float) and not f.metadata.get("timing")}
    for j, name in enumerate(ref[0]):
        for i, (a, b) in enumerate(zip((r[j] for r in new[1:]), (r[j] for r in ref[1:]))):
            if name not in floats:
                assert a == b, f"{stem}: {name} in row {i} is {a}, reference {b}"
                continue
            tol = COST_TOL if name in COST_COLUMNS else FLOAT_TOL
            x, y = float(a), float(b)
            assert abs(x - y) <= tol * max(1.0, abs(y)), \
                f"{stem}: {name} in row {i} is {a}, reference {b} (tolerance {tol:g})"


def _check_run(stem: str, result, tmp_path) -> None:
    path = tmp_path / f"{stem}.csv"
    sim.write_step_csv(path, result, zero_timing=True)
    _check(stem, sim.StepLog, path)


def test_perfect_physical(warm_run, tmp_path):
    _check_run("simulate-perfect-physical", warm_run, tmp_path)


def test_fd_physical(fd_run, tmp_path):
    _check_run("simulate-fd-physical", fd_run, tmp_path)


@pytest.mark.parametrize("mode", ["perfect", "fd"])
def test_reciprocal(mode, bench30_reciprocal, tmp_path):
    cfg = sim.SimulationConfig(mode=mode, bound_scaling="reciprocal")
    result = sim.run_closed_loop(cfg, bench=bench30_reciprocal)
    _check_run(f"simulate-{mode}-reciprocal", result, tmp_path)


def test_benchmark(sweep_rows, tmp_path):
    path = tmp_path / "benchmark.csv"
    sim.write_benchmark_csv(path, sweep_rows, zero_timing=True)
    _check("benchmark", sim.BenchmarkRow, path)
