"""Behavioural reference: the ``--zero-timing`` CSVs of the reference runs,
and the text dumps of ``rfmpc lift`` and ``rfmpc beam build --profiles-out``.

The committed files under ``reference_outputs/`` were written by
``make_reference_outputs.py``.  Each test reruns one of them and compares it
column by column.  The search columns (the active set and the counts) and the
integer columns must match exactly.  A float cell may move by float64 noise
only: ``FLOAT_TOL`` on the inputs and the means (the fd loops amplify
roundoff to about this size) and ``COST_TOL`` on the costs, each relative to
``max(1, |reference|)``.  A dump's header lines (a matrix's name and its
``rows cols`` line, a CSV's column names) must match exactly, and its float
cells within ``FLOAT_TOL``.
"""
import csv
import gzip
from dataclasses import fields, replace
from pathlib import Path

import pytest

from make_reference_outputs import dump_runs
from rfmpc import cli, sim

REFERENCE_DIR = Path(__file__).resolve().parent / "reference_outputs"

FLOAT_TOL = 1e-9
COST_TOL = 1e-8
COST_COLUMNS = {"J_opt", "J_cum", "J_d"}


@pytest.fixture(scope="module")
def bench30_reciprocal():
    return sim.make_benchmark(N=30, bound_scaling="reciprocal")


def _reference(name: str) -> str:
    return gzip.decompress((REFERENCE_DIR / f"{name}.gz").read_bytes()).decode()


def _rows(text: str) -> list:
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


def _check(stem: str, cls, path: Path) -> None:
    """Compare the CSV at ``path`` against the reference ``stem``, written from ``cls`` records."""
    ref = _rows(_reference(f"{stem}.csv"))
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
    sim.write_step_csv(path, replace(result, logs=[sim.zero_timing(log) for log in result.logs]))
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
    sim.write_benchmark_csv(path, map(sim.zero_timing, sweep_rows))
    _check("benchmark", sim.BenchmarkRow, path)


def _dump(name: str, tmp_path, capsys) -> list:
    """The lines that ``rfmpc`` writes today for the reference dump ``name``."""
    argv, path = dump_runs(tmp_path)[name]
    assert cli.dispatch(argv) == 0
    out = capsys.readouterr().out
    return (path.read_text() if path else out).splitlines()


def _check_cells(name: str, new: list, ref: list) -> None:
    """Rows of float cells: the same shape, each cell within ``FLOAT_TOL``."""
    assert [len(r) for r in new] == [len(r) for r in ref], f"{name}: shape"
    for i, (a_row, b_row) in enumerate(zip(new, ref)):
        for a, b in zip(a_row, b_row):
            x, y = float(a), float(b)
            assert abs(x - y) <= FLOAT_TOL * max(1.0, abs(y)), \
                f"{name}: row {i} has {a}, reference {b}"


@pytest.mark.parametrize("name", ["lift-corner-toy.txt", "lift-no-rows.txt"])
def test_lift_dump(name, tmp_path, capsys):
    new, ref = _dump(name, tmp_path, capsys), _reference(name).splitlines()
    assert len(new) == len(ref), f"{name}: {len(new)} lines, reference has {len(ref)}"
    i = 0
    while i < len(ref):
        assert new[i : i + 2] == ref[i : i + 2], f"{name}: header at line {i}"
        rows = int(ref[i + 1].split()[0])
        body = slice(i + 2, i + 2 + rows)
        _check_cells(name, [r.split() for r in new[body]], [r.split() for r in ref[body]])
        i += 2 + rows
    assert [line for line in ref if line.startswith("# ")] == [f"# {m}" for m in "HFGSW"]


def test_profiles_dump(tmp_path, capsys):
    name = "beam-profiles-2.csv"
    new, ref = _dump(name, tmp_path, capsys), _reference(name).splitlines()
    assert new[0] == ref[0] == "xi,x1,x2,x3,x4"
    assert len(ref) == 202
    _check_cells(name, [r.split(",") for r in new[1:]], [r.split(",") for r in ref[1:]])
