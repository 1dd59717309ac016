"""End-to-end checks of the ``rfmpc`` command-line entry point.

Everything goes through ``cli.dispatch`` so the exit codes and printed
output are exercised exactly as a shell user would see them.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rfmpc
from rfmpc import cli, lifting
from rfmpc.beam import SAMPLING_INTERVAL, make_benchmark
from rfmpc.problem import load_problem, to_json_dict, validate

CORNER_TOY = Path(rfmpc.__file__).with_name("data") / "corner_toy.json"


def transposed_beam_doc():
    """The N = 2 beam problem with ``E[1]`` stored transposed, 2 x 6 for 6 x 2."""
    doc = to_json_dict(make_benchmark(N=2).problem)
    doc["constraints"]["E"][1] = np.transpose(doc["constraints"]["E"][1]).tolist()
    return doc


def read_matrix(path):
    with open(path) as fh:
        rows, cols = (int(tok) for tok in fh.readline().split())
        data = [[float(tok) for tok in fh.readline().split()] for _ in range(rows)]
    M = np.array(data)
    assert M.shape == (rows, cols)
    return M


class TestLift:
    def test_writes_matrix_files(self, tmp_path, capsys):
        out = tmp_path / "mats"
        assert cli.dispatch(["lift", str(CORNER_TOY), "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        H = read_matrix(out / "H.txt")
        np.testing.assert_allclose(H, [[1.0]])
        F = read_matrix(out / "F.txt")
        np.testing.assert_allclose(F, [[0.0, 0.0]])
        for name in ("G", "S", "W"):
            assert (out / f"{name}.txt").exists()

    def test_stdout_dump(self, capsys):
        assert cli.dispatch(["lift", str(CORNER_TOY)]) == 0
        out = capsys.readouterr().out
        for name in ("# H", "# F", "# G", "# S", "# W"):
            assert name in out
        # First matrix body: the "rows cols" line then one scalar row.
        lines = out.splitlines()
        assert lines[0] == "# H"
        assert lines[1] == "1 1"


class TestSolve:
    def test_corner_query(self, capsys):
        code = cli.dispatch(["solve", str(CORNER_TOY), "--theta=-1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: optimal" in out
        assert "active_set: 0x1" in out
        assert "u: 1" in out
        assert "kkt_solves: 1" in out

    def test_interior_query_leaves_constraint_inactive(self, capsys):
        code = cli.dispatch(["solve", str(CORNER_TOY), "--theta=1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "active_set: 0x0" in out
        assert "kkt_solves: 0" in out

    def test_sampled_theta_reports_seed(self, capsys):
        assert cli.dispatch(["solve", str(CORNER_TOY), "--seed", "7"]) == 0
        assert "theta (sampled, seed 7)" in capsys.readouterr().out

    def test_warm_start_hint(self, capsys):
        code = cli.dispatch(["solve", str(CORNER_TOY), "--theta=-1,0", "--warm", "0x1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "candidates: 1" in out

    def test_negative_warm_mask_rejected(self, capsys):
        code = cli.dispatch(["solve", str(CORNER_TOY), "--theta=-1,0", "--warm=-0x1"])
        assert code == 1
        assert "must be nonnegative" in capsys.readouterr().err

    def test_warm_mask_beyond_rows_rejected(self, tmp_path, capsys):
        path = tmp_path / "beam2.json"
        assert cli.dispatch(["beam", "build", "--horizon", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        code = cli.dispatch(["solve", str(path), "--warm", "0x100000"])
        assert code == 1
        assert "the 10 constraint rows" in capsys.readouterr().err

    def test_wrong_theta_length(self, capsys):
        code = cli.dispatch(["solve", str(CORNER_TOY), "--theta=1,2,3"])
        assert code == 1
        assert "theta needs 2 entries" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("theta", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_theta_rejected(self, theta, capsys):
        assert cli.dispatch(["solve", str(CORNER_TOY), f"--theta={theta}"]) == 1
        err = capsys.readouterr().err
        assert "theta" in err and "Traceback" not in err

    def test_infeasible_exit_code(self, tmp_path, capsys):
        # Zero input matrix: the terminal bound x >= 0 cannot be met from x0 = -1.
        doc = json.loads(CORNER_TOY.read_text())
        doc["prediction_model"]["B"] = [[0.0]]
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps(doc))
        code = cli.dispatch(["solve", str(path), "--theta=-1,0"])
        out = capsys.readouterr().out
        assert code == 2
        assert "status: infeasible" in out
        assert "farkas_ray: " in out

    def test_budget_exit_code(self, capsys):
        code = cli.dispatch(["solve", str(CORNER_TOY), "--theta=-1,0", "--budget", "0"])
        out = capsys.readouterr().out
        assert code == 3
        assert "budget" in out


class TestSimulate:
    def test_short_perfect_run(self, tmp_path, capsys):
        csv = tmp_path / "steps.csv"
        code = cli.dispatch(["simulate", "--horizon", "4", "--t-end", "0.125",
                             "--out", str(csv), "--zero-timing"])
        out = capsys.readouterr().out
        assert code == 0
        assert "steps: 16" in out
        assert "final_norm_ratio" in out
        header = csv.read_text().splitlines()
        assert header[0].startswith("#")
        assert header[1].split(",")[:3] == ["step", "time", "u1"]
        assert len(header) == 2 + 16

    def test_module_entry_point(self, tmp_path, capsys):
        # ``python -m rfmpc`` with only PYTHONPATH set writes the same CSV
        # as the in-process command.
        args = ["simulate", "--horizon", "4", "--t-end", "0.125", "--zero-timing", "--out"]
        assert cli.dispatch(args + [str(tmp_path / "direct.csv")]) == 0
        capsys.readouterr()
        src = str(Path(rfmpc.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "rfmpc"] + args + [str(tmp_path / "module.csv")],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "steps: 16" in proc.stdout
        assert (tmp_path / "module.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()

    def test_product_never_imports_scipy(self, tmp_path):
        # The product imports no scipy at all: not on import, not for a
        # perfect or an fd loop, a beam build or a lift, not for the Farkas
        # ray of an infeasible query, and not for the NNLS of a degenerate
        # reduction.
        doc = json.loads(CORNER_TOY.read_text())
        doc["prediction_model"]["B"] = [[0.0]]
        stuck = tmp_path / "stuck.json"
        stuck.write_text(json.dumps(doc))
        beam2 = str(tmp_path / "b2.json")
        src = str(Path(rfmpc.__file__).resolve().parents[1])
        short = "'--horizon', '4', '--t-end', '0.125'"
        code = ("import sys\n"
                "from rfmpc import cli\n"
                "from rfmpc.lifting import LiftedQP\n"
                "from rfmpc.solver import ActiveSet, reduce_to_licq\n"
                "def check(step):\n"
                "    assert 'scipy' not in sys.modules, 'scipy after ' + step\n"
                "check('import')\n"
                f"assert cli.dispatch(['simulate', {short}]) == 0\n"
                "check('a perfect run')\n"
                f"assert cli.dispatch(['simulate', '--mode', 'fd', {short}]) == 0\n"
                "check('an fd run')\n"
                f"assert cli.dispatch(['beam', 'build', '--horizon', '2', '--out', {beam2!r}]) == 0\n"
                "check('a beam build')\n"
                f"assert cli.dispatch(['lift', {beam2!r}, '--out', {str(tmp_path / 'lifted')!r}]) == 0\n"
                "check('a lift')\n"
                f"assert cli.dispatch(['solve', {str(stuck)!r}, '--theta=-1,0']) == 2\n"
                "check('a ray')\n"
                "qp = LiftedQP.from_matrices(H=1.0, F=[[0.0]], G=[[-1.0], [-2.0]],\n"
                "                            S=[[0.0], [0.0]], W=[-1.0, -2.0])\n"
                "assert len(reduce_to_licq(qp, ActiveSet(0b11), [0.0])) == 1\n"
                "check('a reduction')\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "farkas_ray: 1 of 1 rows" in proc.stdout

    def test_infeasible_horizon_exit_code(self, capsys):
        code = cli.dispatch(["simulate", "--horizon", "2", "--t-end", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no admissible input sequence" in err

    def test_lost_feasibility_exit_code(self, capsys):
        # Physical bounds at N = 10: the loop loses feasibility at step 75,
        # certified by a Farkas ray, not by the budget running out.
        code = cli.dispatch(["simulate", "--horizon", "10", "--t-end", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "no admissible input sequence at step 75 " in err

    def test_budget_exit_code(self, capsys):
        # Zero budget survives only while the unconstrained minimizer is
        # admissible; the run aborts once a constraint first activates.
        code = cli.dispatch(["simulate", "--horizon", "10", "--t-end", "0.5",
                             "--budget", "0"])
        err = capsys.readouterr().err
        assert code == 3
        assert "budget exhausted" in err

    def test_other_runtime_error_is_not_a_stalled_search(self, monkeypatch):
        # Exit 3 means a stalled search; an unrelated fault in the loop must
        # not be reported as one.
        def broken(cfg):
            raise RuntimeError("plant diverged")

        monkeypatch.setattr(cli.sim, "run_closed_loop", broken)
        with pytest.raises(RuntimeError, match="plant diverged"):
            cli.dispatch(["simulate", "--horizon", "4", "--t-end", "0.125"])


class TestBenchmark:
    def test_single_cell(self, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        code = cli.dispatch(["benchmark", "--horizons", "3", "--t-end", "0.0625",
                             "--mode", "perfect", "--out", str(csv), "--zero-timing"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "N,runtime_s,J_d,p_tilde,log2_candidates"
        lines = csv.read_text().splitlines()
        assert lines[0] == "N,runtime_s,J_d,p_tilde,log2_candidates"
        fields = lines[1].split(",")
        assert fields[0] == "3" and fields[1] == "0"
        assert fields[3] == "16"  # 6 N - 2 inequality rows

    def test_progress_lines_are_csv_lines(self, tmp_path, capsys):
        csv = tmp_path / "t.csv"
        code = cli.dispatch(["benchmark", "--horizons", "3", "--t-end", "0.03125",
                             "--mode", "perfect", "--out", str(csv)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == (
            csv.read_text().splitlines() + [f"wrote {csv}"])


class TestBeamBuild:
    def test_round_trip_through_lifting(self, tmp_path, capsys):
        path = tmp_path / "beam3.json"
        code = cli.dispatch(["beam", "build", "--horizon", "3", "--out", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "horizon 3" in out and "36 states" in out and "16 inequality rows" in out
        problem, meta = load_problem(path)
        assert validate(problem) == []
        assert meta["n_basis"] == 9
        assert "plant" not in json.loads(path.read_text())
        qp = lifting.build(problem)
        assert qp.p_tilde == 16
        assert qp.n_z == 6

    def test_profiles_export(self, tmp_path, capsys):
        path = tmp_path / "beam2.json"
        profiles = tmp_path / "profiles.csv"
        code = cli.dispatch(["beam", "build", "--horizon", "2", "--out", str(path),
                             "--profiles-out", str(profiles)])
        capsys.readouterr()
        assert code == 0
        lines = profiles.read_text().splitlines()
        assert lines[0] == "xi,x1,x2,x3,x4"
        assert len(lines) == 202
        first = [float(tok) for tok in lines[1].split(",")]
        assert first[0] == 0.0
        # Clamped end: transverse displacement starts at zero.
        assert abs(first[1]) < 1e-12


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code = cli.dispatch(["solve", "/nonexistent/problem.json"])
        assert code == 4
        assert "I/O error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.dispatch(["lift", str(bad)])
        assert code == 4
        assert "I/O error" in capsys.readouterr().err

    def test_undecodable_file(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert cli.dispatch(["lift", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and str(bad) in err

    def test_missing_keys(self, tmp_path, capsys):
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"plant": {"A": [[1.0]], "B": [[1.0]]}}))
        code = cli.dispatch(["lift", str(partial)])
        assert code == 4

    @pytest.mark.parametrize("edit, entry", [
        (lambda doc: doc["constraints"]["calE"].append([]), "calE must have 1 entries, got 2"),  # one stage too many
        (lambda doc: doc.update(horizon=None), "horizon must be a positive integer"),
        (lambda doc: [1, 2], ""),
        (lambda doc: doc["weights"].update(Q=5), ""),
        (lambda doc: doc["prediction_model"].update(A=[[1, 2], [3]]), ""),
        (lambda doc: doc["prediction_model"].update(A=[1.0, 2.0]), "A: expected a matrix"),
        (lambda doc: doc.update(horizon="two"), "horizon must be a positive integer"),
        (lambda doc: doc.update(horizon=1.5), "horizon must be a positive integer"),
        (lambda doc: transposed_beam_doc(), "E[1] shape (2, 6) does not match (6, 2)"),
    ], ids=["extra-calE-entry", "null-horizon", "top-level-list", "scalar-Q", "ragged-A",
            "1-D-A", "string-horizon", "fractional-horizon", "transposed-beam-E1"])
    def test_malformed_problem_names_the_file(self, edit, entry, tmp_path, capsys):
        doc = json.loads(CORNER_TOY.read_text())
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(edit(doc) or doc))
        assert cli.dispatch(["lift", str(bad)]) == 4
        err = capsys.readouterr().err
        assert "I/O error" in err and str(bad) in err and "Traceback" not in err
        assert entry in err

    def test_no_command(self, capsys):
        assert cli.dispatch([]) == 1

    def test_unknown_flag(self, capsys):
        assert cli.dispatch(["solve", str(CORNER_TOY), "--frobnicate"]) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, setting", [
        # The sampling interval is a constant: no command takes it.
        (["simulate", "--h", "0.01"], "--h"),
        (["simulate", "--h=0.01"], "--h"),
        (["benchmark", "--h", "0.01"], "--h"),
        (["beam", "build", "--h", "0.01"], "--h"),
        (["simulate", "--mode", "fd", "--n-grid", "1"], "n_grid = 1"),
        (["simulate", "--mode", "fd", "--n-grid", "9"], "n_grid = 9"),
        (["simulate", "--t-end", "-1"], "t_end = -1.0"),
        (["beam", "build", "--n-basis", "0"], "n_basis = 0"),
        (["beam", "build", "--n-basis", "-2"], "n_basis = -2"),
        (["beam", "build", "--horizon", "0"], "horizon N = 0"),
        (["beam", "build", "--horizon", "-3"], "horizon N = -3"),
        (["solve", str(CORNER_TOY), "--theta=-1,0", "--budget", "-1"], "--budget"),
        (["simulate", "--budget", "-1"], "--budget"),
        (["benchmark", "--horizons", ",", "--out", "b.csv"], "--horizons"),
        (["benchmark", "--horizons", "10,0", "--out", "b.csv"], "--horizons"),
    ])
    def test_non_physical_setting_rejected(self, argv, setting, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # beam build's default --out
        assert cli.dispatch(argv) == 1
        err = capsys.readouterr().err
        assert setting in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unrecordable_run_rejected(self):
        # 1e9 s is 1.28e11 steps, a record of tens of TiB, which numpy fails
        # to allocate at once; numpy refuses the longer ones before
        # allocating.  The child's address space is capped so that a machine
        # that overcommits memory refuses 1e9 too, instead of running on.
        src = str(Path(rfmpc.__file__).resolve().parents[1])
        t_ends = ["1e9", "1e15", "1e300"]
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (16 << 30, 16 << 30))\n"
                "from rfmpc import cli\n"
                "print([cli.dispatch(['simulate', '--t-end', t, '--horizon', '2'])\n"
                f"       for t in {t_ends}])\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "[1, 1, 1]", proc.stderr
        for t in map(float, t_ends):
            assert f"t_end = {t} is {round(t / SAMPLING_INTERVAL)} steps" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_oversized_plant_rejected(self, tmp_path):
        # A 200000-point grid and a 100000-member basis each ask numpy for a
        # dense matrix of tens of GiB.  As above, the child's address space is
        # capped so that the allocations fail at once.
        src = str(Path(rfmpc.__file__).resolve().parents[1])
        runs = [["simulate", "--mode", "fd", "--n-grid", "200000", "--t-end", "0.01"],
                ["beam", "build", "--n-basis", "100000", "--out", str(tmp_path / "b.json")]]
        code = ("import resource, sys\n"
                "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
                "from rfmpc import cli\n"
                f"print([cli.dispatch(argv) for argv in {runs}])\n")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.stdout.strip() == "[1, 1]", proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 2 and all(line.startswith("rfmpc: out of memory: ") for line in lines)
        assert not (tmp_path / "b.json").exists()

    def test_help_exits_zero(self, capsys):
        assert cli.dispatch(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out
