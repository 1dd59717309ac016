"""Problem data validation, cost recursion, and JSON round-trips."""
import json
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_random_problem
from reference import check_admissible, evaluate_cost, predict_trajectory, scalar_problem
from rfmpc import lifting
from rfmpc import problem as pb
from rfmpc.beam import make_benchmark
from rfmpc.problem import Parameter, PlantModel, StageConstraints

CORNER_TOY = Path(lifting.__file__).with_name("data") / "corner_toy.json"


def tiny_problem(N=2):
    return scalar_problem(N, A=0.8, V=0.5)


class TestValidate:
    def test_valid_problem_reports_nothing(self):
        assert pb.validate(tiny_problem()) == []

    def test_random_problems_are_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = make_random_problem(rng, n_x=3, n_u=2, N=3)
            assert pb.validate(p) == []

    def test_wrong_weight_count(self):
        p = tiny_problem()
        p.weights.Q = p.weights.Q[:1]
        report = pb.validate(p)
        assert any("Q must have 2 entries" in r for r in report)

    def test_v_has_horizon_plus_one_entries(self):
        p = tiny_problem()
        p.weights.V = p.weights.V[:2]
        report = pb.validate(p)
        assert any("V must have 3 entries" in r for r in report)

    def test_indefinite_stage_block(self):
        p = tiny_problem()
        p.weights.Q[0] = np.array([[-1.0]])
        report = pb.validate(p)
        assert any("not positive semidefinite" in r for r in report)

    def test_cross_term_can_break_joint_convexity(self):
        # Q and R are each fine, but the off-diagonal coupling is too large.
        p = tiny_problem()
        p.weights.M[0] = np.array([[5.0]])
        report = pb.validate(p)
        assert any("[[Q, M], [M.T, R]]" in r for r in report)

    def test_negative_bound_rejected(self):
        p = tiny_problem()
        p.constraints.d[0] = np.array([-0.1])
        p.constraints.calE[0] = np.zeros((1, 1))
        p.constraints.calF[0] = np.zeros((1, 1))
        p.constraints.E[0] = np.ones((1, 1))
        report = pb.validate(p)
        assert any("negative entries" in r for r in report)

    def test_shape_mismatch_reported(self):
        p = tiny_problem()
        p.prediction_model.B = np.ones((2, 1))
        report = pb.validate(p)
        assert any("B shape" in r for r in report)

    def test_nonfinite_entries(self):
        p = tiny_problem()
        p.weights.P = np.array([[np.nan]])
        assert any("non-finite" in r for r in pb.validate(p))
        # An infinite weight is reported as such, before any symmetry or
        # eigenvalue check could warn about it.
        for name in ("Q", "R", "M", "V", "P"):
            for bad in (np.inf, -np.inf):
                p = tiny_problem()
                if name == "P":
                    p.weights.P = np.array([[bad]])
                else:
                    getattr(p.weights, name)[0] = np.array([[bad]])
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert pb.validate(p) == [f"{name} contains non-finite entries"]
        # Every constraint matrix, on a problem with one row per stage and
        # one terminal row.
        for name in ("calE", "calF", "E", "E_hat", "F_hat"):
            for bad in (np.nan, np.inf, -np.inf):
                p = tiny_problem()
                c = p.constraints
                c.d, c.d_hat = [np.ones(1)] * 2, np.ones(1)
                c.calE, c.calF, c.E = ([np.ones((1, 1))] * 2 for _ in range(3))
                c.E_hat, c.F_hat = np.ones((1, 1)), np.ones((1, 1))
                assert pb.validate(p) == []
                if name in ("E_hat", "F_hat"):
                    setattr(c, name, np.array([[bad]]))
                else:
                    getattr(c, name)[1] = np.array([[bad]])
                assert pb.validate(p) == [f"{name} contains non-finite entries"]

    def test_wrong_bound_count_reports_only_d(self):
        # The stage rows are counted by d, so the matrices that have them are
        # not shape-checked while d has the wrong count.
        p = tiny_problem()
        p.constraints.d = p.constraints.d + [np.zeros(0)]
        p.constraints.E[0] = np.ones((3, 3))
        assert pb.validate(p) == ["constraints.d must have 2 entries, got 3"]

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_empty_horizon(self, horizon):
        p = replace(tiny_problem(), horizon=horizon)
        assert pb.validate(p) == [f"horizon must be >= 1, got {horizon}"]

    def test_problem_without_inputs(self, tmp_path):
        # Every input-sized entry is empty, so the file loads with n_u = 0.
        doc = pb.to_json_dict(tiny_problem(N=1))
        doc["prediction_model"]["B"] = [[]]
        doc["weights"].update(R=[[]], M=[[]], V=[[], []])
        path = tmp_path / "no_input.json"
        path.write_text(json.dumps(doc))
        q, _ = pb.load_problem(path)
        assert q.n_u == 0
        assert pb.validate(q) == ["B has no columns: the problem needs an input"]
        with pytest.raises(ValueError, match="B has no columns"):
            lifting.build(q)

    def test_problem_without_state(self, tmp_path):
        # With no state every A-, Q- and P-sized block is empty; its file
        # would carry B = [] (0 x 1), which loading rejects as a 1-D matrix,
        # so save_problem refuses it before it opens the file.
        N = 1
        p = pb.ProblemDefinition(
            PlantModel(np.zeros((0, 0)), np.zeros((0, 1))),
            pb.StageWeights(Q=[np.zeros((0, 0))], R=[np.eye(1)], M=[np.zeros((0, 1))],
                            V=[np.eye(1)] * (N + 1), P=np.zeros((0, 0))),
            StageConstraints(d=[np.ones(1)], calE=[np.zeros((1, 0))], calF=[np.zeros((1, 1))],
                             E=[np.eye(1)], d_hat=np.zeros(0), E_hat=np.zeros((0, 0)),
                             F_hat=np.zeros((0, 1))),
            N)
        assert pb.validate(p) == ["A has no rows: the problem needs a state"]
        with pytest.raises(ValueError, match="A has no rows: the problem needs a state"):
            lifting.build(p)
        path = tmp_path / "no_state.json"
        with pytest.raises(ValueError, match="invalid problem: A has no rows: the problem needs a state"):
            pb.save_problem(path, p)
        assert not path.exists()


class TestValidatePerStage:
    """``validate`` judges each distinct weight block once and reports it at
    every stage that has it."""

    def test_shared_bad_blocks_reported_at_every_stage(self):
        p = make_random_problem(np.random.default_rng(3), n_x=2, n_u=2, N=3)
        p.weights.Q = [np.diag([-1.0, 0.0])] * 3
        p.weights.M = [np.zeros((2, 2))] * 3
        p.weights.R = [np.eye(2)] * 3
        p.weights.V = [np.array([[1.0, 2.0], [0.0, 1.0]])] * 4
        assert pb.validate(p) == (
            [f"[[Q, M], [M.T, R]] block at stage {k} is not positive semidefinite (min eig -1.000e+00)"
             for k in range(3)]
            + [f"V[{k}] is not symmetric" for k in range(4)])

    def test_one_bad_stage_among_equal_blocks(self):
        p = tiny_problem(N=5)
        p.weights.M[2] = np.array([[5.0]])
        p.weights.V[3] = np.array([[-0.5]])
        assert pb.validate(p) == [
            "[[Q, M], [M.T, R]] block at stage 2 is not positive semidefinite (min eig -4.000e+00)",
            "V[3] is not positive semidefinite (min eig -5.000e-01)",
        ]

    def test_json_round_trip_gives_identical_report(self, tmp_path, monkeypatch):
        p = tiny_problem(N=4)
        p.weights.Q = [np.array([[-1.0]])] * 4
        p.weights.V[1] = np.array([[-0.5]])
        path = tmp_path / "p.json"
        # save_problem refuses an invalid problem, so the file is written
        # from its JSON document, as save_problem writes a valid one.
        with pytest.raises(ValueError, match="invalid problem"):
            pb.save_problem(path, p)
        path.write_text(json.dumps(pb.to_json_dict(p)))
        loaded, _ = pb.load_problem(path)
        assert loaded.weights.Q[0] is not loaded.weights.Q[1]
        report = pb.validate(p)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: calls.append(A) or eigvalsh(A))
        assert pb.validate(loaded) == report and len(report) == 5
        # One joint block, two distinct V blocks and P: four judgements, not ten.
        assert len(calls) == 4


class TestValidateSharedEntries:
    """``validate`` checks each distinct array once for finiteness and sign,
    as the beam shares one array per stage block, and reports every entry
    as if it had been checked on its own."""

    @staticmethod
    def shared(N=4):
        """A random problem whose stage arrays are one array per field."""
        p = make_random_problem(np.random.default_rng(5), n_x=2, n_u=1, N=N)
        w, c = p.weights, p.constraints
        w.Q, w.R, w.M, c.d, c.calE, c.calF, c.E = (
            [entries[0]] * N for entries in (w.Q, w.R, w.M, c.d, c.calE, c.calF, c.E))
        w.V = [w.V[0]] * (N + 1)
        return p

    def test_one_finiteness_check_per_distinct_array(self, monkeypatch):
        p = self.shared()
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a) or isfinite(a))
        assert pb.validate(p) == []
        # A, B, P, d_hat, E_hat, F_hat and one array for each of the 8 stage
        # fields, where each of the 39 entries used to get its own check.
        assert len(calls) == 14

    def test_bad_shared_entries_reported_per_entry(self):
        p = self.shared()
        p.constraints.d = [np.array([-0.1, 1.0])] * 4
        assert pb.validate(p) == [f"d[{k}] has negative entries (min -1.000e-01)" for k in range(4)]
        p.constraints.d[2] = np.array([1.0, -0.2])
        assert pb.validate(p) == [f"d[{k}] has negative entries (min -{0.2 if k == 2 else 0.1:.3e})"
                                  for k in range(4)]
        p = self.shared()
        p.constraints.E = [np.array([[np.inf], [0.0]])] * 4
        p.weights.V = [np.array([[np.nan]])] * 5
        assert pb.validate(p) == ["V contains non-finite entries", "E contains non-finite entries"]
        p = self.shared()
        p.constraints.calE = [np.ones((2, 3))] * 4
        assert pb.validate(p) == [f"calE[{k}] shape (2, 3) does not match (2, 2)" for k in range(4)]


class TestPrediction:
    def test_trajectory_recursion(self):
        p = tiny_problem()
        xs = predict_trajectory(p, [1.0, -2.0], x0=3.0)
        np.testing.assert_allclose(xs[:, 0], [3.0, 0.8 * 3 + 1, 0.8 * (0.8 * 3 + 1) - 2])

    def test_cost_matches_manual_sum(self):
        p = tiny_problem()
        theta = Parameter(x=[1.0], u_prev=[0.5])
        u = np.array([0.3, -0.2])
        xs = predict_trajectory(p, u, theta.x)[:, 0]
        manual = (
            xs[0] ** 2 + u[0] ** 2 + 0.5 * (u[0] - 0.5) ** 2
            + xs[1] ** 2 + u[1] ** 2 + 0.5 * (u[1] - u[0]) ** 2
            + xs[2] ** 2 + 0.5 * u[1] ** 2
        )
        assert evaluate_cost(p, u, theta) == pytest.approx(manual, rel=1e-12)

    def test_bad_input_length(self):
        with pytest.raises(ValueError, match="does not match horizon"):
            evaluate_cost(tiny_problem(), [1.0, 2.0, 3.0], Parameter([0.0], [0.0]))


class TestAdmissibility:
    def test_slack_stacking(self):
        p = tiny_problem()
        p.constraints = StageConstraints(
            d=[np.array([1.0]), np.array([2.0])],
            calE=[np.array([[1.0]]), np.array([[0.0]])],
            calF=[np.array([[0.0]]), np.array([[0.0]])],
            E=[np.array([[1.0]]), np.array([[1.0]])],
            d_hat=np.array([3.0]),
            E_hat=np.array([[1.0]]),
            F_hat=np.array([[0.0]]),
        )
        theta = Parameter([0.5], [0.0])
        u = np.array([0.25, 0.0])
        ok, slacks = check_admissible(p, u, theta)
        xs = predict_trajectory(p, u, theta.x)[:, 0]
        np.testing.assert_allclose(
            slacks, [1.0 - xs[0] - u[0], 2.0 - u[1], 3.0 - xs[2]]
        )
        assert ok

    def test_violation_detected(self):
        p = tiny_problem()
        p.constraints = StageConstraints(
            d=[np.array([0.1]), np.zeros(0)],
            calE=[np.zeros((1, 1)), np.zeros((0, 1))],
            calF=[np.zeros((1, 1)), np.zeros((0, 1))],
            E=[np.array([[1.0]]), np.zeros((0, 1))],
            d_hat=np.zeros(0),
            E_hat=np.zeros((0, 1)),
            F_hat=np.zeros((0, 1)),
        )
        ok, slacks = check_admissible(p, [1.0, 0.0], Parameter([0.0], [0.0]))
        assert not ok
        assert slacks[0] == pytest.approx(-0.9)


def _arrays(p):
    """``(label, array)`` of every problem array, in field order."""
    for record in (p.prediction_model, p.weights, p.constraints):
        for f in fields(record):
            value = getattr(record, f.name)
            for k, a in enumerate(value if isinstance(value, list) else [value]):
                yield f"{f.name}[{k}]", a


def _assert_same_arrays(p, q):
    """``q`` has ``p``'s horizon and, field by field, its arrays' labels, shapes and bits."""
    assert q.horizon == p.horizon
    expected, loaded = list(_arrays(p)), list(_arrays(q))
    assert [label for label, _ in loaded] == [label for label, _ in expected]
    for (label, a), (_, b) in zip(expected, loaded):
        assert (label, b.shape, b.tobytes()) == (label, a.shape, a.tobytes())


class TestSerialization:
    @pytest.mark.parametrize("dims, row_free_stage", [
        (dict(n_x=3, n_u=2, N=2, rows_per_stage=2, p_hat=1), False),
        (dict(n_x=3, n_u=2, N=3, rows_per_stage=2, p_hat=0), True),
        (dict(n_x=2, n_u=1, N=2, rows_per_stage=0, p_hat=0), False),
        (dict(n_x=1, n_u=2, N=1, rows_per_stage=0, p_hat=2), False),
    ], ids=["rows", "row-free-stage-0", "unconstrained", "terminal-only"])
    def test_round_trip(self, tmp_path, dims, row_free_stage):
        rng = np.random.default_rng(11)
        p = make_random_problem(rng, **dims)
        if row_free_stage:
            c = p.constraints
            c.d[0], c.calE[0] = np.zeros(0), np.zeros((0, dims["n_x"]))
            c.calF[0], c.E[0] = np.zeros((0, dims["n_u"])), np.zeros((0, dims["n_u"]))
        assert pb.validate(p) == []
        path = tmp_path / "problem.json"
        pb.save_problem(path, p, meta={"note": "round trip"})
        saved = json.loads(path.read_text())
        assert "plant" not in saved
        # Older files also carry a "plant" entry, which loading ignores.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"plant": {"A": [[0.5]], "B": [[2.0]]}, **saved}))
        for source in (path, legacy):
            q, meta = pb.load_problem(source)
            assert meta == {"note": "round trip"}
            _assert_same_arrays(p, q)
            assert pb.to_json_dict(q) == {k: v for k, v in saved.items() if k != "meta"}

    def test_transposed_block_is_rejected(self, tmp_path):
        # A block of the right size but the wrong shape is not reshaped.
        p = make_random_problem(np.random.default_rng(3), n_x=3, n_u=2, N=2)
        doc = pb.to_json_dict(p)
        assert np.shape(doc["constraints"]["calE"][0]) == (2, 3)
        doc["constraints"]["calE"][0] = np.transpose(doc["constraints"]["calE"][0]).tolist()
        path = tmp_path / "transposed.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(OSError, match=r"transposed\.json.*calE\[0\] shape \(3, 2\) does not match \(2, 3\)"):
            pb.load_problem(path)

    def test_zero_row_blocks_survive(self, tmp_path):
        # Stages without constraint rows serialize as empty lists and must
        # come back with the right (0, n) shapes.
        p = tiny_problem()
        path = tmp_path / "unconstrained.json"
        pb.save_problem(path, p)
        q, _ = pb.load_problem(path)
        assert q.constraints.calE[0].shape == (0, 1)
        assert q.constraints.E_hat.shape == (0, 1)
        assert pb.validate(q) == []

    @pytest.mark.parametrize("source", ["beam-N1", "beam-N2", "corner-toy"])
    def test_valid_problems_round_trip(self, tmp_path, source):
        # A problem that validate accepts comes back from its JSON document,
        # and from the file save_problem writes, equal field by field.
        if source == "corner-toy":
            p, _ = pb.load_problem(CORNER_TOY)
        else:
            p = make_benchmark(N=int(source[-1])).problem
        assert pb.validate(p) == []
        _assert_same_arrays(p, pb.from_json_dict(json.loads(json.dumps(pb.to_json_dict(p)))))
        path = tmp_path / "problem.json"
        pb.save_problem(path, p)
        _assert_same_arrays(p, pb.load_problem(path)[0])


class TestParameter:
    def test_vector_concatenation(self):
        theta = Parameter(x=[1.0, 2.0], u_prev=[3.0])
        np.testing.assert_allclose(theta.as_vector(), [1.0, 2.0, 3.0])

    def test_matrix_coercion_rejects_vectors(self):
        with pytest.raises(ValueError, match="expected a matrix"):
            PlantModel(np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="B: expected a matrix"):
            PlantModel(1.0, [])
