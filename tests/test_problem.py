"""Problem data validation, cost recursion, and JSON round-trips."""
import json

import numpy as np
import pytest

from conftest import make_random_problem
from rfmpc import problem as pb
from rfmpc.problem import (
    Parameter,
    PlantModel,
    ProblemDefinition,
    StageConstraints,
    StageWeights,
)


def tiny_problem(N=2):
    w = StageWeights.constant(Q=1.0, R=1.0, P=1.0, N=N, V=0.5)
    c = StageConstraints.unconstrained(N, 1, 1)
    return ProblemDefinition(PlantModel(0.8, 1.0), w, c, N)


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


class TestPrediction:
    def test_trajectory_recursion(self):
        p = tiny_problem()
        xs = pb.predict_trajectory(p, [1.0, -2.0], x0=3.0)
        np.testing.assert_allclose(xs[:, 0], [3.0, 0.8 * 3 + 1, 0.8 * (0.8 * 3 + 1) - 2])

    def test_cost_matches_manual_sum(self):
        p = tiny_problem()
        theta = Parameter(x=[1.0], u_prev=[0.5])
        u = np.array([0.3, -0.2])
        xs = pb.predict_trajectory(p, u, theta.x)[:, 0]
        manual = (
            xs[0] ** 2 + u[0] ** 2 + 0.5 * (u[0] - 0.5) ** 2
            + xs[1] ** 2 + u[1] ** 2 + 0.5 * (u[1] - u[0]) ** 2
            + xs[2] ** 2 + 0.5 * u[1] ** 2
        )
        assert pb.evaluate_cost(p, u, theta) == pytest.approx(manual, rel=1e-12)

    def test_bad_input_length(self):
        with pytest.raises(ValueError, match="does not match horizon"):
            pb.evaluate_cost(tiny_problem(), [1.0, 2.0, 3.0], Parameter([0.0], [0.0]))


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
        ok, slacks = pb.check_admissible(p, u, theta)
        xs = pb.predict_trajectory(p, u, theta.x)[:, 0]
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
        ok, slacks = pb.check_admissible(p, [1.0, 0.0], Parameter([0.0], [0.0]))
        assert not ok
        assert slacks[0] == pytest.approx(-0.9)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        p = make_random_problem(rng, n_x=3, n_u=2, N=2, rows_per_stage=2, p_hat=1)
        path = tmp_path / "problem.json"
        pb.save_problem(path, p, meta={"note": "round trip"})
        assert "plant" not in json.loads(path.read_text())
        # Older files also carry a "plant" entry, which loading ignores.
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps({"plant": {"A": [[0.5]], "B": [[2.0]]},
                                      **json.loads(path.read_text())}))
        for source in (path, legacy):
            q, meta = pb.load_problem(source)
            assert meta == {"note": "round trip"}
            np.testing.assert_allclose(q.prediction_model.A, p.prediction_model.A)
            np.testing.assert_allclose(q.prediction_model.B, p.prediction_model.B)
            for k in range(p.horizon):
                np.testing.assert_allclose(q.weights.Q[k], p.weights.Q[k])
                np.testing.assert_allclose(q.constraints.calE[k], p.constraints.calE[k])
                np.testing.assert_allclose(q.constraints.d[k], p.constraints.d[k])
            np.testing.assert_allclose(q.weights.P, p.weights.P)
            np.testing.assert_allclose(q.constraints.E_hat, p.constraints.E_hat)
            assert q.horizon == p.horizon

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


class TestParameter:
    def test_vector_concatenation(self):
        theta = Parameter(x=[1.0, 2.0], u_prev=[3.0])
        np.testing.assert_allclose(theta.as_vector(), [1.0, 2.0, 3.0])

    def test_matrix_coercion_rejects_vectors(self):
        with pytest.raises(ValueError, match="expected a matrix"):
            PlantModel(np.array([1.0, 2.0]), 1.0)
