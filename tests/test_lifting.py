"""Condensed QP assembly cross-checked against the stage recursion."""
import numpy as np
import pytest
from scipy import linalg as sla

from conftest import make_random_problem
from rfmpc import beam, lifting, problem as pb
from rfmpc.lifting import LiftedQP
from rfmpc.problem import (
    Parameter,
    PlantModel,
    ProblemDefinition,
    StageConstraints,
    StageWeights,
)


def scalar_problem(N, A=1.0, B=1.0, Q=1.0, R=1.0, P=1.0, V=0.0):
    w = StageWeights.constant(Q=Q, R=R, P=P, N=N, V=V)
    return ProblemDefinition(
        PlantModel(A, B), w, StageConstraints.unconstrained(N, 1, 1), N
    )


class TestHandValues:
    def test_single_stage(self):
        # N=1, everything 1: H = B P B + R = 2, F pairs u with [x, u_prev].
        qp = lifting.build(scalar_problem(1))
        np.testing.assert_allclose(qp.H, [[2.0]])
        np.testing.assert_allclose(qp.F, [[1.0, 0.0]])

    def test_two_stages_with_rate_penalty(self):
        qp = lifting.build(scalar_problem(2, V=1.0))
        np.testing.assert_allclose(qp.H, [[5.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(qp.F, [[2.0, -1.0], [1.0, 0.0]])

    def test_dimensions(self):
        rng = np.random.default_rng(0)
        p = make_random_problem(rng, n_x=3, n_u=2, N=3, rows_per_stage=2, p_hat=1)
        qp = lifting.build(p)
        assert qp.n_z == 6
        assert qp.n_theta == 5
        assert qp.p_tilde == 7
        assert qp.H.shape == (6, 6)
        assert qp.F.shape == (6, 5)
        assert qp.G.shape == (7, 6)
        assert qp.S.shape == (7, 5)
        assert qp.W.shape == (7,)


class TestLiftedDynamics:
    def test_stacked_powers(self):
        A = np.array([[0.5, 1.0], [0.0, 0.5]])
        B = np.array([[0.0], [1.0]])
        dyn = lifting.lift_dynamics(PlantModel(A, B), 3)
        np.testing.assert_allclose(dyn.A_tilde[2:4], A @ A)
        np.testing.assert_allclose(dyn.B_tilde[4:6, 0:1], A @ A @ B)
        np.testing.assert_allclose(dyn.B_tilde[0:2, 2:3], 0.0)

    def test_rollout_matches_recursion(self):
        rng = np.random.default_rng(5)
        p = make_random_problem(rng, n_x=3, n_u=2, N=3)
        dyn = lifting.lift_dynamics(p.prediction_model, 3)
        x0 = rng.normal(size=3)
        u = rng.normal(size=6)
        stacked = dyn.A_tilde @ x0 + dyn.B_tilde @ u
        xs = pb.predict_trajectory(p, u, x0)
        np.testing.assert_allclose(stacked, xs[1:].ravel(), atol=1e-12)


class TestCostEquivalence:
    def test_lifted_cost_equals_recursion(self):
        # The strongest check of H, F and the constant operator at once.
        rng = np.random.default_rng(42)
        for _ in range(20):
            p = make_random_problem(
                rng,
                n_x=int(rng.integers(1, 4)),
                n_u=int(rng.integers(1, 3)),
                N=int(rng.integers(1, 4)),
            )
            qp = lifting.build(p)
            theta = Parameter(rng.normal(size=p.n_x), rng.normal(size=p.n_u))
            u = rng.normal(size=qp.n_z)
            direct = pb.evaluate_cost(p, u, theta)
            lifted = lifting.evaluate_lifted_cost(qp, u, theta)
            np.testing.assert_allclose(lifted, direct, rtol=1e-10, atol=1e-10)

    def test_z_shift_round_trip(self):
        rng = np.random.default_rng(9)
        p = make_random_problem(rng, n_x=2, n_u=1, N=2)
        qp = lifting.build(p)
        theta = Parameter(rng.normal(size=2), rng.normal(size=1))
        u = rng.normal(size=2)
        z = lifting.to_z(qp, u, theta)
        np.testing.assert_allclose(lifting.from_z(qp, z, theta), u, atol=1e-12)

    def test_zero_z_is_unconstrained_minimum(self):
        rng = np.random.default_rng(13)
        p = make_random_problem(rng, n_x=3, n_u=2, N=2)
        qp = lifting.build(p)
        theta = Parameter(rng.normal(size=3), rng.normal(size=2))
        u_star = lifting.from_z(qp, np.zeros(qp.n_z), theta)
        base = lifting.evaluate_lifted_cost(qp, u_star, theta)
        for _ in range(5):
            u = u_star + 0.1 * rng.normal(size=qp.n_z)
            assert lifting.evaluate_lifted_cost(qp, u, theta) >= base - 1e-12


class TestConstraintEquivalence:
    def test_slacks_match_stage_evaluation(self):
        # G, S, W and the row ordering against the direct stage slacks.
        rng = np.random.default_rng(77)
        for _ in range(20):
            p = make_random_problem(
                rng,
                n_x=int(rng.integers(1, 4)),
                n_u=int(rng.integers(1, 3)),
                N=int(rng.integers(1, 4)),
                rows_per_stage=int(rng.integers(1, 3)),
                p_hat=int(rng.integers(0, 3)),
            )
            qp = lifting.build(p)
            theta = Parameter(rng.normal(size=p.n_x), rng.normal(size=p.n_u))
            u = rng.normal(size=qp.n_z)
            _, direct = pb.check_admissible(p, u, theta)
            z = lifting.to_z(qp, u, theta)
            np.testing.assert_allclose(
                lifting.eval_constraints(qp, z, theta), direct, atol=1e-9
            )

    def test_stage_offsets(self):
        rng = np.random.default_rng(1)
        p = make_random_problem(rng, n_x=2, n_u=1, N=3, rows_per_stage=2, p_hat=1)
        qp = lifting.build(p)
        stages = [s for s, _ in qp.constraints.stage_offsets]
        assert stages == [0, 0, 1, 1, 2, 2, 3]

    def test_block_retention(self):
        rng = np.random.default_rng(2)
        p = make_random_problem(rng, n_x=2, n_u=1, N=2)
        assert lifting.build(p).constraints.blocks is None
        blocks = lifting.build(p, keep_blocks=True).constraints.blocks
        assert set(blocks) == {"E0_t", "E1_t", "E_t"}


class TestGuards:
    def test_invalid_problem_rejected(self):
        p = scalar_problem(2)
        p.weights.Q[0] = np.array([[-1.0]])
        with pytest.raises(ValueError, match="invalid problem"):
            lifting.build(p)

    def test_noncoercive_hessian_rejected(self):
        with pytest.raises(ValueError, match="not coercive"):
            lifting.build(scalar_problem(2, Q=0.0, R=0.0, P=0.0))

    def test_coercivity_measure(self):
        assert lifting.check_coercivity(np.diag([2.0, 5.0])) == pytest.approx(2.0)

    def test_single_factorization_is_bitwise_unchanged(self):
        # build takes eps from one eigvalsh and S through the QP's cached
        # Cholesky factor; both must equal the separate computations
        # (check_coercivity, a fresh cho_factor) bit for bit.
        qp = lifting.build(beam.make_benchmark(N=30).problem, keep_blocks=True)
        blocks = qp.constraints.blocks
        chol = sla.cho_factor(0.5 * (qp.H + qp.H.T), lower=True)
        S = (qp.G @ sla.cho_solve(chol, qp.F)
             - np.hstack([blocks["E1_t"] @ qp.dynamics.A_tilde, np.zeros((qp.p_tilde, qp.n_u))])
             - blocks["E0_t"])
        assert qp.cost.eps == lifting.check_coercivity(qp.H)
        np.testing.assert_array_equal(qp.S, S)


class TestFromMatrices:
    def test_wraps_raw_data(self):
        qp = LiftedQP.from_matrices(H=2.0, F=[[1.0, 0.0]], G=[[-1.0]], S=[[1.0, 0.0]], W=[0.0])
        assert qp.n_z == 1
        assert qp.p_tilde == 1
        np.testing.assert_allclose(qp.solve_H(np.array([4.0])), [2.0])

    def test_empty_constraints(self):
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 2)), G=[], S=[], W=[])
        assert qp.p_tilde == 0
        assert lifting.check_easy_slater(qp)


class TestSlaterInspection:
    def test_input_box_only(self):
        p = scalar_problem(2)
        p.constraints = StageConstraints(
            d=[np.array([1.0, 1.0])] * 2,
            calE=[np.zeros((2, 1))] * 2,
            calF=[np.zeros((2, 1))] * 2,
            E=[np.array([[1.0], [-1.0]])] * 2,
            d_hat=np.zeros(0),
            E_hat=np.zeros((0, 1)),
            F_hat=np.zeros((0, 1)),
        )
        assert lifting.check_easy_slater(lifting.build(p))

    def test_state_rows_defeat_inspection(self):
        rng = np.random.default_rng(4)
        p = make_random_problem(rng, n_x=2, n_u=1, N=2)
        assert not lifting.check_easy_slater(lifting.build(p))
