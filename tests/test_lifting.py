"""Condensed QP assembly cross-checked against the stage recursion and the
forward stage template."""
import copy
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from conftest import make_random_problem
from reference import (check_admissible, check_easy_slater, condense_template, eval_constraints,
                       evaluate_cost, scalar_problem, to_z)
from rfmpc import beam, lifting, solver
from rfmpc.lifting import LiftedQP
from rfmpc.problem import Parameter, StageConstraints


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
            direct = evaluate_cost(p, u, theta)
            lifted = lifting.evaluate_lifted_cost(qp, u, theta)
            np.testing.assert_allclose(lifted, direct, rtol=1e-10, atol=1e-10)

    def test_z_shift_round_trip(self):
        rng = np.random.default_rng(9)
        p = make_random_problem(rng, n_x=2, n_u=1, N=2)
        qp = lifting.build(p)
        theta = Parameter(rng.normal(size=2), rng.normal(size=1))
        u = rng.normal(size=2)
        z = to_z(qp, u, theta)
        np.testing.assert_allclose(z - qp.HinvF @ theta.as_vector(), u, atol=1e-12)
        # The solver maps its minimizer back the same way.
        res = solver.solve(qp, theta)
        np.testing.assert_allclose(to_z(qp, res.u_seq, theta), res.z_star, atol=1e-12)

    def test_zero_z_is_unconstrained_minimum(self):
        rng = np.random.default_rng(13)
        p = make_random_problem(rng, n_x=3, n_u=2, N=2)
        qp = lifting.build(p)
        theta = Parameter(rng.normal(size=3), rng.normal(size=2))
        u_star = -(qp.HinvF @ theta.as_vector())  # z = 0
        np.testing.assert_allclose(to_z(qp, u_star, theta), np.zeros(qp.n_z), atol=1e-12)
        base = lifting.evaluate_lifted_cost(qp, u_star, theta)
        for _ in range(5):
            u = u_star + 0.1 * rng.normal(size=qp.n_z)
            assert lifting.evaluate_lifted_cost(qp, u, theta) >= base - 1e-12

    def test_leading_step_axis(self):
        # (n, n_z) inputs and (n, n_theta) parameters give n costs in one
        # call; a 1-D call still gives a float.
        rng = np.random.default_rng(5)
        p = make_random_problem(rng, n_x=3, n_u=2, N=3)
        qp = lifting.build(p)
        U = rng.normal(size=(7, qp.n_z))
        TH = rng.normal(size=(7, qp.n_theta))
        costs = lifting.evaluate_lifted_cost(qp, U, TH)
        assert costs.shape == (7,)
        for u, th, cost in zip(U, TH, costs):
            theta = Parameter(th[:3], th[3:])
            single = lifting.evaluate_lifted_cost(qp, u, theta)
            assert type(single) is float
            assert cost == pytest.approx(single, rel=1e-12, abs=0)
            assert cost == pytest.approx(evaluate_cost(p, u, theta), rel=1e-10)


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
            _, direct = check_admissible(p, u, theta)
            z = to_z(qp, u, theta)
            np.testing.assert_allclose(
                eval_constraints(qp, z, theta), direct, atol=1e-9
            )

    def test_stage_offsets(self):
        rng = np.random.default_rng(1)
        p = make_random_problem(rng, n_x=2, n_u=1, N=3, rows_per_stage=2, p_hat=1)
        qp = lifting.build(p)
        stages = [s for s, _ in qp.stage_offsets]
        assert stages == [0, 0, 1, 1, 2, 2, 3]


class TestUnevenRows:
    @pytest.mark.parametrize("p_hat", [0, 2])
    def test_matches_stage_recursion(self, p_hat):
        # Stage 0 and the middle stage 2 have no rows, stage 1 three, stage 3 one.
        rng = np.random.default_rng(31 + p_hat)
        n_x, n_u, N = 3, 2, 4
        p = make_random_problem(rng, n_x=n_x, n_u=n_u, N=N, rows_per_stage=0, p_hat=p_hat)
        c = p.constraints
        for k, pk in ((1, 3), (3, 1)):
            c.d[k] = rng.uniform(0.3, 1.5, size=pk)
            c.calE[k] = rng.normal(size=(pk, n_x))
            c.calF[k] = rng.normal(size=(pk, n_u))
            c.E[k] = rng.normal(size=(pk, n_u))
        qp = lifting.build(p)
        assert qp.stage_offsets == [(1, 0), (1, 1), (1, 2), (3, 0)] + [(N, i) for i in range(p_hat)]
        for _ in range(5):
            theta = Parameter(rng.normal(size=n_x), rng.normal(size=n_u))
            u = rng.normal(size=qp.n_z)
            _, direct = check_admissible(p, u, theta)
            slack = eval_constraints(qp, to_z(qp, u, theta), theta)
            np.testing.assert_allclose(slack, direct, atol=1e-10)
            np.testing.assert_allclose(lifting.evaluate_lifted_cost(qp, u, theta),
                                       evaluate_cost(p, u, theta), rtol=1e-10)


def assert_matches_template(p):
    """``build`` against the forward template: the operators within 1e-12
    of the template's largest entry, the bounds and row labels exactly."""
    got, want = lifting.build(p), condense_template(p)
    for name in ("H", "F", "const_op", "G", "S"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * np.max(np.abs(b), initial=0.0), name
    np.testing.assert_array_equal(got.W, want.W)
    assert got.stage_offsets == want.stage_offsets


class TestAgainstTemplate:
    @pytest.mark.parametrize("n_u", [1, 2])
    @pytest.mark.parametrize("N", range(1, 7))
    def test_random_stage_varying_problems(self, N, n_u):
        # make_random_problem draws Q, R, M and V afresh for every stage.
        rng = np.random.default_rng(100 * N + n_u)
        for _ in range(3):
            p = make_random_problem(rng, n_x=int(rng.integers(1, 5)), n_u=n_u, N=N,
                                    rows_per_stage=int(rng.integers(1, 3)),
                                    p_hat=int(rng.integers(0, 3)))
            assert_matches_template(p)

    @pytest.mark.parametrize("p_hat", [0, 2])
    def test_zero_row_stages(self, p_hat):
        # Stages 0, 2 and 4 have no rows; with p_hat 0 the last rows are stage 3's.
        rng = np.random.default_rng(40 + p_hat)
        n_x, n_u, N = 3, 2, 5
        p = make_random_problem(rng, n_x=n_x, n_u=n_u, N=N, rows_per_stage=0, p_hat=p_hat)
        c = p.constraints
        for k, pk in ((1, 2), (3, 1)):
            c.d[k] = rng.uniform(0.3, 1.5, size=pk)
            c.calE[k] = rng.normal(size=(pk, n_x))
            c.calF[k] = rng.normal(size=(pk, n_u))
            c.E[k] = rng.normal(size=(pk, n_u))
        assert_matches_template(p)

    def test_no_rows_at_all(self):
        p = make_random_problem(np.random.default_rng(8), n_x=2, n_u=1, N=3,
                                rows_per_stage=0, p_hat=0)
        assert lifting.build(p).p_tilde == 0
        assert_matches_template(p)

    def test_beam_at_long_horizon(self):
        assert_matches_template(beam.make_benchmark(9, N=150).problem)


def test_build_memory_at_long_horizon():
    # The recursion carries the powers of the state matrix and P_{m+1}
    # through its loops instead of storing one per stage; stored, they would
    # take about 60 MiB more here.
    p = beam.make_benchmark(40, N=150).problem
    tracemalloc.start()
    try:
        lifting.build(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


class TestGuards:
    def test_invalid_problem_rejected(self):
        p = scalar_problem(2)
        p.weights.Q[0] = np.array([[-1.0]])
        with pytest.raises(ValueError, match="invalid problem"):
            lifting.build(p)

    def test_noncoercive_hessian_rejected(self):
        with pytest.raises(ValueError, match="not coercive"):
            lifting.build(scalar_problem(2, Q=0.0, R=0.0, P=0.0))

    def test_single_factorization_is_bitwise_unchanged(self):
        # build takes S through the QP's cached H^-1 F; it must equal the
        # product through a fresh inverse Cholesky factor, H^-1 = Li^T Li,
        # bit for bit.  With the rows' state and previous-input couplings
        # zeroed, S has no other term.
        p = beam.make_benchmark(N=30).problem
        c = p.constraints
        c.calE = [np.zeros_like(E) for E in c.calE]
        c.calF = [np.zeros_like(F) for F in c.calF]
        c.E_hat, c.F_hat = np.zeros_like(c.E_hat), np.zeros_like(c.F_hat)
        qp = lifting.build(p)
        Li = np.linalg.inv(np.linalg.cholesky(0.5 * (qp.H + qp.H.T)))
        assert np.any(qp.S)
        np.testing.assert_array_equal(qp.S, qp.G @ (Li.T @ (Li @ qp.F)))


@pytest.fixture(scope="module")
def beam_qp30():
    bench = beam.make_benchmark(N=30)
    return bench, lifting.build(bench.problem)


def random_matrices_qp():
    rng = np.random.default_rng(21)
    C = rng.normal(size=(5, 5))
    return LiftedQP.from_matrices(H=C.T @ C + np.eye(5), F=rng.normal(size=(5, 3)),
                                  G=rng.normal(size=(8, 5)), S=rng.normal(size=(8, 3)),
                                  W=rng.uniform(0.5, 1.0, size=8))


class TestCachedOperators:
    @pytest.fixture(params=["beam-30", "from-matrices"])
    def qp(self, request, beam_qp30):
        return beam_qp30[1] if request.param == "beam-30" else random_matrices_qp()

    def test_K_exactly_symmetric(self, qp):
        np.testing.assert_array_equal(qp.K, qp.K.T)

    def test_match_fresh_products(self, qp):
        Y = np.linalg.solve(qp.H, qp.G.T)
        HinvF = np.linalg.solve(qp.H, qp.F)
        for cached, fresh in ((qp.Y, Y), (qp.K, qp.G @ Y), (qp.HinvF, HinvF),
                              (qp.theta_op, np.vstack([HinvF, qp.S]))):
            assert cached.shape == fresh.shape
            assert np.max(np.abs(cached - fresh)) <= 1e-12 * np.max(np.abs(fresh))

    def test_theta_op_holds_HinvF_and_S(self, qp):
        # Each entry is stored once: HinvF and S are the row blocks of theta_op.
        assert np.shares_memory(qp.theta_op, qp.HinvF)
        assert np.shares_memory(qp.theta_op, qp.S)
        np.testing.assert_array_equal(qp.theta_op, np.vstack([qp.HinvF, qp.S]))

    def test_scales_match_fresh_computations(self, qp):
        assert qp.G_max == np.max(np.abs(qp.G))
        assert qp.bound_scale == 1.0 + np.max(np.abs(qp.W))
        assert qp.K_scale == np.sqrt(np.max(np.diag(qp.K)))

    def test_sizes_are_fields_set_at_construction(self, qp):
        names = {f.name for f in dataclasses.fields(qp)}
        assert {"n_z", "n_theta", "p_tilde"} <= names
        assert (vars(qp)["n_z"], vars(qp)["p_tilde"]) == (qp.H.shape[0], qp.G.shape[0])
        assert vars(qp)["n_theta"] == qp.F.shape[1] == qp.S.shape[1]

    def test_zero_vectors_are_read_only(self, qp):
        # Every result accepted at the empty set shares these two arrays.
        for zero, n in ((qp.origin, qp.n_z), (qp.zero_lam, qp.p_tilde)):
            assert zero.shape == (n,) and not zero.any()
            assert not zero.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                zero[0] = 1.0

    def test_from_matrices_keeps_the_callers_S(self, qp):
        S = qp.S.copy()
        wrapped = LiftedQP.from_matrices(H=qp.H, F=qp.F, G=qp.G, S=S, W=qp.W)
        np.testing.assert_array_equal(wrapped.S, S)
        assert not np.shares_memory(wrapped.S, S)

    def test_build_S_is_bitwise_the_difference(self, beam_qp30):
        # build completes S in place as -rows_theta + G H^-1 F, which is
        # G H^-1 F - rows_theta bit for bit.
        bench, qp = beam_qp30
        rows_theta = lifting._condense(bench.problem)[4]
        assert np.any(rows_theta)
        np.testing.assert_array_equal(qp.S, qp.G @ qp.HinvF - rows_theta)

    def test_solves_apply_no_inverse(self, beam_qp30):
        # A query reads the operators cached at build time: neither a cold
        # nor a warm solve reads H, so a copy whose H is NaN gives the same
        # results, bit for bit.
        bench, qp = beam_qp30
        blind = copy.copy(qp)
        blind.H = np.full_like(qp.H, np.nan)
        theta = Parameter(2.0 * bench.x0, np.zeros(qp.n_u))

        def cold_and_warm(q):
            cold = solver.solve(q, theta)
            return cold, solver.solve(q, theta, warm=cold.active_set)

        def counts(res):
            return res.stats.candidates_visited, res.stats.kkt_solves, res.stats.licq_failures

        cold, warm = cold_and_warm(qp)
        assert cold.status is warm.status is solver.SolveStatus.OPTIMAL
        assert len(cold.active_set) > 0 and warm.stats.kkt_solves == 1
        for got, want in zip(cold_and_warm(blind), (cold, warm)):
            assert got.status is want.status and got.active_set == want.active_set
            np.testing.assert_array_equal(got.z_star, want.z_star)
            assert counts(got) == counts(want)


class TestFromMatrices:
    def test_wraps_raw_data(self):
        qp = LiftedQP.from_matrices(H=2.0, F=[[1.0, 0.0]], G=[[-1.0]], S=[[1.0, 0.0]], W=[0.0])
        assert qp.n_z == 1
        assert qp.p_tilde == 1
        np.testing.assert_allclose(qp.HinvF, [[0.5, 0.0]])
        np.testing.assert_allclose(qp.Y, [[-0.5]])
        np.testing.assert_allclose(qp.K, [[0.5]])

    def test_indefinite_hessian_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            LiftedQP.from_matrices(H=[[1.0, 2.0], [2.0, 1.0]], F=np.zeros((2, 1)), G=[[1.0, 0.0]],
                                   S=[[0.0]], W=[1.0])

    @pytest.mark.parametrize("S, W, match", [
        (np.zeros((2, 1)), [1.0, 2.0, 3.0], r"W has shape \(3,\), the QP's G and F need \(2,\)"),
        (np.zeros((2, 2)), [1.0, 2.0], r"S has shape \(2, 2\), the QP's G and F need \(2, 1\)"),
        (np.zeros((3, 1)), [1.0, 2.0], r"S has shape \(3, 1\)"),
    ], ids=["W-length", "S-columns", "S-rows"])
    def test_mismatched_data_raises_at_construction(self, S, W, match):
        with pytest.raises(ValueError, match=match):
            LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)), G=np.eye(2), S=S, W=W)

    @pytest.mark.parametrize("W, rows", [([np.inf, -5.0], [0]), ([np.inf, -5.0, 3.0], [0]),
                                         ([1.0, np.nan, -np.inf], [1, 2])])
    def test_non_finite_bounds_raise_at_construction(self, W, rows):
        # An infinite W once made bound_scale, and so the search's band,
        # infinite: solve then accepted z = 0 with z >= 5 violated.
        G = [[1.0], [-1.0], [1.0]][: len(W)]
        with pytest.raises(ValueError, match=re.escape(f"W must be finite, but its rows {rows} are not")):
            LiftedQP.from_matrices(H=1.0, F=[[0.0]], G=G, S=np.zeros((len(W), 1)), W=W)

    def test_empty_constraints(self):
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 2)), G=[], S=[], W=[])
        assert qp.p_tilde == 0
        assert check_easy_slater(qp)


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
        assert check_easy_slater(lifting.build(p))

    def test_state_rows_defeat_inspection(self):
        rng = np.random.default_rng(4)
        p = make_random_problem(rng, n_x=2, n_u=1, N=2)
        assert not check_easy_slater(lifting.build(p))

    def test_zero_S_from_matrices(self):
        # z = 0 has slack W for every theta, whatever F is.
        qp = LiftedQP.from_matrices(H=np.eye(2), F=[[1.0, -2.0], [0.5, 3.0]],
                                    G=[[1.0, 0.0], [-1.0, 1.0]], S=np.zeros((2, 2)), W=[0.5, 2.0])
        assert check_easy_slater(qp)

    def test_S_through_zero_input(self):
        # S = G H^-1 F: the zero input u = 0 has slack W for every theta.
        rng = np.random.default_rng(6)
        C = rng.normal(size=(3, 3))
        H, F, G = C.T @ C + np.eye(3), rng.normal(size=(3, 2)), rng.normal(size=(4, 3))
        qp = LiftedQP.from_matrices(H=H, F=F, G=G, S=np.zeros((4, 2)), W=np.ones(4))
        qp = LiftedQP.from_matrices(H=H, F=F, G=G, S=G @ qp.HinvF, W=np.ones(4))
        assert np.any(qp.S)
        assert check_easy_slater(qp)
        theta = rng.normal(size=2)
        slack = eval_constraints(qp, to_z(qp, np.zeros(3), theta), theta)
        np.testing.assert_allclose(slack, qp.W, atol=1e-12)

    def test_zero_bound_defeats_inspection(self):
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 2)), G=np.eye(2),
                                    S=np.zeros((2, 2)), W=[1.0, 0.0])
        assert not check_easy_slater(qp)
