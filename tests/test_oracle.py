"""Reference solvers: exhaustive enumeration and dual coordinate ascent."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import random_feasible_query
from reference import dual_ascent, enumerate_active_sets
from rfmpc import solver
from rfmpc.lifting import LiftedQP
from rfmpc.solver import SolveStatus


def box_qp(lo=-1.0, hi=1.0, pull=2.0):
    """min (u - pull)^2 / 2 over [lo, hi], with the pull as the parameter.

    In the shifted coordinate z = u - pull the box rows need the coupling
    S = G H^{-1} F so that the feasible set tracks the parameter.
    """
    return LiftedQP.from_matrices(
        H=1.0,
        F=[[-1.0]],
        G=[[1.0], [-1.0]],
        S=[[-1.0], [1.0]],
        W=[hi, -lo],
    ), np.array([pull])


class TestEnumeration:
    def test_clipped_minimum(self):
        qp, theta = box_qp(pull=2.0)
        res = enumerate_active_sets(qp, theta)
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.u_seq, [1.0])
        np.testing.assert_allclose(res.z_star, [-1.0])
        assert res.active_set.indices() == [0]

    def test_interior_minimum(self):
        qp, theta = box_qp(pull=0.25)
        res = enumerate_active_sets(qp, theta)
        assert res.active_set == 0
        np.testing.assert_allclose(res.u_seq, [0.25])

    def test_infeasible(self):
        qp = LiftedQP.from_matrices(
            H=1.0, F=[[0.0]], G=[[1.0], [-1.0]], S=np.zeros((2, 1)), W=[-1.0, -1.0]
        )
        res = enumerate_active_sets(qp, np.zeros(1))
        assert res.status is SolveStatus.INFEASIBLE

    def test_refuses_large_index_space(self):
        qp = LiftedQP.from_matrices(
            H=np.eye(2),
            F=np.zeros((2, 1)),
            G=np.ones((25, 2)),
            S=np.zeros((25, 1)),
            W=np.ones(25),
        )
        with pytest.raises(ValueError, match="enumeration over"):
            enumerate_active_sets(qp, np.zeros(1))

    def test_counts_work(self):
        qp, theta = box_qp(pull=2.0)
        res = enumerate_active_sets(qp, theta)
        # Candidates: {}, then {0} accepted on the second KKT solve at worst.
        assert res.stats.candidates_visited >= 2
        assert res.stats.kkt_solves >= 1


class TestDualAscent:
    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(321)
        for _ in range(15):
            _, qp, theta, ref = random_feasible_query(rng)
            z = dual_ascent(qp, theta)
            np.testing.assert_allclose(z, ref.z_star, atol=1e-7)

    def test_unconstrained_shortcut(self):
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 2)), G=[], S=[], W=[])
        np.testing.assert_allclose(dual_ascent(qp, np.zeros(2)), np.zeros(2))

    def test_clipped_box(self):
        qp, theta = box_qp(pull=3.0)
        np.testing.assert_allclose(dual_ascent(qp, theta), [-2.0], atol=1e-9)

    def test_nonconvergence_raises(self):
        # Coupled active rows: one coordinate cycle cannot finish the job.
        qp = LiftedQP.from_matrices(
            H=np.eye(2),
            F=np.zeros((2, 1)),
            G=[[1.0, 1.0], [1.0, 0.0]],
            S=np.zeros((2, 1)),
            W=[-1.0, -1.0],
        )
        with pytest.raises(RuntimeError, match="did not converge"):
            dual_ascent(qp, np.zeros(1), tol=1e-14, max_iter=1)


class TestAgreementWithSearch:
    def test_three_routes_coincide(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            _, qp, theta, ref = random_feasible_query(rng)
            direct = solver.solve(qp, theta)
            z_dual = dual_ascent(qp, theta)
            np.testing.assert_allclose(direct.z_star, ref.z_star, atol=1e-8)
            np.testing.assert_allclose(z_dual, ref.z_star, atol=1e-7)

    def test_infeasibility_agreement(self):
        qp = LiftedQP.from_matrices(
            H=1.0, F=[[0.0]], G=[[1.0], [-1.0]], S=np.zeros((2, 1)), W=[-1.0, -1.0]
        )
        assert enumerate_active_sets(qp, np.zeros(1)).status is SolveStatus.INFEASIBLE
        assert solver.solve(qp, np.zeros(1)).status is SolveStatus.INFEASIBLE


@st.composite
def feasible_qps(draw):
    """A small QP with a strictly admissible point, rows possibly repeated.

    ``G z0 + s = W`` with ``s > 0`` makes ``z0`` strictly admissible, which
    dual ascent needs; each extra row is a positive multiple (1 for an exact
    duplicate) of a drawn row, bound included, so ``z0`` stays strictly
    admissible.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    small = st.integers(-3, 3).map(float)
    C = draw(hnp.arrays(float, (n, n), elements=small))
    G = draw(hnp.arrays(float, (m, n), elements=small))
    z0 = draw(hnp.arrays(float, n, elements=small))
    s = draw(hnp.arrays(float, m, elements=st.sampled_from([0.25, 0.5, 1.0, 2.0])))
    W = G @ z0 + s
    copies = draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([1.0, 0.5, 3.0])),
                           max_size=3))
    for row, alpha in copies:
        G = np.vstack([G, alpha * G[row]])
        W = np.append(W, alpha * W[row])
    return LiftedQP.from_matrices(
        H=C.T @ C + np.eye(n), F=np.zeros((n, 1)), G=G, S=np.zeros((len(W), 1)), W=W
    )


class TestPropertyAgainstDualAscent:
    """The search against the one reference that shares none of its search code."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(feasible_qps())
    def test_search_matches_dual_ascent(self, qp):
        theta = np.zeros(1)
        res = solver.solve(qp, theta)
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, dual_ascent(qp, theta), atol=1e-7)
