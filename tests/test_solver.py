"""Active-set search: hand traces, oracle cross-checks, degeneracy, budgets."""
import dataclasses
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy import linalg as sla
from scipy.optimize import nnls as scipy_nnls

from conftest import random_feasible_query
from reference import enumerate_active_sets, eval_constraints, kkt_solve
from rfmpc import lifting, solver
from rfmpc.beam import make_benchmark
from rfmpc.lifting import LiftedQP
from rfmpc.problem import Parameter
from rfmpc.solver import (
    ActiveSet,
    SolveStatus,
    Tolerances,
    check_farkas,
    iter_candidate_masks,
    kkt_residuals,
    reduce_to_licq,
)


def halfspace_qp(rows, bounds):
    """min z^2/2 over scalar z subject to G z <= W row-wise."""
    G = np.array(rows, float).reshape(-1, 1)
    W = np.asarray(bounds, float)
    return LiftedQP.from_matrices(
        H=1.0, F=[[0.0]], G=G, S=np.zeros((len(W), 1)), W=W
    )


def coupled_pair():
    """Both rows are active at the optimum but a single activation leaves the
    other violated, so at least two KKT solves are needed."""
    return LiftedQP.from_matrices(
        H=np.eye(2),
        F=np.zeros((2, 1)),
        G=[[1.0, 1.0], [1.0, 0.0]],
        S=np.zeros((2, 1)),
        W=[-1.0, -1.0],
    )


def embedded_pair(copies):
    """``z_1 <= -1`` and ``-z_1 <= -1`` in four variables, the first row
    ``copies`` times: infeasible, with fewer candidates than ``n_z = 4``."""
    G = np.zeros((copies + 1, 4))
    G[:copies, 0], G[copies, 0] = 1.0, -1.0
    return LiftedQP.from_matrices(H=np.eye(4), F=np.zeros((4, 1)), G=G,
                                  S=np.zeros((copies + 1, 1)), W=-np.ones(copies + 1))


def append_scaled_copy(qp, row, alpha):
    G = np.vstack([qp.G, alpha * qp.G[row]])
    S = np.vstack([qp.S, alpha * qp.S[row]])
    W = np.append(qp.W, alpha * qp.W[row])
    return LiftedQP.from_matrices(
        H=qp.H, F=qp.F, G=G, S=S, W=W, N=qp.N, n_u=qp.n_u
    )


# (a, k, u_prev as a fraction of the input bound): theta = (a A_d^k x0,
# u_prev) on the N = 10 beam lies outside the feasible set.  These are the
# unperturbed base points of the query-infeasible benchmark workload.
BEAM_INFEASIBLE_BASES = (
    (1.025, 190, (0.55, -0.55)),
    (1.064, 68, (-0.06, -0.39)),
    (1.021, 123, (0.28, 0.35)),
    (0.930, 163, (-0.52, -0.20)),
    (0.978, 119, (-0.35, -0.70)),
)


@pytest.fixture(scope="module")
def beam10():
    bench = make_benchmark(N=10)
    return bench, lifting.build(bench.problem)


class TestActiveSet:
    def test_bitmask_round_trip(self):
        a = ActiveSet.from_indices([0, 3, 5])
        assert a.mask == 0b101001
        assert a.indices() == [0, 3, 5]
        assert len(a) == 3
        assert str(a) == "0x29"
        assert ActiveSet.from_hex("0x29") == a

    def test_set_operations(self):
        a = ActiveSet.from_indices([1, 2])
        assert ActiveSet(a.mask | 1).indices() == [0, 1, 2]
        assert a.indices() == [1, 2]


class TestCandidateOrder:
    def test_cardinality_then_numeric(self):
        masks = list(iter_candidate_masks(4, 2))
        assert masks[0] == 0
        assert masks[1:5] == [0b0001, 0b0010, 0b0100, 0b1000]
        assert masks[5:] == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
        assert len(masks) == 1 + 4 + 6

    def test_cap_respected(self):
        assert max(m.bit_count() for m in iter_candidate_masks(5, 3)) == 3


class TestHandTraces:
    def test_single_halfspace(self):
        # min z^2/2 s.t. z >= 1: the origin violates, one activation fixes it.
        qp = halfspace_qp([-1.0], [-1.0])
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, [1.0])
        np.testing.assert_allclose(res.lam, [1.0])
        assert res.active_set.indices() == [0]
        assert res.stats.candidates_visited == 2
        assert res.stats.kkt_solves == 1

    def test_duplicated_halfspace(self):
        # z >= 1 twice: the pair is rank deficient and must be pruned, not
        # accepted; either single row certifies the same minimizer.
        qp = halfspace_qp([-1.0, -1.0], [-1.0, -1.0])
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, [1.0])
        assert len(res.active_set) == 1

    def test_interior_optimum_is_free(self):
        qp = halfspace_qp([1.0], [1.0])  # z <= 1, origin feasible
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.OPTIMAL
        assert res.active_set.mask == 0
        assert res.stats.kkt_solves == 0
        np.testing.assert_allclose(res.z_star, [0.0])

    def test_infeasible_pair(self):
        # z <= -1 and z >= 1 cannot hold together.
        qp = halfspace_qp([1.0, -1.0], [-1.0, -1.0])
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.z_star is None

    def test_parameter_moves_the_bound(self):
        # Same geometry as the packaged corner instance: z >= -theta_1.
        qp = LiftedQP.from_matrices(
            H=1.0, F=[[0.0, 0.0]], G=[[-1.0]], S=[[1.0, 0.0]], W=[0.0]
        )
        res = solver.solve(qp, np.array([-1.0, 0.0]))
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, [1.0])
        res = solver.solve(qp, np.array([2.0, 0.0]))
        assert res.active_set.mask == 0


class TestKktSolve:
    def test_rejects_empty_candidate(self):
        qp = halfspace_qp([-1.0], [-1.0])
        with pytest.raises(ValueError, match="nonempty"):
            kkt_solve(qp, ActiveSet(0), np.zeros(1))

    def test_multipliers_and_minimizer(self):
        qp = halfspace_qp([-1.0], [-1.0])
        z, lam = kkt_solve(qp, ActiveSet.from_indices([0]), np.zeros(1))
        np.testing.assert_allclose(z, [1.0])
        np.testing.assert_allclose(lam, [1.0])

    def test_rejected_candidate_still_returns_point_and_multipliers(self):
        # z <= 1 held as an equality needs lam = -1, a negative multiplier;
        # z >= 1 held as an equality leaves z <= 0 violated.
        for qp, lam_want, lists in ((halfspace_qp([1.0], [1.0]), -1.0, ([], [0])),
                                    (halfspace_qp([-1.0, 1.0], [-1.0, 0.0]), 1.0, ([1], []))):
            assert solver._evaluate(qp, 1, qp.W, Tolerances.for_qp(qp))[2:] == lists
            z, lam = kkt_solve(qp, ActiveSet.from_indices([0]), np.zeros(1))
            np.testing.assert_allclose(z, [1.0])
            np.testing.assert_allclose(lam, [lam_want])

    def test_singular_candidate_returns_none(self):
        qp = halfspace_qp([-1.0, -1.0], [-1.0, -1.0])
        assert kkt_solve(qp, ActiveSet.from_indices([0, 1]), np.zeros(1)) is None


class TestCallerMasks:
    """``solve``, ``kkt_solve`` and ``reduce_to_licq`` check a caller's mask against the QP."""

    @staticmethod
    def calls(qp, aset):
        theta = np.zeros(1)
        return (lambda: solver.solve(qp, theta, warm=aset),
                lambda: kkt_solve(qp, aset, theta),
                lambda: kkt_solve(qp, aset.mask, theta),
                lambda: reduce_to_licq(qp, aset, theta))

    def test_negative_mask_rejected(self):
        # -1 has one set bit by bit_count() but no end to its bit walk, so
        # an unchecked mask hangs: the alarm turns that into a failure.
        def hang(signum, frame):
            raise TimeoutError("a negative mask was not rejected")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            for call in self.calls(halfspace_qp([-1.0], [-1.0]), ActiveSet(-1)):
                with pytest.raises(ValueError, match="must be nonnegative"):
                    call()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_mask_beyond_rows_rejected(self):
        qp = halfspace_qp([-1.0, 1.0], [-1.0, 2.0])
        for call in self.calls(qp, ActiveSet.from_indices([0, 2])):
            with pytest.raises(ValueError, match="beyond the 2 constraint rows"):
                call()


def primal_evaluate(qp, mask, b, tol):
    """Primal-space reference of ``solver._evaluate``: gather ``G_A``, solve
    against ``H``, eigendecompose ``G_A H^-1 G_A^T`` and test ``G z``."""
    rows = [k for k in range(qp.p_tilde) if mask >> k & 1]
    if rows:
        GA = qp.G[rows]
        Y = sla.cho_solve(sla.cho_factor(qp.H, lower=True), GA.T)
        w, U = np.linalg.eigh(0.5 * (GA @ Y + (GA @ Y).T))
        if w[-1] <= 0.0 or w[0] <= solver._RANK_TOL * w[-1]:
            return None
        bA = b[rows]
        lam_A = -(U @ ((U.T @ bA) / w))
        z = -(Y @ lam_A)
        if np.max(np.abs(GA @ z - bA)) > 1e-8 * (1.0 + np.max(np.abs(bA))):
            return None
        slack = b - qp.G @ z
    else:
        z, lam_A, slack = np.zeros(qp.n_z), np.zeros(0), b
    violated = sorted((k for k in range(qp.p_tilde) if slack[k] < -tol.tol_violation),
                      key=lambda k: (slack[k], k))
    negative = [rows[i] for i in sorted((i for i in range(len(rows)) if lam_A[i] < -tol.tol_violation),
                                        key=lambda i: (lam_A[i], rows[i]))]
    return z, lam_A, violated, negative


@st.composite
def evaluator_cases(draw):
    """``(qp, mask, b)``: a small QP with exact duplicate rows among its drawn
    ones, any candidate mask and a right-hand side violated on some rows."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    small = st.integers(-3, 3).map(float)
    C = draw(hnp.arrays(float, (n, n), elements=small))
    G = draw(hnp.arrays(float, (m, n), elements=small))
    z0 = draw(hnp.arrays(float, n, elements=small))
    s = draw(hnp.arrays(float, m, elements=st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0, 2.0])))
    b = G @ z0 + s
    for row in draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=3)):
        G = np.vstack([G, G[row]])
        b = np.append(b, b[row])
    qp = LiftedQP.from_matrices(
        H=C.T @ C + np.eye(n), F=np.zeros((n, 1)), G=G, S=np.zeros((len(b), 1)), W=b
    )
    return qp, draw(st.integers(0, 2 ** len(b) - 1)), b


class TestEvaluatorAgainstPrimalReference:
    """The constraint-space evaluator against the primal-space KKT solve."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(evaluator_cases())
    def test_same_verdict_point_and_lists(self, case):
        qp, mask, b = case
        tol = Tolerances.for_qp(qp)
        got = solver._evaluate(qp, mask, b, tol)
        ref = primal_evaluate(qp, mask, b, tol)
        assert (got is None) == (ref is None)
        if ref is None:
            return
        z, lam_A = ref[:2]
        rows = [k for k in range(qp.p_tilde) if mask >> k & 1]
        # The evaluator forms z only for an accepted candidate; every
        # rank-complete candidate's point is checked from its multipliers.
        assert (got[0] is None) == bool(ref[2] or ref[3])
        np.testing.assert_allclose(-(qp.Y[:, rows] @ got[1]), z, rtol=1e-9, atol=1e-9)
        if got[0] is not None:
            np.testing.assert_allclose(got[0], z, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(got[1], lam_A, rtol=1e-9, atol=1e-9)
        # Same rows, worst first.  Integer data can tie two rows in exact
        # arithmetic (a slack of -1 on a zero row and on a reached row); such
        # a tie is decided by rounding, so tied rows may swap.
        slack = b - qp.G @ z
        lam = dict(zip((k for k in range(qp.p_tilde) if mask >> k & 1), lam_A))
        for rows, ref_rows, key in ((got[2], ref[2], slack.__getitem__), (got[3], ref[3], lam.get)):
            assert sorted(rows) == sorted(ref_rows)
            keys = [key(k) for k in rows]
            assert all(a <= c + 1e-12 * (1.0 + abs(c)) for a, c in zip(keys, keys[1:]))


@st.composite
def kaa_blocks(draw):
    """A symmetric block ``Q diag(w) Q^T`` with ``lam_max = 10^s``: positive
    definite with a condition number from 1e6 to 1e14, singular, slightly
    indefinite, or with ``lam_min`` within a relative 1e-3 to 0 of the
    threshold ``1e-10 lam_max``."""
    n = draw(st.integers(1, 12))
    Q = np.linalg.qr(draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0))))[0]
    kind = draw(st.sampled_from(["definite", "singular", "indefinite", "threshold"]))
    if kind == "threshold":
        low = 1e-10 * (1.0 + draw(st.sampled_from([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3])))
    else:
        low = {"definite": 1.0, "singular": 0.0, "indefinite": -1.0}[kind] * 10.0 ** -draw(st.floats(6.0, 14.0))
    mid = 10.0 ** -np.array(draw(st.lists(st.floats(0.0, 6.0), min_size=max(n - 2, 0), max_size=max(n - 2, 0))))
    w = np.concatenate([[low], mid, [1.0]])[-n:] * 10.0 ** draw(st.integers(-3, 3))
    K = (Q * w) @ Q.T
    return 0.5 * (K + K.T)


def test_rank_screen_keeps_the_eigh_verdict(record_property):
    """The two shifted Cholesky tests of ``_rank_complete`` give the verdict of
    an eigendecomposition, ``lam_min > 1e-10 lam_max > 0``.  A draw may differ
    only within a rounding margin of the threshold; such draws and the draws
    that reach ``eigh`` in the band are counted."""
    tau = 1e-10
    counts = {"draws": 0, "band": 0, "margin": 0}
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        counts["band"] += 1
        return eigh(a, *args, **kwargs)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(kaa_blocks())
    def prop(K):
        counts["draws"] += 1
        with mock.patch.object(np.linalg, "eigh", counting_eigh):
            got = solver._rank_complete(K, tau)
        w = eigh(K)[0]
        if got != (w[-1] > 0.0 and w[0] > tau * w[-1]):
            margin = 32 * len(w) * np.finfo(float).eps * np.abs(w).max()
            assert abs(w[0] - tau * w[-1]) <= margin, (w[0], w[-1])
            counts["margin"] += 1

    prop()
    for name, value in counts.items():
        record_property(name, value)
    print(f"rank screen: {counts}")
    assert counts["band"] > 0, counts


class TestWarmStart:
    def test_exact_warm_start_is_one_solve(self):
        qp = halfspace_qp([-1.0], [-1.0])
        cold = solver.solve(qp, np.zeros(1))
        warm = solver.solve(qp, np.zeros(1), warm=cold.active_set)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.stats.candidates_visited == 1
        assert warm.stats.kkt_solves == 1
        np.testing.assert_allclose(warm.z_star, cold.z_star)

    def test_stale_warm_start_recovers(self):
        rng = np.random.default_rng(123)
        _, qp, theta, ref = random_feasible_query(rng, n_x=3, n_u=2, N=2,
                                                  rows_per_stage=2, p_hat=1)
        wrong = ActiveSet.from_indices([qp.p_tilde - 1])
        res = solver.solve(qp, theta, warm=wrong)
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, ref.z_star, atol=1e-8)

    def test_oversized_warm_start_reset(self):
        qp = halfspace_qp([-1.0, 1.0], [-1.0, 2.0])
        too_big = ActiveSet.from_indices([0, 1])  # cap is one active row here
        res = solver.solve(qp, np.zeros(1), warm=too_big)
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, [1.0])


class TestOracleCrossCheck:
    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            _, qp, theta, ref = random_feasible_query(rng)
            res = solver.solve(qp, theta)
            assert res.status is SolveStatus.OPTIMAL
            np.testing.assert_allclose(res.z_star, ref.z_star, atol=1e-8)
            np.testing.assert_allclose(res.u_seq, ref.u_seq, atol=1e-8)

    def test_certificates_on_optimal_solves(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            _, qp, theta, _ = random_feasible_query(rng)
            res = solver.solve(qp, theta)
            cert = kkt_residuals(qp, res, theta)
            assert cert["stationarity"] <= 1e-8 * (1.0 + cert["z_norm"])
            assert cert["active_equality"] <= 1e-8
            assert cert["min_slack"] >= -1e-9 * (1.0 + np.max(np.abs(qp.W)))
            assert cert["min_lambda"] >= -1e-9 * (1.0 + np.max(np.abs(qp.W)))

    # The infeasible pair is certified by its Farkas ray whatever the budget,
    # so the stalled case is a feasible QP that needs more than one solve.
    @pytest.mark.parametrize("budget, status", [(10000, SolveStatus.INFEASIBLE),
                                                (1, SolveStatus.BUDGET_EXHAUSTED)])
    def test_no_certificate_without_minimizer(self, budget, status):
        infeasible = status is SolveStatus.INFEASIBLE
        qp = halfspace_qp([1.0, -1.0], [-1.0, -1.0]) if infeasible else coupled_pair()
        res = solver.solve(qp, np.zeros(1), tol=Tolerances.for_qp(qp, max_kkt_solves=budget))
        assert res.status is status
        with pytest.raises(ValueError, match=f"{status.value} result carries no certificate"):
            kkt_residuals(qp, res, np.zeros(1))

    def test_no_certificate_without_multipliers(self):
        # An optimal result handed in without its multipliers.
        qp = halfspace_qp([1.0], [-1.0])
        theta = Parameter(np.zeros(1), np.zeros(0))
        res = dataclasses.replace(solver.solve(qp, theta), lam=None)
        assert res.status is SolveStatus.OPTIMAL and res.z_star is not None
        with pytest.raises(ValueError, match="optimal result carries no certificate"):
            kkt_residuals(qp, res, theta)


class TestDegeneracy:
    def test_duplicated_active_row(self):
        rng = np.random.default_rng(7)
        found = 0
        while found < 5:
            _, qp, theta, ref = random_feasible_query(rng)
            active = ref.active_set.indices()
            if not active:
                continue
            found += 1
            degenerate = append_scaled_copy(qp, active[0], 1.0)
            res = solver.solve(degenerate, theta)
            assert res.status is SolveStatus.OPTIMAL
            np.testing.assert_allclose(res.z_star, ref.z_star, atol=1e-8)
            # The reported set itself satisfies the rank qualification.
            assert kkt_solve(degenerate, res.active_set, theta) is not None
            assert res.stats.licq_failures >= 0

    def test_reduction_recovers_licq_subset(self):
        rng = np.random.default_rng(8)
        found = 0
        while found < 5:
            _, qp, theta, ref = random_feasible_query(rng)
            active = ref.active_set.indices()
            if not active:
                continue
            found += 1
            degenerate = append_scaled_copy(qp, active[0], 2.0)
            fat = ActiveSet(ref.active_set.mask | 1 << (degenerate.p_tilde - 1))
            assert kkt_solve(degenerate, fat, theta) is None  # genuinely rank deficient
            reduced = reduce_to_licq(degenerate, fat, theta)
            out = kkt_solve(degenerate, reduced, theta)
            assert out is not None
            np.testing.assert_allclose(out[0], ref.z_star, atol=1e-8)

    def test_reduction_rejects_nonsufficient_set(self):
        qp = halfspace_qp([-1.0, 1.0], [-1.0, 2.0])
        bogus = ActiveSet.from_indices([1])  # inactive at the optimum, lambda < 0
        with pytest.raises(ValueError, match="not sufficient"):
            reduce_to_licq(qp, bogus, np.zeros(1))

    def test_reduction_of_clean_set_is_identity(self):
        qp = halfspace_qp([-1.0], [-1.0])
        reduced = reduce_to_licq(qp, ActiveSet.from_indices([0]), np.zeros(1))
        assert reduced.indices() == [0]

    def test_reduction_accepts_empty_optimal_set(self):
        # W = -1e-12 lies inside the acceptance band, so the search accepts
        # the empty set; the reduction must use the same kind of band.
        qp = LiftedQP.from_matrices(H=[[1.0]], F=[[0.0]], G=[[1.0]], S=[[0.0]], W=[-1e-12])
        res = solver.solve(qp, 0)
        assert res.status is SolveStatus.OPTIMAL
        assert res.active_set.mask == 0
        assert reduce_to_licq(qp, res.active_set, 0).mask == 0


@st.composite
def degenerate_reductions(draw):
    """``(qp, theta, ref, fat, bogus)``: a random query with a non-empty
    optimal set, 1-3 appended rows that are nonnegative combinations of its
    active rows (``fat`` is the optimal set plus all of them), and the optimal
    set plus one row that is slack at the optimum (``bogus``, ``None`` when
    no row has slack above 1e-6)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ref = None
    while ref is None or not ref.active_set.mask:
        _, qp, theta, ref = random_feasible_query(rng)
    active = ref.active_set.indices()
    k = draw(st.integers(1, 3))
    C = draw(hnp.arrays(float, (k, len(active)), elements=st.floats(0.0, 2.0)))
    aug = LiftedQP.from_matrices(
        H=qp.H, F=qp.F, G=np.vstack([qp.G, C @ qp.G[active]]),
        S=np.vstack([qp.S, C @ qp.S[active]]), W=np.append(qp.W, C @ qp.W[active]),
        N=qp.N, n_u=qp.n_u,
    )
    fat = ActiveSet(ref.active_set.mask | ((1 << k) - 1) << qp.p_tilde)
    slack = eval_constraints(qp, ref.z_star, theta)
    inactive = (slack > 1e-6).nonzero()[0]
    bogus = None
    if inactive.size:
        row = int(inactive[draw(st.integers(0, inactive.size - 1))])
        bogus = ActiveSet(ref.active_set.mask | 1 << row)
    return aug, theta, ref, fat, bogus


class TestReductionProperties:
    """NNLS reduction of sufficient sets padded with dependent rows."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(degenerate_reductions())
    def test_subset_with_the_oracle_minimizer(self, case):
        qp, theta, ref, fat, bogus = case
        reduced = reduce_to_licq(qp, fat, theta)
        assert reduced.mask & ~fat.mask == 0
        out = kkt_solve(qp, reduced, theta)
        assert out is not None
        np.testing.assert_allclose(out[0], ref.z_star, rtol=0, atol=1e-8)
        if bogus is not None:
            with pytest.raises(ValueError):
                reduce_to_licq(qp, bogus, theta)


class TestBudget:
    def test_exhaustion_reported(self):
        qp = coupled_pair()
        tol = Tolerances.for_qp(qp, max_kkt_solves=1)
        res = solver.solve(qp, np.zeros(1), tol=tol)
        assert res.status is SolveStatus.BUDGET_EXHAUSTED
        assert res.z_star is None
        assert res.stats.kkt_solves == 1

    def test_coupled_pair_solves_with_budget(self):
        qp = coupled_pair()
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.OPTIMAL
        np.testing.assert_allclose(res.z_star, [-1.0, 0.0], atol=1e-10)
        assert res.stats.kkt_solves >= 2

    def test_zero_budget_still_accepts_interior(self):
        qp = halfspace_qp([1.0], [1.0])
        tol = Tolerances.for_qp(qp, max_kkt_solves=0)
        res = solver.solve(qp, np.zeros(1), tol=tol)
        assert res.status is SolveStatus.OPTIMAL


@st.composite
def feasibility_cases(draw):
    """A small QP ``G z <= W`` from integer data, feasible or not.

    With ``contradiction`` drawn, a row ``-c^T G z <= -c^T W - delta`` is
    appended for a nonnegative combination ``c`` of drawn rows, which makes the
    constraints infeasible; without it, the drawn bounds may or may not admit
    a point.  Integer data keeps every infeasible instance clear of the
    acceptance bands.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    small = st.integers(-3, 3).map(float)
    C = draw(hnp.arrays(float, (n, n), elements=small))
    G = draw(hnp.arrays(float, (m, n), elements=small))
    W = draw(hnp.arrays(float, m, elements=small))
    if draw(st.booleans()):
        c = draw(hnp.arrays(float, m, elements=st.sampled_from([0.0, 1.0, 2.0])))
        delta = draw(st.sampled_from([0.5, 1.0, 2.0]))
        G = np.vstack([G, -(c @ G)])
        W = np.append(W, -(c @ W) - delta)
    return LiftedQP.from_matrices(
        H=C.T @ C + np.eye(n), F=np.zeros((n, 1)), G=G, S=np.zeros((len(W), 1)), W=W
    )


@st.composite
def nnls_cases(draw):
    """``(A, t, passive)``: a small least-squares problem, its columns drawn
    with some of them repeated (so ``A^T A`` may be singular), and whether
    the NNLS starts with every variable passive."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    A = draw(hnp.arrays(float, (m, n), elements=st.integers(-4, 4).map(float))) * scale
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=3))
    A = np.hstack([A, A[:, repeats]])
    t = draw(hnp.arrays(float, m, elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
    return A, t, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nnls_cases())
def test_nnls_matches_scipy(case):
    # The normal-equation NNLS reaches scipy's least-squares objective and
    # satisfies the NNLS optimality conditions: y >= 0, gradient d - C y <= 0
    # and zero where y > 0.  Repeated columns make the all-passive start
    # singular; it must fall back to the empty start, not raise.  The
    # objective is compared one way, as scipy's own point can miss the
    # optimum: on A = [[1000, 4000], [0, 1000], [-1000, -4000], [1000, 1000]],
    # t = [1, 1e-174, 1, 1e-174] scipy 1.17 returns x_1 = 0.001 with squared
    # residual 5.0 where y = 0 gives 2.0.
    A, t, passive = case
    C, d = A.T @ A, A.T @ t
    y = solver._nnls(C, d, passive=passive)
    x, _ = scipy_nnls(A, t)
    assert np.all(y >= 0.0)
    f_y, f_x = np.sum((A @ y - t) ** 2), np.sum((A @ x - t) ** 2)
    assert f_y - f_x <= 1e-10 * max(t @ t, np.finfo(float).tiny)
    g = d - C @ y
    band = 1e-9 * (1.0 + np.abs(C).max() * y.sum() + np.abs(d).max())
    assert np.all(g <= band)
    assert np.all(np.abs(g[y > 0.0]) <= band)


class TestFarkas:
    """Infeasibility certificates: the Farkas ray and its stand-alone check."""

    def test_check_accepts_only_a_ray(self):
        G, b = np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])
        assert check_farkas(G, b, [0.5, 0.5])
        assert check_farkas(G, b, [2.0, 2.0])
        assert not check_farkas(G, b, [0.25, 0.25])    # b^T y = -0.5
        assert not check_farkas(G, b, [1.0, 0.0])      # G^T y = 1
        assert not check_farkas(G, b, [-0.5, -0.5])    # negative entries
        assert not check_farkas(G, b, [0.5, 0.5, 0.0])  # one entry per row
        assert not check_farkas(G, [1.0, -1.0], [0.5, 0.5])  # feasible: z = 1
        # 0 z <= -3: the ray lives on the zero row; rounding-level weight on
        # another row leaves it a ray.
        G0, b0 = np.array([[0.0], [1.0]]), np.array([-3.0, -3.0])
        assert check_farkas(G0, b0, [1 / 3, 7e-17])

    def test_stalled_search_returns_the_ray(self):
        qp = halfspace_qp([1.0, -1.0], [-1.0, -1.0])
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.stats.kkt_solves == qp.n_z
        np.testing.assert_allclose(res.farkas, [0.5, 0.5])

    def test_budget_does_not_bound_the_certificate(self):
        qp = halfspace_qp([1.0, -1.0], [-1.0, -1.0])
        res = solver.solve(qp, np.zeros(1), tol=Tolerances.for_qp(qp, max_kkt_solves=0))
        assert res.status is SolveStatus.INFEASIBLE
        assert res.stats.kkt_solves == 0
        assert check_farkas(qp.G, qp.W, res.farkas)

    def test_rank_deficient_candidate_triggers_the_ray(self):
        # n_z = 4 exceeds the three non-empty candidates of two rows, and the
        # pair {0, 1} is rank deficient: the ray is tested there, after 2 of
        # n_z KKT solves.
        qp = embedded_pair(copies=1)
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.INFEASIBLE
        s = res.stats
        assert (s.candidates_visited, s.kkt_solves, s.licq_failures) == (3, 2, 1)
        assert check_farkas(qp.G, qp.W, res.farkas)

    def test_exhausted_order_tests_the_ray_once(self, monkeypatch):
        # With no ray found, the search runs to the end of the candidate
        # order, past both triggers of the test (its first rank-deficient
        # pair, and n_z = 4 KKT solves) and through three rank-deficient
        # pairs; the exhausted order reuses the one test instead of running
        # the NNLS again.  The test is handed the pair that triggered it.
        calls = []

        def no_ray(qp, b, trigger):
            calls.append(trigger)
            return None

        monkeypatch.setattr(solver, "_farkas_ray", no_ray)
        qp = embedded_pair(copies=2)
        res = solver.solve(qp, np.zeros(1))
        assert res.status is SolveStatus.INFEASIBLE and res.farkas is None
        assert (res.stats.kkt_solves, res.stats.licq_failures) == (6, 3)
        assert calls == [0b101]

    @pytest.mark.parametrize("base", range(len(BEAM_INFEASIBLE_BASES)))
    def test_ray_lies_on_the_trigger_rows(self, beam10, base, monkeypatch):
        # On the N = 10 beam the ray test fires at a rank-deficient
        # candidate, one NNLS on that candidate's rows finds the ray, and the
        # ray weights only those rows.
        triggers, sizes = [], []
        farkas_ray, nnls = solver._farkas_ray, solver._nnls

        def recorded(qp, b, trigger):
            triggers.append(trigger)
            return farkas_ray(qp, b, trigger)

        def sized(C, d, passive=False):
            sizes.append(len(d))
            return nnls(C, d, passive)

        monkeypatch.setattr(solver, "_farkas_ray", recorded)
        monkeypatch.setattr(solver, "_nnls", sized)
        bench, qp = beam10
        a, k, u = BEAM_INFEASIBLE_BASES[base]
        theta = Parameter(a * np.linalg.matrix_power(bench.plant.A_d, k) @ bench.x0,
                          0.5 * bench.u_scale * np.array(u))
        res = solver.solve(qp, theta)
        assert res.status is SolveStatus.INFEASIBLE
        assert len(triggers) == 1 and triggers[0] != 0
        assert sizes == [triggers[0].bit_count()]
        b = qp.W + qp.S @ theta.as_vector()
        assert check_farkas(qp.G, b, res.farkas)
        assert ActiveSet.from_indices(np.flatnonzero(res.farkas)).mask & ~triggers[0] == 0

    def test_trigger_without_a_ray_falls_back_to_all_rows(self):
        # The warm pair repeats the row z_1 <= -1: rank deficient, singular
        # C = K_AA + b_A b_A^T, and no ray on its rows.  The ray on all rows
        # needs the row -z_1 <= -1 outside it.
        qp = embedded_pair(copies=2)
        res = solver.solve(qp, np.zeros(1), warm=ActiveSet(0b011))
        assert res.status is SolveStatus.INFEASIBLE
        assert (res.stats.kkt_solves, res.stats.licq_failures) == (1, 1)
        assert check_farkas(qp.G, qp.W, res.farkas)
        assert res.farkas[2] > 0.0

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(feasibility_cases())
    def test_infeasible_exactly_when_enumeration_says_so(self, qp):
        theta = np.zeros(1)
        res = solver.solve(qp, theta)
        ref = enumerate_active_sets(qp, theta)
        assert res.status is not SolveStatus.BUDGET_EXHAUSTED
        assert (res.status is SolveStatus.INFEASIBLE) == (ref.status is SolveStatus.INFEASIBLE)
        if res.status is SolveStatus.INFEASIBLE:
            assert res.farkas is not None and check_farkas(qp.G, qp.W, res.farkas)
        else:
            assert res.farkas is None
            np.testing.assert_allclose(res.z_star, ref.z_star, atol=1e-8)


class TestStats:
    def test_wall_time_covers_result_construction(self, monkeypatch):
        # The input sequence is formed after the search; its cost belongs
        # to the step's wall time too.
        build = solver._result

        def slow_result(*args, **kwargs):
            time.sleep(0.05)
            return build(*args, **kwargs)

        monkeypatch.setattr(solver, "_result", slow_result)
        qp = halfspace_qp([1.0], [1.0])
        assert solver.solve(qp, np.zeros(1)).stats.wall_time >= 0.05


class TestTolerances:
    def test_scaling_with_bounds(self):
        qp = halfspace_qp([1.0], [9.0])
        tol = Tolerances.for_qp(qp)
        assert tol.tol_violation == pytest.approx(1e-8)
        assert tol.max_kkt_solves == Tolerances.max_kkt_solves == 10000

    def test_overrides(self):
        qp = halfspace_qp([1.0], [9.0])
        tol = Tolerances.for_qp(qp, max_kkt_solves=5)
        assert tol.tol_violation == pytest.approx(1e-8)
        assert tol.max_kkt_solves == 5

    def test_negative_budget_rejected(self):
        qp = halfspace_qp([1.0], [9.0])
        assert Tolerances.for_qp(qp, max_kkt_solves=0).max_kkt_solves == 0
        with pytest.raises(ValueError, match="max_kkt_solves = -1"):
            Tolerances.for_qp(qp, max_kkt_solves=-1)
        with pytest.raises(ValueError, match="max_kkt_solves = -2"):
            Tolerances(max_kkt_solves=-2)


def _random_query(seed):
    rng = np.random.default_rng(seed)
    _, qp, theta, _ = random_feasible_query(rng, n_x=4, n_u=2, N=3, rows_per_stage=3, p_hat=2)
    return qp, theta, None


def _stale_warm_query():
    rng = np.random.default_rng(123)
    _, qp, theta, _ = random_feasible_query(rng, n_x=3, n_u=2, N=2, rows_per_stage=2, p_hat=1)
    return qp, theta, ActiveSet.from_indices([qp.p_tilde - 1])


def _infeasible_pair():
    return halfspace_qp([1.0, -1.0], [-1.0, -1.0]), np.zeros(1), None


def _duplicated_row_query(fat_warm):
    # The first active row of the reference set is appended once more; the
    # warm set holding both copies is rank deficient.
    rng = np.random.default_rng(4)
    _, qp, theta, ref = random_feasible_query(rng)
    qp = append_scaled_copy(qp, ref.active_set.indices()[0], 1.0)
    return qp, theta, ActiveSet(ref.active_set.mask | 1 << (qp.p_tilde - 1)) if fat_warm else None


# (status, active set, candidates, KKT solves, LICQ failures) of fixed
# queries.  Any change to the candidate order, the push order or the
# filtering of the search changes some of them; random-49 and random-88
# depend on removals popping before additions.  infeasible-pair ends at the
# Farkas ray test after n_z = 1 solve, infeasible-at-licq at its first
# rank-deficient candidate before n_z = 4; random-258 and
# duplicated-row-fat-warm are feasible through LICQ failures, so an early ray
# test must leave their paths alone.
SEARCH_PATHS = {
    "random-49": (lambda: _random_query(49), ("OPTIMAL", 0x452, 11, 10, 0)),
    "random-88": (lambda: _random_query(88), ("OPTIMAL", 0x96, 7, 6, 0)),
    "random-258": (lambda: _random_query(258), ("OPTIMAL", 0xc5, 65, 64, 8)),
    "stale-warm": (_stale_warm_query, ("OPTIMAL", 0x4, 3, 3, 0)),
    "infeasible-pair": (_infeasible_pair, ("INFEASIBLE", 0x0, 2, 1, 0)),
    "infeasible-at-licq": (lambda: (embedded_pair(copies=2), np.zeros(1), None),
                           ("INFEASIBLE", 0x0, 3, 2, 1)),
    "duplicated-row": (lambda: _duplicated_row_query(False), ("OPTIMAL", 0x5, 3, 2, 0)),
    "duplicated-row-fat-warm": (lambda: _duplicated_row_query(True), ("OPTIMAL", 0x5, 4, 3, 1)),
}


# The ids keep the "-visited" suffix they have always carried, so each case
# keeps its test name.
@pytest.mark.parametrize("case", list(SEARCH_PATHS), ids=lambda c: f"{c}-visited")
def test_search_path_is_pinned(case):
    make, expected = SEARCH_PATHS[case]
    qp, theta, warm = make()
    res = solver.solve(qp, theta, warm=warm)
    s = res.stats
    got = (res.status.name, res.active_set.mask, s.candidates_visited, s.kkt_solves, s.licq_failures)
    assert got == expected
