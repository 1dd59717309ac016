"""Active-set search: hand traces, oracle cross-checks, degeneracy, budgets."""
import collections
import contextlib
import dataclasses
import json
import signal
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.linalg import _umath_linalg
from scipy import linalg as sla
from scipy.optimize import nnls as scipy_nnls

from conftest import random_feasible_query
from reference import (eager_search_order, enumerate_active_sets, eval_constraints, kkt_solve, numpy_evaluate,
                       ordered_lists)
from rfmpc import lifting, sim, solver
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
        assert isinstance(a, int) and a == 0b101001
        assert a.indices() == [0, 3, 5]
        assert len(a) == 3
        assert str(a) == f"{a}" == "0x29"
        assert ActiveSet(int("0x29", 16)) == a

    def test_set_operations(self):
        a = ActiveSet.from_indices([1, 2])
        assert ActiveSet(a | 1).indices() == [0, 1, 2]
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
        assert res.active_set == 0
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
        assert res.active_set == 0


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
            tol = Tolerances.for_qp(qp)
            assert ordered_lists(solver._evaluate(qp, [0], qp.W, tol), 0b1, tol) == lists
            z, lam = kkt_solve(qp, ActiveSet.from_indices([0]), np.zeros(1))
            np.testing.assert_allclose(z, [1.0])
            np.testing.assert_allclose(lam, [lam_want])

    def test_singular_candidate_returns_none(self):
        qp = halfspace_qp([-1.0, -1.0], [-1.0, -1.0])
        assert kkt_solve(qp, ActiveSet.from_indices([0, 1]), np.zeros(1)) is None


class TestCallerMasks:
    """``ActiveSet`` checks its mask when it is built, and ``solve``,
    ``kkt_solve`` and ``reduce_to_licq`` check a caller's mask against the QP."""

    @staticmethod
    def calls(qp, aset):
        theta = np.zeros(1)
        return (lambda: solver.solve(qp, theta, warm=aset),
                lambda: kkt_solve(qp, aset, theta),
                lambda: reduce_to_licq(qp, aset, theta))

    @staticmethod
    @contextlib.contextmanager
    def no_hang():
        # -1 has one set bit by bit_count() but no end to its bit walk, so
        # an unchecked mask hangs: the alarm turns that into a failure.
        def hang(signum, frame):
            raise TimeoutError("a negative mask was not rejected")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_negative_mask_rejected(self):
        with self.no_hang():
            for call in self.calls(halfspace_qp([-1.0], [-1.0]), -1):
                with pytest.raises(ValueError, match="must be nonnegative"):
                    call()

    def test_active_set_checks_its_mask(self):
        # Unchecked, ActiveSet(-1).indices() walked its bits until memory ran
        # out, and a float or str mask failed only at len or str.
        with self.no_hang():
            with pytest.raises(ValueError, match="^active-set mask must be nonnegative, got -0x1$"):
                ActiveSet(-1).indices()
        for mask in (2.5, "3"):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                ActiveSet(mask)

    def test_mask_beyond_rows_rejected(self):
        qp = halfspace_qp([-1.0, 1.0], [-1.0, 2.0])
        for aset in (ActiveSet.from_indices([0, 2]), 0b101):
            for call in self.calls(qp, aset):
                with pytest.raises(ValueError, match="beyond the 2 constraint rows"):
                    call()

    @pytest.mark.parametrize("mask", [1.5, "3"], ids=["float", "str"])
    def test_non_integral_mask_rejected(self, mask):
        # int() once truncated 1.5 to mask 1 and parsed "3" as mask 3.
        qp = halfspace_qp([-1.0, 1.0], [-1.0, 2.0])
        with pytest.raises(TypeError, match="^warm must be an ActiveSet or an integer mask"):
            solver.solve(qp, np.zeros(1), warm=mask)
        for call in (lambda: kkt_solve(qp, mask, np.zeros(1)), lambda: reduce_to_licq(qp, mask, np.zeros(1))):
            with pytest.raises(TypeError, match="^aset must be an ActiveSet or an integer mask"):
                call()

    def test_integer_types_accepted(self):
        qp = halfspace_qp([-1.0, 1.0], [-1.0, 2.0])
        for warm in (np.int64(1), ActiveSet(np.int64(1)), True):
            res = solver.solve(qp, np.zeros(1), warm=warm)
            assert res.status is SolveStatus.OPTIMAL and res.active_set == 1


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
        with np.errstate(all="ignore"):  # the search's guard
            got = solver._evaluate(qp, solver._mask_indices(mask), b, tol)
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
        for rows, ref_rows, key in zip(ordered_lists(got, mask, tol), ref[2:], (slack.__getitem__, lam.get)):
            assert sorted(rows) == sorted(ref_rows)
            keys = [key(k) for k in rows]
            assert all(a <= c + 1e-12 * (1.0 + abs(c)) for a, c in zip(keys, keys[1:]))


@st.composite
def nan_evaluator_cases(draw):
    """:func:`evaluator_cases`, half of them with NaN in some entries of the
    right-hand side: on an active row the solve reads NaN, on the other rows
    only their slacks do."""
    qp, mask, b = draw(evaluator_cases())
    if draw(st.booleans()):
        b = np.where(draw(hnp.arrays(bool, len(b))), np.nan, b)
    return qp, mask, b


# (qp, mask, b) of hand-made evaluator cases.
EVALUATOR_CASES = {
    # Rows 2 and 3 both have slack -1 in exact arithmetic: rounding orders them.
    "tied-slacks": (LiftedQP.from_matrices(H=np.diag([2.0, 1.0]), F=np.zeros((2, 1)),
                                           G=[[0, 2], [2, 2], [3, 0], [0, 0], [0, 2]],
                                           S=np.zeros((5, 1)), W=[-1.0, 1.0, 2.0, -1.0, -1.0]),
                    0b11, np.array([-1.0, 1.0, 2.0, -1.0, -1.0])),
    # Rows 0 and 2 both need the multiplier -1 exactly: the lower index first.
    "tied-multipliers": (LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)), G=[[1, 0], [5, 5], [0, 1]],
                                                S=np.zeros((3, 1)), W=[1.0, 100.0, 1.0]),
                         0b101, np.array([1.0, 100.0, 1.0])),
    "singular-block": (halfspace_qp([-1.0, -1.0], [-1.0, -1.0]), 0b11, np.array([-1.0, -1.0])),
    "nan-solve": (halfspace_qp([-1.0, 1.0], [-1.0, 2.0]), 0b1, np.array([np.nan, 2.0])),
    "nan-inactive-slack": (halfspace_qp([-1.0, 1.0, 1.0], [-1.0, 2.0, 2.0]), 0b1, np.array([-1.0, np.nan, 2.0])),
    # The least slack by argmin is the NaN of row 1, which is never violated
    # here; row 2, after it, is violated by 0.5 and must reject z = 1.
    "nan-before-violated": (halfspace_qp([-1.0, 1.0, 1.0], [-1.0, 2.0, 0.5]), 0b1, np.array([-1.0, np.nan, 0.5])),
}


class TestEvaluatorAgainstNumpyReference:
    """The evaluator's checks on Python floats against the earlier all-numpy
    form kept in ``tests/reference.py``: the same verdict, the same bits of
    ``z`` and ``lam_A`` and the same lists in the same order."""

    @staticmethod
    def same(qp, mask, b):
        tol = Tolerances.for_qp(qp)
        with np.errstate(all="ignore"):  # the search's guard
            got = solver._evaluate(qp, solver._mask_indices(mask), b, tol)
            ref = numpy_evaluate(qp, mask, b, tol)
        if ref is None:
            assert got is None
            return None
        for g, r in zip(got[:2], ref[:2]):
            assert (g is None) == (r is None)
            assert r is None or g.tobytes() == r.tobytes()
        if not mask and np.isnan(b).any():
            # A NaN bound rejects the empty set, whose child the search then
            # refuses in its bounds check, so no frame ever forms its lists:
            # the added row is just one that the reference calls violated.
            assert got[0] is None and got[4] in ref[2]
            return None
        lists = ordered_lists(got, mask, tol)
        assert lists == tuple(ref[2:])
        return lists

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(nan_evaluator_cases())
    def test_bitwise_equal(self, case):
        self.same(*case)

    @pytest.mark.parametrize("name", list(EVALUATOR_CASES))
    def test_hand_made_cases(self, name):
        got = self.same(*EVALUATOR_CASES[name])
        expected = {"tied-slacks": ([3, 2], [1]), "tied-multipliers": ([], [0, 2]),
                    "nan-inactive-slack": ([], []), "nan-before-violated": ([2], [])}
        assert got == expected.get(name)


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
        with mock.patch.object(np.linalg, "eigh", counting_eigh), np.errstate(all="ignore"):
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


def kernel_matrices(rng, n):
    """Square matrices of size ``n`` for the LAPACK kernel: symmetric positive
    definite, symmetric indefinite, general, and exactly singular ones (a
    zero matrix, a duplicated row and column, a zero column), whose
    factorization or solve meets an exact zero pivot."""
    X = rng.standard_normal((n, n))
    Q = np.linalg.qr(X)[0]
    w = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    w[0] = -abs(w[0])
    yield "definite", X @ X.T + 1e-3 * np.eye(n)
    yield "indefinite", 0.5 * ((Q * w) @ Q.T + ((Q * w) @ Q.T).T)
    yield "general", X
    yield "zero", np.zeros((n, n))
    if n > 1:
        S = X @ X.T
        S[-1], S[:, -1] = S[0], S[:, 0]
        yield "duplicated", S
        Z = X.copy()
        Z[:, n // 2] = 0.0
        yield "zero column", Z


def test_lapack_kernel_is_numpy_linalg():
    """``_positive_definite`` and ``_solve`` call the gufuncs that
    :func:`numpy.linalg.cholesky` and :func:`numpy.linalg.solve` call,
    ``numpy.linalg._umath_linalg.cholesky_lo`` and ``solve1``, which numpy
    has carried under these names since 1.8 (the package asks for numpy
    1.24 or later).  The verdict of ``_positive_definite`` is whether
    ``numpy.linalg.cholesky`` raises; ``_solve`` is bitwise equal to
    ``numpy.linalg.solve`` and all NaN exactly where that raises
    ``LinAlgError``.  Each is called under the explicit ``np.errstate`` that
    its callers hold (the search, or ``reduce_to_licq``): no floating-point
    warning escapes it, and the error state is left as it was.  A numpy that moves, renames or changes
    the gufuncs fails here instead of changing the search."""
    rng = np.random.default_rng(29)
    counts = dict.fromkeys(["factored", "not factored", "solved", "singular"], 0)
    state = np.geterr()
    for n in range(1, 31):
        for kind, M in kernel_matrices(rng, n):
            b = rng.standard_normal(n)
            for shift in (0.0, 1e-10 * np.trace(M)):
                try:
                    np.linalg.cholesky(M - shift * np.eye(n))
                    factored = True
                except np.linalg.LinAlgError:
                    factored = False
                with warnings.catch_warnings(), np.errstate(all="ignore"):
                    warnings.simplefilter("error")
                    assert solver._positive_definite(M, shift) is factored, (kind, n, shift)
                counts["factored" if factored else "not factored"] += 1
            try:
                ref = np.linalg.solve(M, b)
            except np.linalg.LinAlgError:
                ref = None
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("error")
                got = solver._solve(M, b)
            if ref is None:
                assert np.isnan(got).all(), (kind, n)
                counts["singular"] += 1
            else:
                assert got.tobytes() == ref.tobytes(), (kind, n)
                counts["solved"] += 1
            assert np.geterr() == state
    print(f"LAPACK kernel: {counts}")
    assert min(counts.values()) >= 30, counts
    # What the per-call error state hides: a failed gufunc call raises the
    # invalid flag and fills its output with NaN.
    with pytest.warns(RuntimeWarning, match="invalid value"):
        L = _umath_linalg.cholesky_lo(-np.eye(3), signature="d->d")
    assert np.isnan(L).all()


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

    def test_loop_queries_as_parameter_and_vector(self, bench30):
        # The queries of the N = 30 perfect loop, solved again from the
        # Parameter and from its vector: the same bits and the same counts.
        qp = lifting.build(bench30.problem)
        queries = []

        def recording(qp_, theta, warm, tol):
            queries.append((theta, warm, tol))
            return solver.solve(qp_, theta, warm, tol)

        sim.run_closed_loop(sim.SimulationConfig(), bench=bench30, qp=qp, solver_fn=recording)
        hits = 0
        for theta, warm, tol in queries:
            a = solver.solve(qp, theta, warm, tol)
            b = solver.solve(qp, theta.as_vector(), warm, tol)
            assert a.status is b.status is SolveStatus.OPTIMAL
            assert a.active_set == b.active_set
            for x, y in ((a.u_seq, b.u_seq), (a.z_star, b.z_star), (a.lam, b.lam)):
                assert x.tobytes() == y.tobytes()
            assert dataclasses.replace(a.stats, wall_time=0.0) == dataclasses.replace(b.stats, wall_time=0.0)
            hits += warm is not None and a.active_set == warm
        assert (len(queries), hits) == (1280, 1195)


    @pytest.mark.parametrize("optimum", ["empty", "non-empty"])
    def test_result_set_reads_as_the_benchmark_reads_it(self, beam10, optimum):
        # perfbench reads a result's set with isinstance(..., int), len, ==
        # against the warm set it passed and str: a change to the type must
        # keep all four.
        bench, qp = beam10
        theta = np.zeros(qp.n_theta) if optimum == "empty" else np.concatenate([bench.x0, [0.3, 0.3]])
        mask = int(solver.solve(qp, theta).active_set)
        assert (mask != 0) is (optimum == "non-empty")
        for warm in (mask, ActiveSet(mask)):
            res = solver.solve(qp, theta, warm=warm)
            assert res.status is SolveStatus.OPTIMAL and res.stats.candidates_visited == 1
            assert isinstance(res.active_set, int) and res.active_set == warm
            assert len(res.active_set) == mask.bit_count()
            assert str(res.active_set) == hex(mask)


class TestEmptySetResults:
    """A query accepted at the empty set returns its QP's read-only zero
    minimizer and multipliers, shared by every such result; a non-empty
    result owns its arrays."""

    @pytest.fixture(params=["beam-10", "from-matrices"])
    def case(self, request, beam10):
        """``(qp, theta accepted at the empty set, theta with a non-empty optimum)``."""
        if request.param == "beam-10":
            bench, qp = beam10
            return qp, np.zeros(qp.n_theta), np.concatenate([bench.x0, [0.3, 0.3]])
        # b = 1 + theta: theta = -2 makes both rows active, at z = (-1, -1).
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)), G=np.eye(2), S=[[1.0], [1.0]],
                                    W=[1.0, 1.0])
        return qp, np.zeros(1), np.array([-2.0])

    def test_accepted_empty_query_returns_the_shared_zero_vectors(self, case):
        qp, theta, _ = case
        first, second = solver.solve(qp, theta), solver.solve(qp, theta, warm=ActiveSet(0))
        for res in (first, second):
            assert res.status is SolveStatus.OPTIMAL and res.active_set == ActiveSet(0)
            assert res.z_star is qp.origin and res.lam is qp.zero_lam
        assert first.z_star is second.z_star and first.lam is second.lam
        assert qp.origin.shape == (qp.n_z,) and not qp.origin.any()
        assert qp.zero_lam.shape == (qp.p_tilde,) and not qp.zero_lam.any()

    def test_shared_zero_vectors_cannot_be_written(self, case):
        qp, theta, _ = case
        res = solver.solve(qp, theta)
        for shared in (res.z_star, res.lam):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                shared += 1.0
        assert not qp.origin.any() and not qp.zero_lam.any()
        assert res.u_seq.flags.writeable

    def test_non_empty_result_owns_fresh_arrays(self, case):
        qp, _, theta = case
        res = solver.solve(qp, theta)
        assert res.status is SolveStatus.OPTIMAL and len(res.active_set) > 0
        for own, shared in ((res.z_star, qp.origin), (res.lam, qp.zero_lam)):
            assert own.flags.writeable and not np.shares_memory(own, shared)
        assert res.lam[res.active_set.indices()].all()
        again = solver.solve(qp, theta)
        assert not np.shares_memory(again.lam, res.lam) and not np.shares_memory(again.z_star, res.z_star)


class TestNonFiniteTheta:
    """A NaN or infinite entry of theta, or a finite theta so large that
    ``b = W + S theta`` is not finite, raises ``ValueError`` at once: in
    ``solve``, ``reduce_to_licq`` and ``kkt_residuals``."""

    @staticmethod
    def raises(qp, theta, match):
        # An unchecked infinite bound once sent the search through the whole
        # fallback order; the alarm turns such a hang into a failure.
        def hang(signum, frame):
            raise TimeoutError("a non-finite query was not rejected")

        optimal = solver.solve(qp, np.zeros(qp.n_theta))
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            for call in (lambda: solver.solve(qp, theta, tol=Tolerances.for_qp(qp, max_kkt_solves=200)),
                         lambda: reduce_to_licq(qp, ActiveSet(0), theta),
                         lambda: kkt_residuals(qp, optimal, theta)):
                with pytest.raises(ValueError, match=match):
                    call()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("value, where", [
        pytest.param(value, where, id=label if where == "first" else f"{where}-{label}")
        for where in ("first", "last state", "last input")
        for value, label in ((np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf"))])
    def test_non_finite_entry(self, beam10, value, where):
        # The screen reads the first entry of the product with theta, which
        # a non-finite entry anywhere in theta makes non-finite.
        bench, qp = beam10
        j = {"first": 0, "last state": bench.problem.n_x - 1, "last input": qp.n_theta - 1}[where]
        theta = np.zeros(qp.n_theta)
        theta[j] = value
        self.raises(qp, theta, rf"^theta must be finite, but its entries \[{j}\] are not$")
        with pytest.raises(ValueError, match="theta must be finite"):
            solver.solve(qp, Parameter(theta[: bench.problem.n_x], theta[bench.problem.n_x:]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_on_a_zero_column(self, value):
        # F and S have a zero first column, so the product meets 0 * inf and
        # 0 * NaN, which are NaN, in every entry.  0 * inf also sets the
        # invalid flag, which numpy reports as a warning before the error.
        qp = LiftedQP.from_matrices(H=np.eye(2), F=[[0.0, 1.0], [0.0, 1.0]], G=[[1.0, 0.0]],
                                    S=[[0.0, 1.0]], W=[1.0])
        assert not qp.theta_op[:, 0].any()
        theta, match = np.array([value, 0.0]), r"^theta must be finite, but its entries \[0\] are not$"
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            self.raises(qp, theta, match)
        assert bool(seen) is not bool(np.isnan(value))
        assert all(w.category is RuntimeWarning and "invalid value" in str(w.message) for w in seen)
        # Where warnings are errors the product raises that warning itself,
        # and theta still gets its ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.raises(qp, theta, match)
            qp = LiftedQP.from_matrices(H=np.eye(2), F=[[0.0, 1.0], [0.0, 2.0]], G=np.eye(2),
                                        S=[[0.0, 1.0], [0.0, -1.0]], W=[1.0, 1.0])
            self.raises(qp, theta, match)

    def test_overflow_warning_of_a_finite_theta_is_raised_as_it_is(self, beam10):
        # A finite theta that overflows the product is not named non-finite:
        # where warnings are errors, numpy's overflow warning is what raises.
        _, qp = beam10
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="overflow"):
                solver.solve(qp, np.full(qp.n_theta, 1e308))

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_overflowing_bounds(self, beam10, value):
        # S theta overflows: to -inf in some rows for +1e308, to +inf for -1e308.
        _, qp = beam10
        theta = np.full(qp.n_theta, value)
        with np.errstate(over="ignore"):
            self.raises(qp, theta, "theta is too large: b = W [+] S theta is not finite")

    @pytest.mark.parametrize("bounds", [[np.nan, 1.0], [1.0, -np.inf], [-1.0, np.nan]])
    def test_search_rejects_a_non_finite_bound(self, bounds):
        # Which of inf - inf or +-inf the BLAS sum of S theta makes depends on
        # its kernel, so the search is given b itself.  A NaN bound, which no
        # slack test calls violated, must not be accepted at the empty set;
        # whichever row the rejected empty set adds, its child checks b, and
        # so does a warm start from a non-empty set.
        qp = halfspace_qp([1.0, -1.0], [1.0, 1.0])
        for mask in (0, 1):
            with pytest.raises(ValueError, match="theta is too large"):
                solver._search(qp, np.array(bounds), mask, Tolerances.for_qp(qp), solver.SolveStats())

    def test_infinite_bound_accepted_at_the_empty_set(self):
        # A +inf bound cannot be violated: z = 0 is the exact minimizer.
        qp = LiftedQP.from_matrices(H=1.0, F=[[0.0]], G=[[1.0]], S=[[10.0]], W=[1.0])
        with np.errstate(over="ignore"):
            res = solver.solve(qp, np.array([1e308]))
        assert res.status is SolveStatus.OPTIMAL and res.active_set == ActiveSet(0)
        assert res.z_star.tolist() == [0.0] and res.lam.tolist() == [0.0]

    def test_overflowed_ray_test_ends_the_search(self, beam10):
        # b b^T would overflow at this size in the ray test's normal
        # equations and empty the NNLS's passive set; the ray test scales b
        # down to the size of K, so the query is certified.
        _, qp = beam10
        theta = np.zeros(qp.n_theta)
        theta[0] = 1e160
        with np.errstate(over="ignore"):
            res = solver.solve(qp, theta, tol=Tolerances.for_qp(qp, max_kkt_solves=200))
        assert res.status is SolveStatus.INFEASIBLE
        assert check_farkas(qp.G, qp.W + qp.S @ theta, res.farkas)


class TestThetaLength:
    """A theta with other than ``n_theta`` entries raises the ``ValueError``
    that names theta, from every library entry point that takes one."""

    @pytest.fixture(scope="class")
    def entry_points(self, beam10):
        _, qp = beam10
        optimal = solver.solve(qp, np.zeros(qp.n_theta))
        return {"solve": lambda theta: solver.solve(qp, theta),
                "kkt_residuals": lambda theta: kkt_residuals(qp, optimal, theta),
                "reduce_to_licq": lambda theta: reduce_to_licq(qp, ActiveSet(0), theta),
                "evaluate_lifted_cost": lambda theta: lifting.evaluate_lifted_cost(qp, np.zeros(qp.n_z), theta)}

    @pytest.mark.parametrize("name", ["solve", "kkt_residuals", "reduce_to_licq", "evaluate_lifted_cost"])
    def test_wrong_length(self, beam10, entry_points, name):
        bench, qp = beam10
        short_x = Parameter(np.zeros(bench.problem.n_x - 1), np.zeros(bench.problem.n_u))
        for theta, m in ((np.zeros(qp.n_theta + 1), qp.n_theta + 1), (np.zeros(qp.n_theta - 1), qp.n_theta - 1),
                         (np.zeros(2 * qp.n_theta), 2 * qp.n_theta), (short_x, qp.n_theta - 1)):
            with pytest.raises(ValueError, match=f"^theta needs {qp.n_theta} entries, got {m}$"):
                entry_points[name](theta)

    @pytest.mark.parametrize("shape", [(21,), (40,), (3, 21)])
    def test_wrong_u_seq_length(self, beam10, shape):
        # n_z is 20; a 1-D u_seq of 40 entries is not read as two steps.
        _, qp = beam10
        with pytest.raises(ValueError, match=f"^u_seq needs {qp.n_z} entries per step, got {shape[-1]}$"):
            lifting.evaluate_lifted_cost(qp, np.zeros(shape), np.zeros(qp.n_theta))

    def test_batched_cost_needs_a_theta_per_step(self, beam10):
        # Two full rows of theta for three input sequences.
        _, qp = beam10
        with pytest.raises(ValueError, match=f"^theta needs {3 * qp.n_theta} entries, got {2 * qp.n_theta}$"):
            lifting.evaluate_lifted_cost(qp, np.zeros((3, qp.n_z)), np.zeros((2, qp.n_theta)))


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
            fat = ActiveSet(ref.active_set | 1 << (degenerate.p_tilde - 1))
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

    def test_unreproduced_equalities_are_a_licq_failure(self):
        # Two nearly parallel rows: K_AA passes the rank screen (condition
        # number 4.4e9), but its solve misses b_A by 4.2e-7, above the 2e-8
        # equality band, so the candidate counts as rank deficient.
        qp = LiftedQP.from_matrices(H=[[2.0, 0.5], [0.5, 1.0]], F=np.zeros((2, 1)),
                                    G=[[1.0, 0.3], [1.0, 0.30002]], S=np.zeros((2, 1)),
                                    W=[0.7, -1.0])
        assert solver._rank_complete(qp.K, solver._RANK_TOL)
        assert solver._evaluate(qp, [0, 1], qp.W, Tolerances.for_qp(qp)) is None
        res = solver.solve(qp, np.zeros(1), warm=ActiveSet(0b11))
        assert res.status is SolveStatus.OPTIMAL
        assert res.stats.licq_failures == 1

    def test_reduction_rejects_consistent_set_with_negative_multipliers(self):
        # z <= 1 twice: the set of both rows is consistent (z = 1) and rank
        # deficient, but holding z = 1 needs mu < 0, so the NNLS leaves a residual.
        qp = halfspace_qp([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="no nonnegative multipliers"):
            reduce_to_licq(qp, ActiveSet.from_indices([0, 1]), np.zeros(1))

    def test_reduction_to_an_ill_conditioned_support_fails(self):
        # Rows g, g + 1e-6 e_2 and g again, with -z* = g + (g + 1e-6 e_2):
        # the set is sufficient, but the NNLS must keep both nearly parallel
        # rows to reproduce the range-part z, and their K_AA has condition
        # number 4e12, beyond the rank screen's 1e10.
        G = np.array([[1.0, 0.0], [1.0, 1e-6], [1.0, 0.0]])
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)), G=G,
                                    S=np.zeros((3, 1)), W=G @ -(G[0] + G[1]))
        assert np.linalg.cond(qp.K[:2, :2]) > 1e10
        with pytest.raises(ValueError, match="reduction failed to reach a rank-complete candidate"):
            reduce_to_licq(qp, ActiveSet(0b111), np.zeros(1))

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
        assert res.active_set == 0
        assert reduce_to_licq(qp, res.active_set, 0) == 0


@st.composite
def degenerate_reductions(draw):
    """``(qp, theta, ref, fat, bogus)``: a random query with a non-empty
    optimal set, 1-3 appended rows that are nonnegative combinations of its
    active rows (``fat`` is the optimal set plus all of them), and the optimal
    set plus one row that is slack at the optimum (``bogus``, ``None`` when
    no row has slack above 1e-6)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    ref = None
    while ref is None or not ref.active_set:
        _, qp, theta, ref = random_feasible_query(rng)
    active = ref.active_set.indices()
    k = draw(st.integers(1, 3))
    C = draw(hnp.arrays(float, (k, len(active)), elements=st.floats(0.0, 2.0)))
    aug = LiftedQP.from_matrices(
        H=qp.H, F=qp.F, G=np.vstack([qp.G, C @ qp.G[active]]),
        S=np.vstack([qp.S, C @ qp.S[active]]), W=np.append(qp.W, C @ qp.W[active]),
        N=qp.N, n_u=qp.n_u,
    )
    fat = ActiveSet(ref.active_set | ((1 << k) - 1) << qp.p_tilde)
    slack = eval_constraints(qp, ref.z_star, theta)
    inactive = (slack > 1e-6).nonzero()[0]
    bogus = None
    if inactive.size:
        row = int(inactive[draw(st.integers(0, inactive.size - 1))])
        bogus = ActiveSet(ref.active_set | 1 << row)
    return aug, theta, ref, fat, bogus


class TestReductionProperties:
    """NNLS reduction of sufficient sets padded with dependent rows."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(degenerate_reductions())
    def test_subset_with_the_oracle_minimizer(self, case):
        qp, theta, ref, fat, bogus = case
        reduced = reduce_to_licq(qp, fat, theta)
        assert reduced & ~fat == 0
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
    """``(A, t)``: a small least-squares problem, its columns drawn with some
    of them repeated (so ``A^T A`` may be singular)."""
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    A = draw(hnp.arrays(float, (m, n), elements=st.integers(-4, 4).map(float))) * scale
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=3))
    A = np.hstack([A, A[:, repeats]])
    t = draw(hnp.arrays(float, m, elements=st.floats(-10.0, 10.0, allow_subnormal=False)))
    return A, t


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nnls_cases())
def test_nnls_matches_scipy(case):
    # The normal-equation NNLS reaches scipy's least-squares objective and
    # satisfies the NNLS optimality conditions: y >= 0, gradient d - C y <= 0
    # and zero where y > 0.  Repeated columns make C singular; it must not
    # raise.  The objective is compared one way, as scipy's own point can miss the
    # optimum: on A = [[1000, 4000], [0, 1000], [-1000, -4000], [1000, 1000]],
    # t = [1, 1e-174, 1, 1e-174] scipy 1.17 returns x_1 = 0.001 with squared
    # residual 5.0 where y = 0 gives 2.0.
    A, t = case
    C, d = A.T @ A, A.T @ t
    with np.errstate(all="ignore"):  # the guard of the search or of reduce_to_licq
        y = solver._nnls(C, d)
    x, _ = scipy_nnls(A, t)
    assert np.all(y >= 0.0)
    f_y, f_x = np.sum((A @ y - t) ** 2), np.sum((A @ x - t) ** 2)
    assert f_y - f_x <= 1e-10 * max(t @ t, np.finfo(float).tiny)
    g = d - C @ y
    band = 1e-9 * (1.0 + np.abs(C).max() * y.sum() + np.abs(d).max())
    assert np.all(g <= band)
    assert np.all(np.abs(g[y > 0.0]) <= band)


@pytest.mark.parametrize("C, d", [([[np.inf]], [1.0]), ([[np.inf, 1.0], [1.0, 2.0]], [1.0, -1.0])])
def test_nnls_keeps_the_last_iterate_when_the_passive_set_empties(C, d):
    # An infinite C_jj makes the first passive solve 0, not positive; the
    # step back then empties the passive set, and the last iterate stands.
    with np.errstate(all="ignore"):
        y = solver._nnls(np.array(C), np.array(d))
    assert y.tolist() == [0.0] * len(d)


def test_nnls_keeps_the_last_iterate_when_a_dependent_column_enters(monkeypatch):
    # The columns of C = A^T A are e1, e2 and e1 + e2.  The third enters,
    # then the first (y = [1, 0, 2]); the second then makes the passive
    # block exactly singular, and its solve reads NaN.
    C = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    d = np.array([3.0, 3.0, 5.0])
    solves, solve = [], solver._solve

    def recording(A, b):
        solves.append(solve(A, b))
        return solves[-1]

    monkeypatch.setattr(solver, "_solve", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):  # the guard of the search or of reduce_to_licq
            y = solver._nnls(C, d)
    assert [s.tolist() for s in solves[:2]] == [[2.5], [1.0, 2.0]]
    assert len(solves) == 3 and np.isnan(solves[2]).all()
    assert y.tolist() == [1.0, 0.0, 2.0]


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
        # candidate, a minimal dependent set: the direct solve on its rows is
        # the ray, so no NNLS runs, and the ray weights only those rows.
        triggers, sizes = [], []
        farkas_ray, nnls = solver._farkas_ray, solver._nnls

        def recorded(qp, b, trigger):
            triggers.append(trigger)
            return farkas_ray(qp, b, trigger)

        def sized(C, d):
            sizes.append(len(d))
            return nnls(C, d)

        monkeypatch.setattr(solver, "_farkas_ray", recorded)
        monkeypatch.setattr(solver, "_nnls", sized)
        bench, qp = beam10
        a, k, u = BEAM_INFEASIBLE_BASES[base]
        theta = Parameter(a * np.linalg.matrix_power(bench.plant.A_d, k) @ bench.x0,
                          0.5 * bench.u_scale * np.array(u))
        res = solver.solve(qp, theta)
        assert res.status is SolveStatus.INFEASIBLE
        assert len(triggers) == 1 and triggers[0] != 0
        assert sizes == []
        b = qp.W + qp.S @ theta.as_vector()
        assert check_farkas(qp.G, b, res.farkas)
        assert ActiveSet.from_indices(np.flatnonzero(res.farkas)) & ~triggers[0] == 0

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

    def test_trigger_with_a_two_dimensional_null_space_runs_the_nnls(self, monkeypatch):
        # z_1 <= -1 and -z_1 <= 0 are infeasible, z_2 <= 1 and -z_2 <= 1 are
        # not.  On these four trigger rows K_AA = G_A G_A^T has a
        # two-dimensional null space, so C = K_AA + b_A b_A^T is singular and
        # its direct solve is all NaN; the NNLS on C, not the one on all five
        # rows, finds the ray on the first pair.  The fifth row, z_1 <= 1,
        # keeps max|b| = 1, so b is not rescaled.
        qp = LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)),
                                    G=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]],
                                    S=np.zeros((5, 1)), W=[-1.0, 0.0, 1.0, 1.0, 1.0])
        solves, sizes = [], []
        solve, nnls = solver._solve, solver._nnls

        def recorded(A, b):
            solves.append(solve(A, b))
            return solves[-1]

        def sized(C, d):
            sizes.append(len(d))
            return nnls(C, d)

        monkeypatch.setattr(solver, "_solve", recorded)
        monkeypatch.setattr(solver, "_nnls", sized)
        with np.errstate(all="ignore"):  # the guard of the search
            y = solver._farkas_ray(qp, qp.W, 0b1111)
        assert np.isnan(solves[0]).all()
        assert sizes == [4]
        assert y.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
        assert check_farkas(qp.G, qp.W, y)

    @pytest.mark.parametrize("N", [10, 30])
    def test_large_theta_is_certified(self, beam10, bench30, N):
        # theta = c (x0, 0) is infeasible for c >= 5.  Unscaled, a b = W +
        # S theta that dwarfs sqrt(max diag K) gives the NNLS on K + b b^T
        # rays too inaccurate to pass check_farkas, and the search runs to
        # its budget (from c = 1e3 at N = 30 and 1e4 at N = 10).  With b
        # scaled, the one ray test certifies each query within n_z KKT solves.
        bench, qp = beam10 if N == 10 else (bench30, lifting.build(bench30.problem))
        for c in (1e3, 1e6, 1e9):
            theta = np.concatenate([c * bench.x0, np.zeros(bench.problem.n_u)])
            res = solver.solve(qp, theta, tol=Tolerances.for_qp(qp, max_kkt_solves=100))
            assert res.status is SolveStatus.INFEASIBLE, c
            assert res.stats.kkt_solves <= qp.n_z and res.stats.licq_failures == 1, c
            b = qp.W + qp.S @ theta
            assert check_farkas(qp.G, b, res.farkas), c
            assert b @ res.farkas == pytest.approx(-1.0, abs=1e-9), c  # scaled back to b

    @pytest.mark.parametrize("base", range(len(BEAM_INFEASIBLE_BASES)))
    def test_scaled_infeasible_theta_is_certified(self, beam10, base):
        # The feasible thetas form a convex set around theta = 0 (W > 0), so
        # c theta is infeasible for every c >= 1 when theta is.
        bench, qp = beam10
        a, k, u = BEAM_INFEASIBLE_BASES[base]
        theta = np.concatenate([a * np.linalg.matrix_power(bench.plant.A_d, k) @ bench.x0,
                                0.5 * bench.u_scale * np.array(u)])
        for c in 10.0 ** np.arange(10):
            res = solver.solve(qp, c * theta, tol=Tolerances.for_qp(qp, max_kkt_solves=100))
            assert res.status is SolveStatus.INFEASIBLE, c
            b = qp.W + qp.S @ (c * theta)
            assert check_farkas(qp.G, b, res.farkas), c
            assert b @ res.farkas == pytest.approx(-1.0, abs=1e-9), c  # scaled back to b

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

    def test_non_integral_budget_rejected(self):
        assert Tolerances(max_kkt_solves=np.int64(3)).max_kkt_solves == 3
        for budget in (2.5, "3"):
            with pytest.raises(TypeError, match="max_kkt_solves must be an integer"):
                Tolerances(max_kkt_solves=budget)

    @pytest.mark.parametrize("band", [np.nan, -1e-9, np.inf])
    def test_band_must_be_finite_and_nonnegative(self, band):
        # An infinite band accepts any candidate; NaN rejects none by its
        # comparisons but is no band either.
        with pytest.raises(ValueError, match="tol_violation = .* must be finite and nonnegative"):
            Tolerances(tol_violation=band)
        assert Tolerances(tol_violation=0.0).tol_violation == 0.0


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
    return qp, theta, ActiveSet(ref.active_set | 1 << (qp.p_tilde - 1)) if fat_warm else None


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
    got = (res.status.name, res.active_set, s.candidates_visited, s.kkt_solves, s.licq_failures)
    assert got == expected


COLD_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "cold_pool.json"


def test_cold_pool_search_is_pinned():
    """The 189 stored N = 50 queries of the ``query-cold`` benchmark, each
    solved cold: every one reaches its stored active set and minimizer, and
    the search's totals are pinned, so any change to its path shows here."""
    pool = json.loads(COLD_POOL.read_text())
    bench = make_benchmark(N=pool["horizon"], bound_scaling=pool["bound_scaling"])
    qp = lifting.build(bench.problem)
    totals = [0, 0, 0]
    for e in pool["entries"]:
        res = solver.solve(qp, Parameter(np.array(e["x"]), np.array(e["u_prev"])))
        assert res.status is SolveStatus.OPTIMAL, e["step"]
        assert res.active_set == int(e["active_set"], 16), e["step"]
        assert np.abs(res.z_star - e["z_star"]).max() <= 1e-9, e["step"]
        s = res.stats
        totals = [t + c for t, c in zip(totals, (s.kkt_solves, s.candidates_visited, s.licq_failures))]
    assert len(pool["entries"]) == 189
    assert totals == [2399, 2588, 0]


class TestVisitOrder:
    """The search walks its chain and defers the other children, yet it
    evaluates the candidates of the eager loop that pushed every child
    (``reference.eager_search_order``) in the same order: its sequence is a
    prefix of the reference's, which has no ray test and no budget."""

    @staticmethod
    def sources(monkeypatch, qp, theta, warm=None, budget=None):
        """Solve with ``_evaluate`` spied on, check its masks against the
        reference and count where the reference took each from.  With a
        ``budget``, the ray test finds no ray, so an infeasible query runs
        the search on until the budget is spent."""
        seen, evaluate = [], solver._evaluate
        tol = Tolerances.for_qp(qp) if budget is None else Tolerances.for_qp(qp, max_kkt_solves=budget)

        def recorded(qp, rows, b, tol):
            seen.append(ActiveSet.from_indices(rows))
            return evaluate(qp, rows, b, tol)

        with monkeypatch.context() as m:
            m.setattr(solver, "_evaluate", recorded)
            if budget is not None:
                m.setattr(solver, "_farkas_ray", lambda qp, b, trigger: None)
            solver.solve(qp, theta, warm=warm, tol=tol)
        b = qp.W + qp.S @ lifting._theta_vector(theta)
        ref = eager_search_order(qp, b, 0 if warm is None else warm, tol, len(seen))
        assert seen == [mask for mask, _ in ref]
        return collections.Counter(source for _, source in ref)

    def test_pinned_paths_pop_siblings_and_reach_the_order(self, monkeypatch):
        counts = collections.Counter()
        for make, _ in SEARCH_PATHS.values():
            counts += self.sources(monkeypatch, *make())
        # random-258 pops deferred siblings, removals and additions both;
        # duplicated-row-fat-warm runs its stack dry after its rank-deficient
        # warm set and takes the empty set from the candidate order.
        assert counts["sibling"] > 0 and counts["order"] > 0, counts

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(feasibility_cases(), st.sampled_from([None, 50]))
    def test_random_instances(self, qp, budget):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.sources(monkeypatch, qp, np.zeros(1), budget=budget)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(degenerate_reductions())
    def test_degenerate_instances_from_their_fat_warm_set(self, case):
        qp, theta, _, fat, _ = case
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.sources(monkeypatch, qp, theta, warm=fat)

    def test_beam_queries(self, beam10, monkeypatch):
        # Without a ray the infeasible queries spend 300 KKT solves, most of
        # them on deferred siblings, so the frames' order is pinned too.
        bench, qp = beam10
        siblings = 0
        for a, k, u in BEAM_INFEASIBLE_BASES:
            theta = Parameter(a * np.linalg.matrix_power(bench.plant.A_d, k) @ bench.x0,
                              0.5 * bench.u_scale * np.array(u))
            self.sources(monkeypatch, qp, theta)
            siblings += self.sources(monkeypatch, qp, theta, budget=300)["sibling"]
        assert siblings > 1000
        pool = json.loads(COLD_POOL.read_text())
        bench = make_benchmark(N=pool["horizon"], bound_scaling=pool["bound_scaling"])
        qp = lifting.build(bench.problem)
        for e in pool["entries"]:
            self.sources(monkeypatch, qp, Parameter(np.array(e["x"]), np.array(e["u_prev"])))

    def test_frame_lists_every_child(self, monkeypatch):
        """A frame (``solver._siblings``) yields every child of its rejected
        candidate, the chain's own first: the removals, then, below ``cap``
        rows, the additions, each list as ``ordered_lists`` forms it.  The
        candidates are the hand-made evaluator cases and those the search
        rejects on random-258 and on every tenth cold-pool query."""
        rejected, evaluate = [], solver._evaluate

        def recorded(qp, rows, b, tol):
            out = evaluate(qp, rows, b, tol)
            if out is not None and out[0] is None:
                rejected.append((qp, ActiveSet.from_indices(rows), out, tol))
            return out

        with np.errstate(all="ignore"):  # the search's guard
            for qp, mask, b in EVALUATOR_CASES.values():
                recorded(qp, solver._mask_indices(mask), b, Tolerances.for_qp(qp))
        pool = json.loads(COLD_POOL.read_text())
        bench = make_benchmark(N=pool["horizon"], bound_scaling=pool["bound_scaling"])
        cold = lifting.build(bench.problem)
        queries = [_random_query(258)[:2]]
        queries += [(cold, Parameter(np.array(e["x"]), np.array(e["u_prev"]))) for e in pool["entries"][::10]]
        with monkeypatch.context() as m:
            m.setattr(solver, "_evaluate", recorded)
            for qp, theta in queries:
                solver.solve(qp, theta)
        kinds = set()
        for qp, mask, out, tol in rejected:
            cap = min(qp.Y.shape)
            violated, negative = ordered_lists(out, mask, tol)
            children = [mask & ~(1 << k) for k in negative]
            if mask.bit_count() < cap:
                children += [mask | 1 << k for k in violated]
            assert list(solver._siblings(mask, out[1], out[2], -tol.tol_violation, cap)) == children
            kinds.add("negative" if negative else "no negative")
            if mask.bit_count() == cap:
                kinds.add("at cap")
        assert {"negative", "no negative", "at cap"} <= kinds, kinds


class TestErrorStateIsRestored:
    """The search holds one ``np.errstate`` per query from its first candidate
    that can reach LAPACK; ``reduce_to_licq`` and the reference ``kkt_solve``
    hold their own.  On every exit the caller's error state is back and no
    ``RuntimeWarning`` has escaped."""

    @staticmethod
    def clean(call):
        state = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = call()
        assert np.geterr() == state
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return out

    @staticmethod
    def spy(monkeypatch, name):
        """Record the ``invalid`` error state at each call of ``solver.<name>``."""
        seen, real = [], getattr(solver, name)

        def recorded(*args):
            seen.append(np.geterr()["invalid"])
            return real(*args)

        monkeypatch.setattr(solver, name, recorded)
        return seen

    def test_accepted_empty_candidate_enters_no_guard(self, monkeypatch):
        seen = self.spy(monkeypatch, "_evaluate")
        res = self.clean(lambda: solver.solve(halfspace_qp([1.0], [1.0]), np.zeros(1)))
        assert res.status is SolveStatus.OPTIMAL and res.active_set == 0
        assert seen == [np.geterr()["invalid"]] and seen != ["ignore"]

    def test_optimal_after_a_failed_factorization(self, monkeypatch):
        seen = self.spy(monkeypatch, "_evaluate")
        qp, theta, warm = _duplicated_row_query(True)
        res = self.clean(lambda: solver.solve(qp, theta, warm=warm))
        assert res.status is SolveStatus.OPTIMAL and res.stats.licq_failures == 1
        assert seen == ["ignore"] * res.stats.candidates_visited

    def test_infeasible_with_a_ray(self):
        qp = embedded_pair(copies=1)
        res = self.clean(lambda: solver.solve(qp, np.zeros(1)))
        assert res.status is SolveStatus.INFEASIBLE and check_farkas(qp.G, qp.W, res.farkas)

    def test_ray_test_after_the_empty_candidate_is_guarded(self, monkeypatch):
        # A zero budget runs the ray test right after the empty candidate.
        seen = self.spy(monkeypatch, "_farkas_ray")
        qp = halfspace_qp([1.0, -1.0], [-1.0, -1.0])
        res = self.clean(lambda: solver.solve(qp, np.zeros(1), tol=Tolerances.for_qp(qp, max_kkt_solves=0)))
        assert res.status is SolveStatus.INFEASIBLE and seen == ["ignore"]

    def test_budget_exhausted(self):
        qp = coupled_pair()
        res = self.clean(lambda: solver.solve(qp, np.zeros(1), tol=Tolerances.for_qp(qp, max_kkt_solves=1)))
        assert res.status is SolveStatus.BUDGET_EXHAUSTED

    def test_exception_inside_the_loop(self, monkeypatch):
        evaluate = solver._evaluate

        def failing(qp, rows, b, tol):
            if rows:
                raise RuntimeError("evaluator failed")
            return evaluate(qp, rows, b, tol)

        monkeypatch.setattr(solver, "_evaluate", failing)

        def call():
            with pytest.raises(RuntimeError, match="evaluator failed"):
                solver.solve(coupled_pair(), np.zeros(1))

        self.clean(call)

    def test_reduction_and_kkt_solve(self):
        qp, theta, warm = _duplicated_row_query(True)
        assert self.clean(lambda: kkt_solve(qp, warm, theta)) is None
        reduced = self.clean(lambda: reduce_to_licq(qp, warm, theta))
        assert self.clean(lambda: kkt_solve(qp, reduced, theta)) is not None

        def rejected():
            with pytest.raises(ValueError, match="no nonnegative multipliers"):
                reduce_to_licq(halfspace_qp([1.0, 1.0], [1.0, 1.0]), ActiveSet(0b11), np.zeros(1))

        self.clean(rejected)
