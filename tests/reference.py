"""Independent references that the tests cross-check the product against; no
``rfmpc`` module imports this one.

The finite-horizon cost and constraint slacks are evaluated by direct
recursion of the prediction model, deliberately independent of the condensed
QP built in :mod:`rfmpc.lifting`, so that the two routes can be cross-checked;
:func:`condense_template` builds that QP by a second, forward route.
Two reference solvers reach the minimizer of a desk-scale QP without the
search: enumeration shares only the candidate evaluator of :mod:`rfmpc.solver`,
and dual ascent only the operators ``K`` and ``Y`` the QP cached when it was
built.  :func:`numpy_evaluate` keeps an earlier, all-numpy form of that
evaluator, whose bits the current one must reproduce, and
:func:`numpy_shift_warm_set` the numpy form of the receding-horizon shift of
a warm set.
"""
from __future__ import annotations

import numpy as np

from rfmpc.beam import FDPlant, _diff_matrix
from rfmpc.lifting import LiftedQP, _theta_vector
from rfmpc.problem import Parameter, PlantModel, ProblemDefinition, StageConstraints, StageWeights, _vec
from rfmpc.solver import (_NO_ROWS, _RANK_TOL, ActiveSet, SolveResult, SolveStats, SolveStatus, Tolerances, _caller_mask,
                          _evaluate, _mask_indices, _rank_complete, _result, _solve, iter_candidate_masks)


def scalar_problem(N, A=1.0, B=1.0, Q=1.0, R=1.0, P=1.0, V=0.0) -> ProblemDefinition:
    """``x+ = A x + B u`` over ``N`` stages with time-invariant weights, no cross
    weight and no constraints."""
    weights = StageWeights(Q=[Q] * N, R=[R] * N, M=[0.0] * N, V=[V] * (N + 1), P=P)
    empty = np.zeros((0, 1))
    constraints = StageConstraints(d=[np.zeros(0)] * N, calE=[empty] * N, calF=[empty] * N,
                                   E=[empty] * N, d_hat=np.zeros(0), E_hat=empty, F_hat=empty)
    return ProblemDefinition(PlantModel(A, B), weights, constraints, N)


def _u_matrix(u_seq, N: int, n_u: int) -> np.ndarray:
    u = np.asarray(u_seq, dtype=float)
    try:
        return u.reshape(N, n_u)
    except ValueError:
        raise ValueError(f"input sequence of size {u.size} does not match horizon {N} x {n_u}")


def predict_trajectory(p: ProblemDefinition, u_seq, x0) -> np.ndarray:
    """Roll the prediction model forward; returns states x'_0 .. x'_N stacked row-wise."""
    A, B = p.prediction_model.A, p.prediction_model.B
    u = _u_matrix(u_seq, p.horizon, p.n_u)
    xs = np.empty((p.horizon + 1, p.n_x))
    xs[0] = _vec(x0)
    for k in range(p.horizon):
        xs[k + 1] = A @ xs[k] + B @ u[k]
    return xs


def evaluate_cost(p: ProblemDefinition, u_seq, theta: Parameter) -> float:
    """Finite-horizon cost by direct recursion of the stage sums.

    Includes the state-input cross terms, the input-increment penalty against
    ``theta.u_prev`` at stage 0 and the extra terminal increment weight.
    """
    w = p.weights
    u = _u_matrix(u_seq, p.horizon, p.n_u)
    xs = predict_trajectory(p, u, theta.x)
    u_prev = theta.u_prev
    J = 0.0
    for k in range(p.horizon):
        du = u[k] - u_prev
        J += xs[k] @ w.Q[k] @ xs[k] + 2.0 * (xs[k] @ w.M[k] @ u[k]) + u[k] @ w.R[k] @ u[k]
        J += du @ w.V[k] @ du
        u_prev = u[k]
    J += xs[-1] @ w.P @ xs[-1] + u[-1] @ w.V[-1] @ u[-1]
    return float(J)


def check_admissible(p: ProblemDefinition, u_seq, theta: Parameter, tol: float = 0.0):
    """Evaluate all stage/terminal constraint slacks along the predicted trajectory.

    Returns ``(admissible, slacks)`` where ``slacks`` stacks stage 0..N-1 rows
    followed by the terminal rows, in the same order as the condensed
    constraint bound vector.
    """
    c = p.constraints
    u = _u_matrix(u_seq, p.horizon, p.n_u)
    xs = predict_trajectory(p, u, theta.x)
    u_prev = theta.u_prev
    slacks = []
    for k in range(p.horizon):
        if len(c.d[k]):
            slacks.append(c.d[k] - c.calE[k] @ xs[k] - c.calF[k] @ u_prev - c.E[k] @ u[k])
        u_prev = u[k]
    if len(c.d_hat):
        slacks.append(c.d_hat - c.E_hat @ xs[-1] - c.F_hat @ u[-1])
    s = np.concatenate(slacks) if slacks else np.zeros(0)
    return bool(s.size == 0 or np.min(s) >= -tol), s


def condense_template(p: ProblemDefinition) -> LiftedQP:
    """The condensed QP by a forward stage template, without validation or
    the coercivity check.

    One loop over the stages ``k = 0..N`` carries the affine map ``T`` from
    ``v = (x, u_prev, u_0..u_{N-1})`` to ``(x'_k, u'_{k-1}, u'_k)``, starting
    from ``x'_0 = x``, ``u'_{-1} = u_prev`` and stepping
    ``x'_{k+1} = A x'_k + B u'_k``.  Each stage adds
    ``T^T [[Q, 0, M], [0, V, -V], [M^T, -V, R + V]] T`` to the cost matrix
    over ``v``, whose theta-theta, u-theta and u-u blocks are ``const_op``,
    ``F`` and ``H``, and appends its rows ``[calE calF E] T``.  The terminal
    stage is the same template with ``u'_N = 0``, ``Q = P``, ``M = R = 0``,
    ``V = V_N`` and rows ``[E_hat F_hat 0]``.  ``G`` is the rows' input
    columns and ``S = G H^{-1} F`` minus their theta columns.  Pushing the
    whole template through every stage is O(N^3) work, but it shares no step
    with the backward recursion of :func:`rfmpc.lifting.build`.
    """
    A, B = p.prediction_model.A, p.prediction_model.B
    n_x, n_u, N = p.n_x, p.n_u, p.horizon
    w, c = p.weights, p.constraints
    n_theta = n_x + n_u
    x, prev, cur = slice(0, n_x), slice(n_x, n_theta), slice(n_theta, n_theta + n_u)
    T = np.zeros((n_x + 2 * n_u, n_theta + N * n_u))
    T[:n_theta, :n_theta] = np.eye(n_theta)
    cost = np.zeros((T.shape[1], T.shape[1]))
    rows, W, stage_offsets = [], [], []
    O_xu = np.zeros((n_x, n_u))
    for k in range(N + 1):
        if k < N:
            T[cur, n_theta + k * n_u : n_theta + (k + 1) * n_u] = np.eye(n_u)
            Q, M, R, V = w.Q[k], w.M[k], w.R[k], w.V[k]
            d, E_k = c.d[k], np.hstack([c.calE[k], c.calF[k], c.E[k]])
        else:
            Q, M, R, V = w.P, O_xu, 0.0, w.V[N]
            d, E_k = c.d_hat, np.hstack([c.E_hat, c.F_hat, np.zeros((c.p_hat, n_u))])
        L = np.block([[Q, O_xu, M], [O_xu.T, V, -V], [M.T, -V, R + V]])
        cost += T.T @ (L @ T)
        rows.append(E_k @ T)
        W.append(d)
        stage_offsets.extend((k, i) for i in range(len(d)))
        T[x] = A @ T[x] + B @ T[cur]
        T[prev] = T[cur]
        T[cur] = 0.0

    rows = np.vstack(rows)
    G = rows[:, n_theta:]
    qp = LiftedQP(H=cost[n_theta:, n_theta:], F=cost[n_theta:, :n_theta],
                  const_op=cost[:n_theta, :n_theta], G=G, S=-rows[:, :n_theta],
                  W=np.concatenate(W), stage_offsets=stage_offsets, N=N, n_u=n_u)
    qp.S += G @ qp.HinvF
    return qp


def to_z(qp: LiftedQP, u_seq, theta) -> np.ndarray:
    """Shift an input sequence to the coordinates centered at the unconstrained minimizer."""
    u = np.asarray(u_seq, float).reshape(-1)
    return u + qp.HinvF @ _theta_vector(theta)


def eval_constraints(qp: LiftedQP, z, theta) -> np.ndarray:
    """Constraint slacks ``W + S theta - G z`` (nonnegative iff admissible)."""
    z = np.asarray(z, float).reshape(-1)
    return qp.W + qp.S @ _theta_vector(theta) - qp.G @ z


def check_easy_slater(qp: LiftedQP) -> bool:
    """True iff a strictly admissible point exists for every parameter by inspection.

    That is the case when every bound is strictly positive and some point
    linear in ``theta`` has slack exactly ``W``: ``z = 0`` when ``S == 0``,
    and the zero input ``u = 0`` (``z = H^{-1} F theta``) when
    ``S == G H^{-1} F``.  :func:`rfmpc.lifting.build` produces the latter bit
    for bit whenever no constraint row touches the predicted states or the
    previous input.
    """
    if qp.W.size == 0:
        return True
    if np.min(qp.W) <= 0:
        return False
    return bool(not np.any(qp.S) or np.array_equal(qp.S, qp.G @ qp.HinvF))


@np.errstate(all="ignore")  # the evaluator leaves the flags of a NaN solve to its caller
def kkt_solve(qp: LiftedQP, aset, theta):
    """Solve the KKT system of the QP with the candidate rows as equalities.

    Returns ``(z_star, lam)`` where ``lam`` holds the multipliers of the
    candidate rows in ascending index order, whether or not the candidate
    passes the acceptance test, or ``None`` when the reduced matrix
    ``G_A H^{-1} G_A^T`` is singular at the relative threshold (the
    linear-independence qualification fails on this candidate).
    """
    mask = _caller_mask(qp, aset)
    if mask == 0:
        raise ValueError("candidate active set must be nonempty")
    b = qp.W + qp.S @ _theta_vector(theta)
    out = _evaluate(qp, _mask_indices(mask), b, Tolerances())
    if out is None:
        return None
    z, lam_A = out[:2]
    return (-(qp.Y[:, _mask_indices(mask)] @ lam_A) if z is None else z), lam_A


def numpy_evaluate(qp: LiftedQP, mask: int, b: np.ndarray, tol: Tolerances):
    """The candidate evaluator as it stood before its checks on the ``|A|``
    entries of ``slack[A]`` and ``lam_A`` moved to Python floats: each of them
    a numpy reduction.  It shares the rank screen and the solve with
    :func:`rfmpc.solver._evaluate`, which must return its bits; its caller
    holds the ``np.errstate``.  At the empty candidate a NaN bound counts
    as violated, as it does in the evaluator's verdict, and sorts last."""
    if not mask:
        viol = (~(b >= -tol.tol_violation)).nonzero()[0]
        if not viol.size:
            return np.zeros(qp.n_z), _NO_ROWS, [], []
        return None, _NO_ROWS, _numpy_worst_first(viol, b), []
    rows = np.array(_mask_indices(mask))
    KR = qp.K.take(rows, axis=0)
    KAA = KR.take(rows, axis=1)
    if not _rank_complete(KAA, _RANK_TOL):
        return None
    bA = b[rows]
    lam_A = _solve(KAA, -bA)
    slack = b + lam_A @ KR
    if not np.abs(slack[rows]).max() <= 1e-8 * (1.0 + np.abs(bA).max()):
        return None
    viol = (slack < -tol.tol_violation).nonzero()[0]
    neg = (lam_A < -tol.tol_violation).nonzero()[0]
    if not viol.size and not neg.size:
        return -(qp.Y[:, rows] @ lam_A), lam_A, [], []
    return None, lam_A, _numpy_worst_first(viol, slack), _numpy_worst_first(neg, lam_A, rows)


def ordered_lists(out, mask: int, tol: Tolerances) -> tuple:
    """``(violated, negative)`` of an :func:`rfmpc.solver._evaluate` result
    of ``mask`` as worst-first lists, the order the search visits their rows
    in: the violated rows by increasing slack and the negative ones by
    increasing multiplier, ties to the lower index.  They are formed here
    with numpy sorts, apart from the deferred frame
    (:func:`rfmpc.solver._siblings`) that forms them in the search, and the
    evaluator's ``remove`` and ``add`` rows must be their heads."""
    lam_A, slack, low = out[1], out[2], -tol.tol_violation
    rows = np.array([k for k in range(slack.size) if mask >> k & 1], dtype=int)
    violated = _numpy_worst_first((slack < low).nonzero()[0], slack)
    negative = _numpy_worst_first((lam_A < low).nonzero()[0], lam_A, rows)
    heads = (negative[0] if negative else None, violated[0] if violated else None)
    assert out[3:] == heads, f"evaluator's worst rows {out[3:]}, the lists' heads {heads}"
    return violated, negative


def _numpy_worst_first(idx: np.ndarray, values: np.ndarray, labels=None) -> list:
    """``idx`` by increasing ``values[idx]`` as a list, ties to the lower index
    (a stable sort of ascending indices), optionally mapped through ``labels``."""
    if not idx.size:
        return []
    idx = idx[values[idx].argsort(kind="stable")]
    return (idx if labels is None else labels[idx]).tolist()


@np.errstate(all="ignore")  # the evaluator leaves the flags of a NaN solve to its caller
def enumerate_active_sets(qp: LiftedQP, theta, tol: Tolerances | None = None, max_constraints: int = 20) -> SolveResult:
    """First acceptable candidate in (cardinality, numeric mask) order.

    Iterates every candidate with cardinality up to the decision dimension;
    rank-deficient candidates are skipped.  Returns an infeasibility result
    when no candidate is accepted.  Guarded against index spaces larger than
    ``2^max_constraints``.
    """
    p = qp.p_tilde
    if p > max_constraints:
        raise ValueError(f"enumeration over 2^{p} candidates refused (limit 2^{max_constraints})")
    tol = tol if tol is not None else Tolerances.for_qp(qp)
    theta_vec = _theta_vector(theta)
    b = qp.W + qp.S @ theta_vec
    stats = SolveStats()
    for mask in iter_candidate_masks(p, min(qp.n_z, p)):
        stats.candidates_visited += 1
        if mask:
            stats.kkt_solves += 1
        out = _evaluate(qp, _mask_indices(mask), b, tol)
        if out is None:
            stats.licq_failures += 1
            continue
        z, lam_A = out[:2]
        if z is not None:
            return _result(qp, qp.HinvF @ theta_vec, stats, SolveStatus.OPTIMAL, mask, z, lam_A)
    return _result(qp, None, stats, SolveStatus.INFEASIBLE)


@np.errstate(all="ignore")  # the evaluator leaves the flags of a NaN solve to its caller
def eager_search_order(qp: LiftedQP, b: np.ndarray, mask: int, tol: Tolerances, limit: int) -> list:
    """The candidates the search evaluates from warm ``mask``, in the order
    of its earlier eager loop, as ``(mask, source)`` pairs.

    Each rejected candidate pushes every child on one stack of masks:
    additions of its violated rows (only below ``min(n_z, p)`` rows), then
    removals of its negative rows, each in reverse worst-first order, so the
    worst removal pops first.  A popped mask that was visited, or that holds
    a minimal rank-deficient candidate, is skipped; when the stack is empty
    the next mask of the (cardinality, mask) order is tried.  ``source``
    names where a candidate came from: ``"warm"``, ``"chain"`` (the first
    child of the candidate evaluated just before it), ``"sibling"`` (any
    other mask off the stack) or ``"order"``.  It runs no ray test and has
    no budget: it stops at an accepted candidate, at the end of the order or
    after ``limit`` candidates, so the search's sequence is a prefix of its
    own.
    """
    n_z, p = qp.Y.shape
    cap = min(n_z, p)
    visited, licq, order = set(), [], []
    stack, fresh, fallback = [mask if mask.bit_count() <= cap else 0], "warm", None
    while len(order) < limit:
        if stack:
            mask, source, fresh = stack.pop(), fresh, "sibling"
        else:
            if fallback is None:
                fallback = iter_candidate_masks(p, cap)
            mask, source = next(fallback, None), "order"
            if mask is None:
                break
        if mask in visited:
            continue
        visited.add(mask)
        if any(l & mask == l for l in licq):
            continue
        order.append((mask, source))
        out = _evaluate(qp, _mask_indices(mask), b, tol)
        if out is None:
            licq = [l for l in licq if mask & l != mask] + [mask]
            continue
        if out[0] is not None:
            break
        violated, negative = ordered_lists(out, mask, tol)
        n = len(stack)
        if mask.bit_count() < cap:
            stack += [mask | 1 << k for k in reversed(violated)]
        stack += [mask & ~(1 << k) for k in reversed(negative)]
        fresh = "chain" if len(stack) > n else "sibling"
    return order


def dual_ascent(qp: LiftedQP, theta, tol: float = 1e-10, max_iter: int = 100000) -> np.ndarray:
    """Minimizer via projected cyclic coordinate ascent on the dual.

    Maximizes ``-<K lam, lam>/2 - <lam, b>`` over ``lam >= 0`` with the QP's
    cached ``K = G H^{-1} G^T`` and ``b = W + S theta`` by exact coordinate
    updates ``lam_k <- max(0, lam_k - (K lam + b)_k / K_kk)``, cycling until
    the projected-gradient residual drops below ``tol``.  Needs a strictly
    admissible point to exist; raises ``RuntimeError`` on non-convergence.
    Returns ``z``; the primal iterate is ``z = -Y lam`` throughout, with the
    cached ``Y = H^{-1} G^T``.
    """
    theta_vec = _theta_vector(theta)
    b = qp.W + qp.S @ theta_vec
    p = qp.p_tilde
    if p == 0:
        return np.zeros(qp.n_z)
    K = qp.K
    diag = np.diag(K).copy()
    lam = np.zeros(p)
    v = np.zeros(p)  # K @ lam, maintained incrementally
    tiny = 1e-14 * np.max(diag)
    for _ in range(max_iter):
        for k in range(p):
            if diag[k] <= tiny:
                continue
            new = lam[k] - (v[k] + b[k]) / diag[k]
            if new < 0.0:
                new = 0.0
            delta = new - lam[k]
            if delta != 0.0:
                v += K[:, k] * delta
                lam[k] = new
        slack = b + v
        residual = np.max(np.abs(lam - np.maximum(0.0, lam - slack)))
        if residual <= tol:
            return -(qp.Y @ lam)
    raise RuntimeError(f"dual ascent did not converge within {max_iter} cycles (residual {residual:.3e})")


def numpy_shift_warm_set(active: ActiveSet, shift: np.ndarray) -> ActiveSet:
    """:func:`rfmpc.sim.shift_warm_set` as it stood on numpy: the set's rows
    gathered through the map array, the unmapped ones dropped."""
    if not active:
        return active
    rows = shift[active.indices()]
    return ActiveSet.from_indices(rows[rows >= 0])


def fd_energy(fd: FDPlant, y: np.ndarray) -> float:
    """Trapezoidal discretization of the beam energy of a grid state."""
    return float(0.5 * np.tile(fd.trapz_w, 4) @ (y * y))


def fd_generator(fd: FDPlant) -> tuple:
    """The finite-difference model as one dense system on the grid: ``(A, B)``
    with ``y' = A y + B u``.

    The four pinned boundary entries have zero rows and columns, and the
    columns of the prescribed displacements at the actuated end act through
    the inputs.  The product never assembles this: it reads its modal form
    off the difference matrix.
    """
    n = fd.n_grid
    D = _diff_matrix(n, fd.grid[1] - fd.grid[0])
    I = np.eye(n)
    Z = np.zeros((n, n))

    A = np.block([
        [Z, D, Z, -I],
        [D, Z, Z, Z],
        [Z, Z, Z, D],
        [I, Z, D, Z],
    ])
    B = np.zeros((4 * n, 2))
    # Columns of the prescribed boundary entries act through the inputs.
    i_x1_end = 0 * n + n - 1
    i_x2_0 = 1 * n + 0
    i_x3_end = 2 * n + n - 1
    i_x4_0 = 3 * n + 0
    B[:, 0] = A[:, i_x1_end]
    B[:, 1] = A[:, i_x3_end]
    for col in (i_x1_end, i_x2_0, i_x3_end, i_x4_0):
        A[:, col] = 0.0
    for row in (i_x1_end, i_x2_0, i_x3_end, i_x4_0):
        A[row, :] = 0.0
        B[row, :] = 0.0
    return A, B
