"""Reference solvers for desk-scale QPs.

Two routes to the same minimizer: brute-force enumeration of the candidate
active sets in a fixed deterministic order, which shares the candidate
evaluator of :mod:`.solver` but not its search, and projected cyclic
coordinate ascent on the dual, which shares only the operators the QP cached
when it was built (``K`` and ``Y``), not the evaluator or the search.  Both
are meant for cross-checking the search at small sizes, not for production
use.
"""
from __future__ import annotations

import numpy as np

from .lifting import LiftedQP, _theta_vector
from .solver import (
    SolveResult,
    SolveStats,
    SolveStatus,
    Tolerances,
    _evaluate,
    _result,
    iter_candidate_masks,
)

__all__ = ["enumerate_active_sets", "dual_ascent"]


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
        out = _evaluate(qp, mask, b, tol)
        if out is None:
            stats.licq_failures += 1
            continue
        z, lam_A, violated, negative = out
        if not violated and not negative:
            return _result(qp, theta_vec, stats, SolveStatus.OPTIMAL, mask, z, lam_A)
    return _result(qp, theta_vec, stats, SolveStatus.INFEASIBLE)


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
