"""Condense the stage-wise problem into a dense parametric QP over the input sequence.

Eliminating the predicted states with the prediction model turns the
finite-horizon problem into

    minimize   <H z, z> / 2     subject to   G z <= W + S theta,

where ``z = u + H^{-1} F theta`` shifts the input sequence by the
unconstrained minimizer and ``theta`` stacks the current state and the
previous input.  A :class:`LiftedQP` is one flat record of this QP: the
cost operators ``H``, ``F`` and ``const_op``, the constraint data ``G``,
``S``, ``W`` with each row's stage, and the horizon sizes.

:func:`build` condenses with one stage template instead of stacked block
matrices: one pass over the stages carries the affine map from
``(theta, u)`` to the stage's ``(x'_k, u'_{k-1}, u'_k)`` and pulls each
stage's cost and rows back through it; the terminal stage is the same
template with a zero input.  Building the QP factors ``H`` once, with numpy,
and caches the operators every query reuses: ``H^{-1} F`` for the shift
between ``u`` and ``z``, and ``Y = H^{-1} G^T`` with ``K = G Y`` for the
constraint-space KKT solves of :mod:`.solver`.  No query reads ``H`` again.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .problem import Parameter, ProblemDefinition, validate

__all__ = [
    "LiftedQP",
    "build",
    "evaluate_lifted_cost",
    "from_z",
]

# ``H`` is coercive when its smallest eigenvalue exceeds this fraction of
# ``1 + ||H||``.
_COERCIVE_TOL = 1e-10


@dataclass
class LiftedQP:
    """Dense parametric QP ``min <H z, z> / 2  s.t.  G z <= W + S theta``.

    ``H``, ``F`` and ``const_op`` make up the condensed cost
    ``<H u, u> + 2 <u, F theta> + <const_op theta, theta>``, and
    ``stage_offsets[i]`` is ``(stage, local_row)`` for constraint row ``i``,
    with the terminal rows labelled by stage ``N``.  With ``Li`` the inverse
    Cholesky factor of the symmetrized ``H`` (``H^{-1} = Li^T Li``), the QP
    caches ``HinvF`` (``H^{-1} F``, n_z x n_theta), ``Y`` (``H^{-1} G^T``,
    n_z x p) and ``K = G Y`` (p x p), formed as ``B^T B`` with ``B = Li G^T``
    so that it is exactly symmetric; every candidate's KKT solve runs on it.
    An ``H`` that is not positive definite raises ``np.linalg.LinAlgError``.
    """

    H: np.ndarray
    F: np.ndarray
    const_op: np.ndarray
    G: np.ndarray
    S: np.ndarray
    W: np.ndarray
    stage_offsets: list
    N: int
    n_u: int
    HinvF: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Li = np.linalg.inv(np.linalg.cholesky(0.5 * (self.H + self.H.T)))
        self.HinvF = Li.T @ (Li @ self.F)
        B = Li @ self.G.T
        self.Y = Li.T @ B
        self.K = B.T @ B

    @property
    def n_z(self) -> int:
        return self.H.shape[0]

    @property
    def n_theta(self) -> int:
        return self.F.shape[1]

    @property
    def p_tilde(self) -> int:
        return self.G.shape[0]

    @classmethod
    def from_matrices(cls, H, F, G, S, W, N=None, n_u=None) -> "LiftedQP":
        """Wrap raw QP data (used for desk-scale instances and tests).

        Skips the stage-level bookkeeping; dimension defaults treat the whole
        decision vector as one stage of scalar inputs.
        """
        H = np.atleast_2d(np.asarray(H, float))
        F = np.atleast_2d(np.asarray(F, float))
        G = np.atleast_2d(np.asarray(G, float)) if np.size(G) else np.zeros((0, H.shape[0]))
        S = np.atleast_2d(np.asarray(S, float)) if np.size(S) else np.zeros((G.shape[0], F.shape[1]))
        W = np.asarray(W, float).reshape(-1)
        n_u = n_u if n_u is not None else 1
        N = N if N is not None else H.shape[0] // n_u
        return cls(H=H, F=F, const_op=np.zeros((F.shape[1], F.shape[1])), G=G, S=S, W=W,
                   stage_offsets=[(0, i) for i in range(G.shape[0])], N=N, n_u=n_u)


def build(p: ProblemDefinition) -> LiftedQP:
    """Assemble the condensed QP data from a validated problem.

    One loop over the stages ``k = 0..N`` carries the affine map ``T`` from
    ``v = (x, u_prev, u_0..u_{N-1})`` to ``(x'_k, u'_{k-1}, u'_k)``, starting
    from ``x'_0 = x``, ``u'_{-1} = u_prev`` and stepping
    ``x'_{k+1} = A x'_k + B u'_k``.  Each stage adds
    ``T^T [[Q, 0, M], [0, V, -V], [M^T, -V, R + V]] T`` to the cost matrix
    over ``v``, whose theta-theta, u-theta and u-u blocks are ``const_op``,
    ``F`` and ``H``, and appends its rows ``[calE calF E] T``.  The terminal
    stage is the same template with ``u'_N = 0``, ``Q = P``, ``M = R = 0``,
    ``V = V_N`` and rows ``[E_hat F_hat 0]``.  ``G`` is the rows' input
    columns and ``S = G H^{-1} F`` minus their theta columns.

    Raises ``ValueError`` when the problem data is invalid or when ``H`` is
    not coercive (smallest eigenvalue below ``_COERCIVE_TOL * (1 + ||H||)``).
    """
    report = validate(p)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))

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

    H = cost[n_theta:, n_theta:]
    w_H = np.linalg.eigvalsh(0.5 * (H + H.T))
    if w_H[0] <= _COERCIVE_TOL * (1.0 + np.max(np.abs(w_H))):
        raise ValueError(f"H not coercive: smallest eigenvalue {w_H[0]:.3e}")

    rows = np.vstack(rows)
    G = rows[:, n_theta:]
    # The QP factors H once; S reads the cached H^{-1} F, so S is filled in
    # after the QP exists.
    qp = LiftedQP(H=H, F=cost[n_theta:, :n_theta], const_op=cost[:n_theta, :n_theta], G=G,
                  S=None, W=np.concatenate(W),
                  stage_offsets=stage_offsets, N=N, n_u=n_u)
    qp.S = G @ qp.HinvF - rows[:, :n_theta]
    return qp


def _theta_vector(theta) -> np.ndarray:
    if isinstance(theta, Parameter):
        return theta.as_vector()
    return np.asarray(theta, float).reshape(-1)


def _row_quad(X: np.ndarray, A: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``x_i^T A y_i`` for each row pair of ``X`` and ``Y``."""
    return np.einsum("ij,ij->i", X @ A, Y)


def evaluate_lifted_cost(qp: LiftedQP, u_seq, theta):
    """Cost of an input sequence through the condensed operators (constant term included).

    A 1-D ``u_seq`` gives one float.  With a leading step axis, ``u_seq``
    of shape ``(n, n_z)`` and ``theta`` of shape ``(n, n_theta)`` give the
    ``n`` costs as an array, in one pass of matrix products.
    """
    u = np.asarray(u_seq, float)
    batched = u.ndim == 2
    u = u.reshape(-1, qp.n_z)
    th = _theta_vector(theta).reshape(-1, qp.n_theta)
    cost = _row_quad(u, qp.H, u) + 2.0 * _row_quad(th, qp.F.T, u) + _row_quad(th, qp.const_op, th)
    return cost if batched else float(cost[0])


def from_z(qp: LiftedQP, z, theta) -> np.ndarray:
    """Input sequence ``u = z - H^{-1} F theta`` of a point in the centered coordinates."""
    z = np.asarray(z, float).reshape(-1)
    return z - qp.HinvF @ _theta_vector(theta)
