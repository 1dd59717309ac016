"""Condense the stage-wise problem into a dense parametric QP over the input sequence.

Eliminating the predicted states with the prediction model turns the
finite-horizon problem into

    minimize   <H z, z> / 2     subject to   G z <= W + S theta,

where ``z = u + H^{-1} F theta`` shifts the input sequence by the
unconstrained minimizer and ``theta`` stacks the current state and the
previous input.  A :class:`LiftedQP` is one flat record of this QP: the
cost operators ``H``, ``F`` and ``const_op``, the constraint data ``G``,
``S``, ``W`` with each row's stage, and the horizon sizes.

:func:`build` condenses by a backward recursion on the augmented state
``s_k = (x'_k, u'_{k-1})``, in the manner of Frison and Jorgensen ("A fast
condensing method for solution of linear-quadratic control problems", IEEE
CDC 2013): a backward pass accumulates the cost-to-go ``P_m`` of the state,
a forward pass carries the powers of the state matrix, and ``H`` is
gathered from products with the impulse responses.  That is O(N) products
of state-sized blocks and O(N^2) of input-sized ones; no per-stage power or
``P_m`` is stored.  Building the QP factors ``H`` once, with numpy,
and forms all that a query reads: ``theta_op``, whose row blocks are
``H^{-1} F`` (the shift between ``u`` and ``z``) and ``S``, so that one
product with ``theta`` gives both; ``Y = H^{-1} G^T`` and ``K = G Y`` for
the KKT solves of :mod:`.solver`; the scales of its tests; and the
read-only zero minimizer and multipliers of the empty active set.  No query
reads ``H``, and nothing of a QP changes after it is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .problem import Parameter, ProblemDefinition, validate

__all__ = [
    "LiftedQP",
    "build",
    "evaluate_lifted_cost",
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
    ``HinvF`` and ``S`` are the row-block views of ``theta_op = [HinvF; S]``,
    and ``G_max`` (``max|G|``), ``bound_scale`` (``1 + max|W|``) and
    ``K_scale`` (``sqrt(max diag K)``) are formed with them.  The sizes
    ``n_z``, ``n_theta`` and ``p_tilde`` are read off ``H``, ``F`` and ``G``
    first.  ``origin`` (``n_z`` zeros) and ``zero_lam`` (``p_tilde`` zeros)
    are read-only: every query accepted at the empty set returns them as its
    minimizer and multipliers, shared, so writing to one raises
    ``ValueError`` instead of corrupting another result.  An ``S`` or
    ``W`` that does not fit ``G`` and ``F`` raises ``ValueError``, as does a
    ``W`` with a NaN or infinite row, which would make ``bound_scale`` and
    the search's band infinite, and an ``H`` that is not positive definite
    ``np.linalg.LinAlgError``.
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
    n_z: int = field(init=False)
    n_theta: int = field(init=False)
    p_tilde: int = field(init=False)
    HinvF: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)
    theta_op: np.ndarray = field(init=False, repr=False)
    G_max: float = field(init=False)
    bound_scale: float = field(init=False)
    K_scale: float = field(init=False)
    origin: np.ndarray = field(init=False, repr=False)
    zero_lam: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.n_z, self.n_theta, self.p_tilde = self.H.shape[0], self.F.shape[1], self.G.shape[0]
        for name, got, want in (("S", self.S.shape, (self.p_tilde, self.n_theta)),
                                ("W", self.W.shape, (self.p_tilde,))):
            if got != want:
                raise ValueError(f"{name} has shape {got}, the QP's G and F need {want}")
        bad = (~np.isfinite(self.W)).nonzero()[0].tolist()
        if bad:
            raise ValueError(f"W must be finite, but its rows {bad} are not")
        Li = np.linalg.inv(np.linalg.cholesky(0.5 * (self.H + self.H.T)))
        # HinvF comes first, so at n_z a multiple of 4 (the beam's 2N at an
        # even horizon) S's rows keep the 4-row blocks of OpenBLAS's gemv,
        # and the bits of S @ theta.
        self.theta_op = np.vstack([Li.T @ (Li @ self.F), self.S])
        self.HinvF, self.S = self.theta_op[: self.n_z], self.theta_op[self.n_z :]
        B = Li @ self.G.T
        self.Y = Li.T @ B
        self.K = B.T @ B
        self.G_max = np.abs(self.G).max(initial=0.0)
        self.bound_scale = 1.0 + np.abs(self.W).max(initial=0.0)
        self.K_scale = sqrt(self.K.diagonal().max(initial=0.0))
        self.origin, self.zero_lam = np.zeros(self.n_z), np.zeros(self.p_tilde)
        self.origin.flags.writeable = self.zero_lam.flags.writeable = False

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

    The recursion runs on the augmented state ``s_k = (x'_k, u'_{k-1})``,
    ``s_0 = theta``, which steps as ``s_{k+1} = At s_k + Bt u_k`` with
    ``At = diag(A, 0)`` and ``Bt = [B; I]``, so that
    ``s_k = At^k theta + sum_{j<k} At^{k-1-j} Bt u_j``.  Stage ``k`` costs
    ``<Lss_k s, s> + 2 <Lsu_k u, s> + <(R_k + V_k) u, u>`` with
    ``Lss_k = diag(Q_k, V_k)`` and ``Lsu_k = [M_k; -V_k]``, and the terminal
    stage ``<P_N s, s>`` with ``P_N = diag(P, V_N)``.  One backward pass
    forms ``P_m = Lss_m + At^T P_{m+1} At`` and keeps only the
    ``n_u x n_s`` products ``Z_i = Bt^T P_{i+1}``; ``const_op = P_0``.  One
    forward pass carries the power ``At^k`` and gives
    ``F_k = Z_k At^{k+1} + Lsu_k^T At^k``, the impulse responses
    ``At^m Bt``, and the rows of stage ``k``: ``[calE_k calF_k] At^k`` on
    theta, ``[calE_k calF_k] At^{k-1-j} Bt`` on ``u_j`` for ``j < k`` (a
    slice of the stacked impulse responses) and ``E_k`` on ``u_k``; the
    terminal rows are ``[E_hat F_hat]`` with no ``u_N``.  ``H`` comes from
    two products with the stacked impulse responses and a Toeplitz gather:
    ``H_ij = Z_i At^{i-j} Bt + Lsu_i^T At^{i-1-j} Bt`` for ``i > j`` and
    ``H_ii = Z_i Bt + R_i + V_i``.  This is the backward condensing of
    Frison and Jorgensen ("A fast condensing method for solution of
    linear-quadratic control problems", IEEE CDC 2013): O(N) products of
    ``n_s x n_s`` blocks and O(N^2) of small ones.  ``G`` is the rows'
    input columns and ``S = G H^{-1} F`` minus their theta columns.

    Raises ``ValueError`` when the problem data is invalid or when ``H`` is
    not coercive (smallest eigenvalue below ``_COERCIVE_TOL * (1 + ||H||)``).
    """
    report = validate(p)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))

    H, F, const_op, G, rows_theta = _condense(p)
    w_H = np.linalg.eigvalsh(0.5 * (H + H.T))
    if w_H[0] <= _COERCIVE_TOL * (1.0 + np.max(np.abs(w_H))):
        raise ValueError(f"H not coercive: smallest eigenvalue {w_H[0]:.3e}")

    # The QP factors H once; S reads the cached H^{-1} F, so it is completed
    # in place, in theta_op, after the QP exists: x + (-y) is x - y exactly.
    c = p.constraints
    qp = LiftedQP(H=H, F=F, const_op=const_op, G=G, S=-rows_theta,
                  W=np.concatenate(c.d + [c.d_hat]),
                  stage_offsets=[(k, i) for k, n in enumerate(c.rows_per_stage + [c.p_hat])
                                 for i in range(n)],
                  N=p.horizon, n_u=p.n_u)
    qp.S += G @ qp.HinvF
    return qp


def _condense(p: ProblemDefinition) -> tuple:
    """``(H, F, const_op, G, rows_theta)`` of :func:`build`, whose docstring
    gives the recursion; ``rows_theta`` is the rows' theta columns.  Only
    these leave the call, so its work arrays are freed before ``H`` is
    factored."""
    A, B = p.prediction_model.A, p.prediction_model.B
    n_x, n_u, N = p.n_x, p.n_u, p.horizon
    w, c = p.weights, p.constraints
    n_s = n_x + n_u
    At = np.zeros((n_s, n_s))
    At[:n_x, :n_x] = A
    Bt = np.vstack([B, np.eye(n_u)])
    Lsu = np.concatenate([np.asarray(w.M), -np.asarray(w.V[:N])], axis=1)

    Z = np.empty((N, n_u, n_s))
    P = np.zeros((n_s, n_s))
    P[:n_x, :n_x], P[n_x:, n_x:] = w.P, w.V[N]
    for i in range(N - 1, -1, -1):
        Z[i] = Bt.T @ P
        P = At.T @ (P @ At)
        P[:n_x, :n_x] += w.Q[i]
        P[n_x:, n_x:] += w.V[i]

    # Gam holds the impulse responses At^m Bt in reverse, m = N-1 .. 0, so
    # that stage k's rows on u_0 .. u_{k-1} take its last k blocks.
    Gam = np.empty((n_s, N * n_u))
    F = np.empty((N, n_u, n_s))
    starts = np.cumsum([0] + c.rows_per_stage + [c.p_hat])
    G = np.zeros((starts[-1], N * n_u))
    rows_theta = np.empty((starts[-1], n_s))
    Ak = np.eye(n_s)
    for k in range(N + 1):
        r = slice(starts[k], starts[k + 1])
        C = np.hstack([c.calE[k], c.calF[k]] if k < N else [c.E_hat, c.F_hat])
        rows_theta[r] = C @ Ak
        G[r, : k * n_u] = C @ Gam[:, (N - k) * n_u :]
        if k == N:
            break
        G[r, k * n_u : (k + 1) * n_u] = c.E[k]
        Gam[:, (N - 1 - k) * n_u : (N - k) * n_u] = Ak @ Bt
        Ak, A_prev = At @ Ak, Ak
        F[k] = Z[k] @ Ak + Lsu[k].T @ A_prev

    # Block (i, q) of ZG is Z_i At^{N-1-q} Bt, and of LG Lsu_i^T At^{N-1-q} Bt.
    ZG = (Z.reshape(N * n_u, n_s) @ Gam).reshape(N, n_u, N, n_u)
    LG = (Lsu.transpose(0, 2, 1).reshape(N * n_u, n_s) @ Gam).reshape(N, n_u, N, n_u)
    i, j = np.tril_indices(N, -1)
    low = ZG[i, :, N - 1 - i + j] + LG[i, :, N - i + j]
    H = np.empty((N, n_u, N, n_u))
    H[i, :, j], H[j, :, i] = low, low.transpose(0, 2, 1)
    d = np.arange(N)
    H[d, :, d] = ZG[d, :, N - 1] + np.asarray(w.R) + np.asarray(w.V[:N])
    return H.reshape(N * n_u, N * n_u), F.reshape(N * n_u, n_s), P, G, rows_theta


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
    ``n`` costs as an array, in one pass of matrix products.  A ``u_seq``
    with other than ``n_z`` entries per step, or a ``theta`` with other than
    ``n_theta`` entries per step, raises ``ValueError``.
    """
    u = np.atleast_1d(np.asarray(u_seq, float))
    batched = u.ndim == 2
    if u.shape[-1] != qp.n_z:
        raise ValueError(f"u_seq needs {qp.n_z} entries per step, got {u.shape[-1]}")
    u = u.reshape(-1, qp.n_z)
    th = _theta_vector(theta)
    if th.size != len(u) * qp.n_theta:
        raise ValueError(f"theta needs {len(u) * qp.n_theta} entries, got {th.size}")
    th = th.reshape(-1, qp.n_theta)
    cost = _row_quad(u, qp.H, u) + 2.0 * _row_quad(th, qp.F.T, u) + _row_quad(th, qp.const_op, th)
    return cost if batched else float(cost[0])
