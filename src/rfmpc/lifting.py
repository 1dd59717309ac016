"""Condense the stage-wise problem into a dense parametric QP over the input sequence.

Stacking the predicted states and eliminating them with the prediction model
turns the finite-horizon problem into

    minimize   <H z, z> / 2     subject to   G z <= W + S theta,

where ``z = u + H^{-1} F theta`` shifts the input sequence by the
unconstrained minimizer and ``theta`` stacks the current state and the
previous input.  Building a :class:`LiftedQP` factors ``H`` once and caches
the operators every query reuses: ``H^{-1} F`` for the shift between ``u``
and ``z``, and ``Y = H^{-1} G^T`` with ``K = G Y`` for the constraint-space
KKT solves of :mod:`.solver`.  No query applies ``H^{-1}`` again.  The module
also provides cost/constraint evaluation in both coordinates so the
condensed data can be cross-checked against the stage recursion in
:mod:`.problem`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from .problem import Parameter, ProblemDefinition, validate

__all__ = [
    "LiftedDynamics",
    "QuadraticCost",
    "ConstraintData",
    "LiftedQP",
    "lift_dynamics",
    "build",
    "check_coercivity",
    "evaluate_lifted_cost",
    "to_z",
    "from_z",
    "eval_constraints",
    "check_easy_slater",
]


@dataclass
class LiftedDynamics:
    """Stacked prediction operators: x' = A_tilde x + B_tilde u.

    ``A_tilde`` maps the current state to the stacked states x'_1..x'_N, and
    ``B_tilde`` is block lower triangular with (i, j) block ``A^(i-j) B``.
    """

    A_tilde: np.ndarray
    B_tilde: np.ndarray


@dataclass
class QuadraticCost:
    """Condensed cost ``<H u, u> + 2 <u, F theta> + <const_op theta, theta>``."""

    H: np.ndarray
    F: np.ndarray
    const_op: np.ndarray
    eps: float  # smallest eigenvalue of H


@dataclass
class ConstraintData:
    """Condensed constraints ``G z <= W + S theta`` and their stage bookkeeping.

    ``stage_offsets[i]`` is ``(stage, local_row)`` for global row ``i`` with
    the terminal rows labelled by stage ``N``.  ``has_state_rows`` and
    ``has_param_input_rows`` record whether any row touches the predicted
    states or the previous input, which is what the closed-form interior-point
    check needs to know.
    """

    G: np.ndarray
    S: np.ndarray
    W: np.ndarray
    stage_offsets: list
    has_state_rows: bool
    has_param_input_rows: bool
    blocks: dict | None = None


@dataclass
class LiftedQP:
    """Dense parametric QP with operators cached once when it is built.

    One Cholesky factorization of the symmetrized ``H`` yields ``HinvF``
    (``H^{-1} F``, n_z x n_theta), ``Y`` (``H^{-1} G^T``, n_z x p) and the
    symmetrized constraint-space matrix ``K = G Y`` (p x p), on which every
    candidate's KKT solve runs.  The factor itself is not kept.
    """

    cost: QuadraticCost
    constraints: ConstraintData
    dynamics: LiftedDynamics | None
    N: int
    n_x: int
    n_u: int
    HinvF: np.ndarray = field(init=False, repr=False)
    Y: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        chol = sla.cho_factor(0.5 * (self.cost.H + self.cost.H.T), lower=True)
        self.HinvF = sla.cho_solve(chol, self.cost.F)
        self.Y = sla.cho_solve(chol, self.constraints.G.T)
        K = self.constraints.G @ self.Y
        self.K = 0.5 * (K + K.T)

    # Convenience views ----------------------------------------------------
    @property
    def H(self) -> np.ndarray:
        return self.cost.H

    @property
    def F(self) -> np.ndarray:
        return self.cost.F

    @property
    def G(self) -> np.ndarray:
        return self.constraints.G

    @property
    def S(self) -> np.ndarray:
        return self.constraints.S

    @property
    def W(self) -> np.ndarray:
        return self.constraints.W

    @property
    def n_z(self) -> int:
        return self.cost.H.shape[0]

    @property
    def n_theta(self) -> int:
        return self.cost.F.shape[1]

    @property
    def p_tilde(self) -> int:
        return self.constraints.G.shape[0]

    @classmethod
    def from_matrices(cls, H, F, G, S, W, N=None, n_x=None, n_u=None) -> "LiftedQP":
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
        n_x = n_x if n_x is not None else F.shape[1] - n_u
        w, _ = np.linalg.eigh(0.5 * (H + H.T))
        cost = QuadraticCost(H=H, F=F, const_op=np.zeros((F.shape[1], F.shape[1])), eps=float(w[0]))
        cons = ConstraintData(
            G=G, S=S, W=W,
            stage_offsets=[(0, i) for i in range(G.shape[0])],
            has_state_rows=bool(np.any(S)), has_param_input_rows=False,
        )
        return cls(cost=cost, constraints=cons, dynamics=None, N=N, n_x=n_x, n_u=n_u)


def lift_dynamics(plant, N: int) -> LiftedDynamics:
    """Stack the prediction model over ``N`` steps."""
    A, B = plant.A, plant.B
    n_x, n_u = A.shape[0], B.shape[1]
    powers = [np.eye(n_x)]
    for _ in range(N):
        powers.append(A @ powers[-1])
    A_tilde = np.vstack(powers[1 : N + 1])
    B_tilde = np.zeros((N * n_x, N * n_u))
    for i in range(N):
        for j in range(i + 1):
            B_tilde[i * n_x : (i + 1) * n_x, j * n_u : (j + 1) * n_u] = powers[i - j] @ B
    return LiftedDynamics(A_tilde=A_tilde, B_tilde=B_tilde)


def check_coercivity(H: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized Hessian."""
    w = np.linalg.eigvalsh(0.5 * (H + H.T))
    return float(w[0])


def build(p: ProblemDefinition, tol_coercive: float = 1e-10, keep_blocks: bool = False) -> LiftedQP:
    """Assemble the condensed QP data from a validated problem.

    Raises ``ValueError`` when the problem data is invalid or when ``H`` is
    not coercive (smallest eigenvalue below ``tol_coercive * (1 + ||H||)``).
    With ``keep_blocks`` the intermediate constraint operators are retained
    for structural inspection.
    """
    report = validate(p)
    if report:
        raise ValueError("invalid problem: " + "; ".join(report))

    n_x, n_u, N = p.n_x, p.n_u, p.horizon
    w, c = p.weights, p.constraints
    dyn = lift_dynamics(p.prediction_model, N)
    A_tilde, B_tilde = dyn.A_tilde, dyn.B_tilde

    # Stacked weights.  Q_P pairs with x'_1..x'_N, so it starts at Q_1 and
    # ends with the terminal weight.
    Q_P = sla.block_diag(*(w.Q[1:N] + [w.P])) if N > 1 else w.P.copy()
    R_t = sla.block_diag(*w.R)
    V_t = np.zeros((N * n_u, N * n_u))
    for k in range(N):
        sl = slice(k * n_u, (k + 1) * n_u)
        V_t[sl, sl] = w.V[k] + w.V[k + 1]
        if k >= 1:
            pv = slice((k - 1) * n_u, k * n_u)
            V_t[sl, pv] = -w.V[k]
            V_t[pv, sl] = -w.V[k]
    M_t = np.zeros((N * n_x, N * n_u))
    for k in range(1, N):
        M_t[(k - 1) * n_x : k * n_x, k * n_u : (k + 1) * n_u] = w.M[k]
    M0_t = np.hstack([w.M[0], np.zeros((n_x, (N - 1) * n_u))])
    V0_t = np.vstack([-w.V[0], np.zeros(((N - 1) * n_u, n_u))])

    QB = Q_P @ B_tilde
    H = B_tilde.T @ QB + R_t + V_t + B_tilde.T @ M_t + M_t.T @ B_tilde
    w_H = np.linalg.eigvalsh(0.5 * (H + H.T))
    eps = float(w_H[0])
    if eps <= tol_coercive * (1.0 + np.max(np.abs(w_H))):
        raise ValueError(f"H not coercive: smallest eigenvalue {eps:.3e}")

    F = np.hstack([B_tilde.T @ (Q_P @ A_tilde) + M_t.T @ A_tilde + M0_t.T, V0_t])
    const_op = sla.block_diag(w.Q[0] + A_tilde.T @ (Q_P @ A_tilde), w.V[0])
    cost = QuadraticCost(H=H, F=F, const_op=const_op, eps=eps)

    # Constraint stacking.  Stage-0 rows act on the parameter only through
    # E0_t; stage-k rows couple to x'_k (k >= 1) through E1_t, and the input
    # couplings live in E_t.
    p_rows = c.rows_per_stage
    p_hat = c.p_hat
    p_tilde = sum(p_rows) + p_hat
    E0_t = np.zeros((p_tilde, n_x + n_u))
    E1_t = np.zeros((p_tilde, N * n_x))
    E_t = np.zeros((p_tilde, N * n_u))
    W_vec = np.zeros(p_tilde)
    stage_offsets = []
    row = 0
    for k in range(N):
        pk = p_rows[k]
        if pk:
            rows = slice(row, row + pk)
            W_vec[rows] = c.d[k]
            if k == 0:
                E0_t[rows, :n_x] = c.calE[0]
                E0_t[rows, n_x:] = c.calF[0]
            else:
                E1_t[rows, (k - 1) * n_x : k * n_x] = c.calE[k]
                E_t[rows, (k - 1) * n_u : k * n_u] = c.calF[k]
            E_t[rows, k * n_u : (k + 1) * n_u] = c.E[k]
            stage_offsets.extend((k, i) for i in range(pk))
            row += pk
    if p_hat:
        rows = slice(row, row + p_hat)
        W_vec[rows] = c.d_hat
        E1_t[rows, (N - 1) * n_x :] = c.E_hat
        E_t[rows, (N - 1) * n_u :] = c.F_hat
        stage_offsets.extend((N, i) for i in range(p_hat))

    G = E1_t @ B_tilde + E_t
    # The QP factors H once; S = G H^{-1} F - ... reads the cached H^{-1} F,
    # so S is filled in after the QP exists.
    cons = ConstraintData(
        G=G, S=None, W=W_vec, stage_offsets=stage_offsets,
        has_state_rows=bool(np.any(E1_t) or np.any(E0_t[:, :n_x])),
        has_param_input_rows=bool(np.any(E0_t[:, n_x:])),
        blocks={"E0_t": E0_t, "E1_t": E1_t, "E_t": E_t} if keep_blocks else None,
    )
    qp = LiftedQP(cost=cost, constraints=cons, dynamics=dyn, N=N, n_x=n_x, n_u=n_u)
    cons.S = G @ qp.HinvF - np.hstack([E1_t @ A_tilde, np.zeros((p_tilde, n_u))]) - E0_t
    return qp


def _theta_vector(theta) -> np.ndarray:
    if isinstance(theta, Parameter):
        return theta.as_vector()
    return np.asarray(theta, float).reshape(-1)


def evaluate_lifted_cost(qp: LiftedQP, u_seq, theta) -> float:
    """Cost of an input sequence through the condensed operators (constant term included)."""
    u = np.asarray(u_seq, float).reshape(-1)
    th = _theta_vector(theta)
    return float(u @ qp.cost.H @ u + 2.0 * u @ (qp.cost.F @ th) + th @ qp.cost.const_op @ th)


def to_z(qp: LiftedQP, u_seq, theta) -> np.ndarray:
    """Shift an input sequence to the coordinates centered at the unconstrained minimizer."""
    u = np.asarray(u_seq, float).reshape(-1)
    return u + qp.HinvF @ _theta_vector(theta)


def from_z(qp: LiftedQP, z, theta) -> np.ndarray:
    """Input sequence ``u = z - H^{-1} F theta`` of a point in the centered coordinates."""
    z = np.asarray(z, float).reshape(-1)
    return z - qp.HinvF @ _theta_vector(theta)


def eval_constraints(qp: LiftedQP, z, theta) -> np.ndarray:
    """Constraint slacks ``W + S theta - G z`` (nonnegative iff admissible)."""
    z = np.asarray(z, float).reshape(-1)
    return qp.W + qp.S @ _theta_vector(theta) - qp.G @ z


def check_easy_slater(qp: LiftedQP) -> bool:
    """True iff a strictly admissible point exists for every parameter by inspection.

    That is the case when no constraint row touches the predicted states or
    the previous input and every bound is strictly positive: the zero input
    ``u = 0`` (``z = H^{-1} F theta``) then has slack exactly ``W > 0``.
    """
    c = qp.constraints
    if c.has_state_rows or c.has_param_input_rows:
        return False
    return bool(c.W.size == 0 or np.min(c.W) > 0)
