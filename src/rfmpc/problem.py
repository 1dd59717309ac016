"""Problem data for constrained time-varying linear-quadratic receding-horizon control.

Holds the prediction model, per-stage weights and affine stage and
terminal constraints, validates them, and evaluates the finite-horizon cost by
direct recursion of the prediction model.  The recursion is deliberately kept
independent of the condensed quadratic-program form built in :mod:`.lifting`
so that the two routes can be cross-checked against each other.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PlantModel",
    "StageWeights",
    "StageConstraints",
    "Parameter",
    "ProblemDefinition",
    "validate",
    "evaluate_cost",
    "predict_trajectory",
    "check_admissible",
    "to_json_dict",
    "from_json_dict",
    "save_problem",
    "load_problem",
]

# A symmetric matrix is positive semidefinite when its smallest eigenvalue is
# at least minus this fraction of ``1 + max|eigenvalue|``.
_PSD_TOL = 1e-10


def _mat(value) -> np.ndarray:
    """Coerce a scalar or nested sequence to a 2-D float array."""
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        # A bare vector is ambiguous as a matrix; only a length-1 vector has
        # an unambiguous 1x1 reading.
        if a.size == 1:
            a = a.reshape(1, 1)
        else:
            raise ValueError(f"expected a matrix, got 1-D array of length {a.size}")
    return a


def _vec(value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    return a.reshape(-1)


@dataclass
class PlantModel:
    """Discrete-time linear prediction model ``x+ = A x + B u``."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = _mat(self.A)
        self.B = _mat(self.B)

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]


@dataclass
class StageWeights:
    """Per-stage quadratic weights.

    ``Q``, ``R``, ``M`` have one entry per stage ``k = 0..N-1``; ``V`` has
    ``N + 1`` entries because the input-increment penalty also acts once past
    the final stage.  ``P`` is the terminal state weight.  ``M[k]`` is the
    state-input cross weight with shape ``(n_x, n_u)``.
    """

    Q: list
    R: list
    M: list
    V: list
    P: np.ndarray

    def __post_init__(self):
        self.Q = [_mat(Qk) for Qk in self.Q]
        self.R = [_mat(Rk) for Rk in self.R]
        self.M = [_mat(Mk) for Mk in self.M]
        self.V = [_mat(Vk) for Vk in self.V]
        self.P = _mat(self.P)

    @classmethod
    def constant(cls, Q, R, P, N, M=None, V=None) -> "StageWeights":
        """Replicate time-invariant weights over a horizon of length ``N``."""
        Q = _mat(Q)
        R = _mat(R)
        P = _mat(P)
        n_x, n_u = Q.shape[0], R.shape[0]
        M = np.zeros((n_x, n_u)) if M is None else _mat(M)
        V = np.zeros((n_u, n_u)) if V is None else _mat(V)
        return cls(
            Q=[Q.copy() for _ in range(N)],
            R=[R.copy() for _ in range(N)],
            M=[M.copy() for _ in range(N)],
            V=[V.copy() for _ in range(N + 1)],
            P=P,
        )

    @property
    def horizon(self) -> int:
        return len(self.Q)


@dataclass
class StageConstraints:
    """Affine stage and terminal constraints.

    Stage ``k`` requires ``calE[k] x'_k + calF[k] u'_{k-1} + E[k] u'_k <= d[k]``
    and the terminal stage requires ``E_hat x'_N + F_hat u'_{N-1} <= d_hat``.
    All bound vectors are entrywise nonnegative so that the origin is always
    admissible for the homogeneous problem.
    """

    d: list
    calE: list
    calF: list
    E: list
    d_hat: np.ndarray
    E_hat: np.ndarray
    F_hat: np.ndarray

    def __post_init__(self):
        self.d = [_vec(dk) for dk in self.d]
        self.calE = [_mat(Ek) if np.size(Ek) else np.asarray(Ek, float) for Ek in self.calE]
        self.calF = [_mat(Fk) if np.size(Fk) else np.asarray(Fk, float) for Fk in self.calF]
        self.E = [_mat(Ek) if np.size(Ek) else np.asarray(Ek, float) for Ek in self.E]
        self.d_hat = _vec(self.d_hat)
        self.E_hat = np.atleast_2d(np.asarray(self.E_hat, float))
        self.F_hat = np.atleast_2d(np.asarray(self.F_hat, float))

    @classmethod
    def unconstrained(cls, N: int, n_x: int, n_u: int) -> "StageConstraints":
        return cls(
            d=[np.zeros(0) for _ in range(N)],
            calE=[np.zeros((0, n_x)) for _ in range(N)],
            calF=[np.zeros((0, n_u)) for _ in range(N)],
            E=[np.zeros((0, n_u)) for _ in range(N)],
            d_hat=np.zeros(0),
            E_hat=np.zeros((0, n_x)),
            F_hat=np.zeros((0, n_u)),
        )

    @property
    def rows_per_stage(self) -> list:
        return [len(dk) for dk in self.d]

    @property
    def p_hat(self) -> int:
        return len(self.d_hat)

    @property
    def p_tilde(self) -> int:
        return sum(self.rows_per_stage) + self.p_hat


@dataclass
class Parameter:
    """Parameter of one receding-horizon step: current state and previous input."""

    x: np.ndarray
    u_prev: np.ndarray

    def __post_init__(self):
        self.x = _vec(self.x)
        self.u_prev = _vec(self.u_prev)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.u_prev])


@dataclass
class ProblemDefinition:
    """One receding-horizon optimal control problem over ``horizon`` stages."""

    prediction_model: PlantModel
    weights: StageWeights
    constraints: StageConstraints
    horizon: int

    @property
    def n_x(self) -> int:
        return self.prediction_model.n_x

    @property
    def n_u(self) -> int:
        return self.prediction_model.n_u


def _sym_eigs(A: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def _psd_report(name: str, A: np.ndarray, out: list):
    if A.shape[0] != A.shape[1]:
        out.append(f"{name} is not square: shape {A.shape}")
        return
    scale = 1.0 + (np.max(np.abs(A)) if A.size else 0.0)
    if A.size and np.max(np.abs(A - A.T)) > 1e-10 * scale:
        out.append(f"{name} is not symmetric")
        return
    if A.size:
        w = _sym_eigs(A)
        if w[0] < -_PSD_TOL * (1.0 + max(abs(w[0]), abs(w[-1]))):
            out.append(f"{name} is not positive semidefinite (min eig {w[0]:.3e})")


def validate(p: ProblemDefinition) -> list:
    """Check every data invariant; returns a list of violations (empty iff valid).

    Dimension mismatches are reported alongside semidefiniteness and sign
    violations rather than raised, so a caller can collect the full picture.
    """
    out = []
    n_x, n_u, N = p.n_x, p.n_u, p.horizon
    w, c = p.weights, p.constraints

    if N < 1:
        out.append(f"horizon must be >= 1, got {N}")
        return out
    if p.prediction_model.A.shape != (n_x, n_x):
        out.append(f"A must be square, got {p.prediction_model.A.shape}")
    if p.prediction_model.B.shape != (n_x, n_u):
        out.append(f"B shape {p.prediction_model.B.shape} does not match ({n_x}, {n_u})")

    for name, seq, want in (("Q", w.Q, N), ("R", w.R, N), ("M", w.M, N), ("V", w.V, N + 1)):
        if len(seq) != want:
            out.append(f"weights.{name} must have {want} entries, got {len(seq)}")
    if len(w.Q) == N and len(w.R) == N and len(w.M) == N and len(w.V) == N + 1:
        for k in range(N):
            if w.Q[k].shape != (n_x, n_x):
                out.append(f"Q[{k}] has shape {w.Q[k].shape}, expected ({n_x}, {n_x})")
            if w.R[k].shape != (n_u, n_u):
                out.append(f"R[{k}] has shape {w.R[k].shape}, expected ({n_u}, {n_u})")
            if w.M[k].shape != (n_x, n_u):
                out.append(f"M[{k}] has shape {w.M[k].shape}, expected ({n_x}, {n_u})")
        for k in range(N + 1):
            if w.V[k].shape != (n_u, n_u):
                out.append(f"V[{k}] has shape {w.V[k].shape}, expected ({n_u}, {n_u})")
        if w.P.shape != (n_x, n_x):
            out.append(f"P has shape {w.P.shape}, expected ({n_x}, {n_x})")
        if not out:
            for k in range(N):
                # The stage cost is jointly convex in (x, u) only if the full
                # block with the cross term is semidefinite.
                block = np.block([[w.Q[k], w.M[k]], [w.M[k].T, w.R[k]]])
                _psd_report(f"[[Q, M], [M.T, R]] block at stage {k}", block, out)
            for k in range(N + 1):
                _psd_report(f"V[{k}]", w.V[k], out)
            _psd_report("P", w.P, out)

    for name, seq in (("d", c.d), ("calE", c.calE), ("calF", c.calF), ("E", c.E)):
        if len(seq) != N:
            out.append(f"constraints.{name} must have {N} entries, got {len(seq)}")
    if len(c.d) == N and len(c.calE) == N and len(c.calF) == N and len(c.E) == N:
        for k in range(N):
            pk = len(c.d[k])
            for name, Mk, cols in (("calE", c.calE[k], n_x), ("calF", c.calF[k], n_u), ("E", c.E[k], n_u)):
                if Mk.shape != (pk, cols):
                    out.append(f"constraints.{name}[{k}] has shape {Mk.shape}, expected ({pk}, {cols})")
            if pk and np.min(c.d[k]) < 0:
                out.append(f"d[{k}] has negative entries (min {np.min(c.d[k]):.3e})")
    ph = len(c.d_hat)
    if c.E_hat.shape != (ph, n_x):
        out.append(f"E_hat has shape {c.E_hat.shape}, expected ({ph}, {n_x})")
    if c.F_hat.shape != (ph, n_u):
        out.append(f"F_hat has shape {c.F_hat.shape}, expected ({ph}, {n_u})")
    if ph and np.min(c.d_hat) < 0:
        out.append(f"d_hat has negative entries (min {np.min(c.d_hat):.3e})")

    for name, arrays in (
        ("A", [p.prediction_model.A]),
        ("B", [p.prediction_model.B]),
        ("Q", w.Q),
        ("R", w.R),
        ("M", w.M),
        ("V", w.V),
        ("P", [w.P]),
        ("d", c.d),
        ("d_hat", [c.d_hat]),
    ):
        for a in arrays:
            if np.size(a) and not np.all(np.isfinite(a)):
                out.append(f"{name} contains non-finite entries")
                break
    return out


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


# ---------------------------------------------------------------------------
# JSON serialization.  Matrices are stored as row-major nested lists.
# ---------------------------------------------------------------------------

def _listify(a: np.ndarray):
    return np.asarray(a, dtype=float).tolist()


def to_json_dict(p: ProblemDefinition) -> dict:
    """Serialize a problem."""
    w, c = p.weights, p.constraints
    return {
        "prediction_model": {
            "A": _listify(p.prediction_model.A),
            "B": _listify(p.prediction_model.B),
        },
        "weights": {
            "Q": [_listify(x) for x in w.Q],
            "R": [_listify(x) for x in w.R],
            "M": [_listify(x) for x in w.M],
            "V": [_listify(x) for x in w.V],
            "P": _listify(w.P),
        },
        "constraints": {
            "d": [_listify(x) for x in c.d],
            "calE": [_listify(x) for x in c.calE],
            "calF": [_listify(x) for x in c.calF],
            "E": [_listify(x) for x in c.E],
            "d_hat": _listify(c.d_hat),
            "E_hat": _listify(c.E_hat),
            "F_hat": _listify(c.F_hat),
        },
        "horizon": p.horizon,
    }


def _shaped(value, rows: int, cols: int) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    return a.reshape(rows, cols) if a.size else np.zeros((rows, cols))


def from_json_dict(doc: dict):
    """Inverse of :func:`to_json_dict`.  Keys it does not know, such as the
    ``"plant"`` entry of older files, are ignored."""
    pm = doc["prediction_model"]
    prediction = PlantModel(np.asarray(pm["A"], float), np.asarray(pm["B"], float))
    n_x, n_u = prediction.n_x, prediction.n_u
    N = int(doc["horizon"])
    wd = doc["weights"]
    weights = StageWeights(
        Q=[_shaped(x, n_x, n_x) for x in wd["Q"]],
        R=[_shaped(x, n_u, n_u) for x in wd["R"]],
        M=[_shaped(x, n_x, n_u) for x in wd["M"]],
        V=[_shaped(x, n_u, n_u) for x in wd["V"]],
        P=_shaped(wd["P"], n_x, n_x),
    )
    cd = doc["constraints"]
    d = [np.asarray(x, float).reshape(-1) for x in cd["d"]]
    d_hat = np.asarray(cd["d_hat"], float).reshape(-1)
    constraints = StageConstraints(
        d=d,
        calE=[_shaped(x, len(d[k]), n_x) for k, x in enumerate(cd["calE"])],
        calF=[_shaped(x, len(d[k]), n_u) for k, x in enumerate(cd["calF"])],
        E=[_shaped(x, len(d[k]), n_u) for k, x in enumerate(cd["E"])],
        d_hat=d_hat,
        E_hat=_shaped(cd["E_hat"], len(d_hat), n_x),
        F_hat=_shaped(cd["F_hat"], len(d_hat), n_u),
    )
    return ProblemDefinition(prediction, weights, constraints, N)


def save_problem(path, p: ProblemDefinition, meta: dict | None = None):
    doc = to_json_dict(p)
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=1))


def load_problem(path):
    """Returns (problem, meta)."""
    doc = json.loads(Path(path).read_text())
    return from_json_dict(doc), doc.get("meta", {})
