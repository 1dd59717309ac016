"""Problem data for constrained time-varying linear-quadratic receding-horizon control.

Holds the prediction model, per-stage weights and affine stage and
terminal constraints, validates them, and reads and writes them as JSON.
Each of the 14 problem arrays is declared once, as a field of
:class:`PlantModel`, :class:`StageWeights` or :class:`StageConstraints`
whose metadata gives its count and its shape by dimension name (see
:func:`_array`).  The coercion on construction, :func:`validate`, the JSON
writer and the reader all iterate those fields, so the file format is the
field list: one object per record and one key per field, in field order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "PlantModel",
    "StageWeights",
    "StageConstraints",
    "Parameter",
    "ProblemDefinition",
    "validate",
    "to_json_dict",
    "from_json_dict",
    "save_problem",
    "load_problem",
]

# A symmetric matrix is positive semidefinite when its smallest eigenvalue is
# at least minus this fraction of ``1 + max|eigenvalue|``.
_PSD_TOL = 1e-10


def _vec(value) -> np.ndarray:
    a = np.asarray(value, dtype=float)
    return a.reshape(-1)


def _array(shape: str, count: str | None = None):
    """Field of a problem array.  ``shape`` names its dimensions: ``n_x``,
    ``n_u``, ``p`` (stage ``k``'s bound rows, ``len(d[k])``) or ``p_hat`` (the
    terminal rows, ``len(d_hat)``); a bound vector has no columns.  ``count``
    is None for a single array, or ``"N"`` or ``"N+1"`` for one per stage."""
    return field(metadata={"shape": tuple(shape.split()), "count": count})


def _split(f, value) -> list:
    """``(label, entry)`` pairs of the value of field ``f``: ``[("P", P)]``
    for a single array, ``[("Q[0]", Q[0]), ("Q[1]", Q[1]), ...]`` otherwise."""
    if f.metadata["count"] is None:
        return [(f.name, value)]
    return [(f"{f.name}[{k}]", a) for k, a in enumerate(value)]


def _join(f, entries: list):
    """Inverse of :func:`_split` on the entries alone."""
    return entries[0] if f.metadata["count"] is None else entries


def _coerce(value, label: str, vector: bool) -> np.ndarray:
    """A bound vector, flattened, or a matrix: a scalar or a length-1 vector
    reads as 1 x 1, an empty entry is kept as given and any other 1-D entry
    raises ``ValueError``, since a bare vector is ambiguous as a matrix."""
    a = np.asarray(value, dtype=float)
    if vector:
        return a.reshape(-1)
    if a.ndim < 2 and a.size == 1:
        return a.reshape(1, 1)
    if a.ndim == 1 and a.size:
        raise ValueError(f"{label}: expected a matrix, got 1-D array of length {a.size}")
    return a


class _Arrays:
    """Base of the records of problem arrays; coerces each entry of each
    field on construction (:func:`_coerce`)."""

    def __post_init__(self):
        for f in fields(self):
            vector = len(f.metadata["shape"]) == 1
            setattr(self, f.name, _join(f, [_coerce(a, label, vector)
                                            for label, a in _split(f, getattr(self, f.name))]))


@dataclass
class PlantModel(_Arrays):
    """Discrete-time linear prediction model ``x+ = A x + B u``."""

    A: np.ndarray = _array("n_x n_x")
    B: np.ndarray = _array("n_x n_u")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]


@dataclass
class StageWeights(_Arrays):
    """Per-stage quadratic weights.

    ``Q``, ``R``, ``M`` have one entry per stage ``k = 0..N-1``; ``V`` has
    ``N + 1`` entries because the input-increment penalty also acts once past
    the final stage.  ``P`` is the terminal state weight.  ``M[k]`` is the
    state-input cross weight with shape ``(n_x, n_u)``.
    """

    Q: list = _array("n_x n_x", "N")
    R: list = _array("n_u n_u", "N")
    M: list = _array("n_x n_u", "N")
    V: list = _array("n_u n_u", "N+1")
    P: np.ndarray = _array("n_x n_x")


@dataclass
class StageConstraints(_Arrays):
    """Affine stage and terminal constraints.

    Stage ``k`` requires ``calE[k] x'_k + calF[k] u'_{k-1} + E[k] u'_k <= d[k]``
    and the terminal stage requires ``E_hat x'_N + F_hat u'_{N-1} <= d_hat``.
    All bound vectors are entrywise nonnegative so that the origin is always
    admissible for the homogeneous problem.
    """

    d: list = _array("p", "N")
    calE: list = _array("p n_x", "N")
    calF: list = _array("p n_u", "N")
    E: list = _array("p n_u", "N")
    d_hat: np.ndarray = _array("p_hat")
    E_hat: np.ndarray = _array("p_hat n_x")
    F_hat: np.ndarray = _array("p_hat n_u")

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


# The JSON object of each record, in file order; ``"horizon"`` follows them.
_RECORDS = {"prediction_model": PlantModel, "weights": StageWeights, "constraints": StageConstraints}


def _entries(p: ProblemDefinition, out: list, fill_empty: bool = False):
    """Yields ``(field name, label, array, expected shape)`` for every entry
    of the problem arrays, in file order (labels as in :func:`_split`).  A
    field with the wrong number of entries is reported to ``out`` and skipped,
    and so are the stage constraint matrices while ``d`` has the wrong count.
    With ``fill_empty``, each empty entry is first replaced by zeros of its
    expected shape."""
    N, c = p.horizon, p.constraints
    dims = {"n_x": p.n_x, "n_u": p.n_u, "p": c.rows_per_stage, "p_hat": c.p_hat}
    for group in _RECORDS:
        record = getattr(p, group)
        for f in fields(record):
            names, count = f.metadata["shape"], f.metadata["count"]
            entries = _split(f, getattr(record, f.name))
            n_want = {"N": N, "N+1": N + 1}.get(count, 1)
            if len(entries) != n_want:
                out.append(f"{group}.{f.name} must have {n_want} entries, got {len(entries)}")
                continue
            if "p" in names and len(dims["p"]) != N:
                continue
            wants = [tuple(dims[n][k] if n == "p" else dims[n] for n in names) for k in range(len(entries))]
            if fill_empty:
                entries = [(label, a if np.size(a) else np.zeros(want))
                           for (label, a), want in zip(entries, wants)]
                setattr(record, f.name, _join(f, [a for _, a in entries]))
            for (label, a), want in zip(entries, wants):
                yield f.name, label, a, want


def _psd_verdict(A: np.ndarray) -> str | None:
    """What is wrong with the weight block ``A`` (``"is not symmetric"`` or
    ``"is not positive semidefinite (min eig ...)"``), or None."""
    if not A.size:
        return None
    if np.max(np.abs(A - A.T)) > 1e-10 * (1.0 + np.max(np.abs(A))):
        return "is not symmetric"
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    if w[0] < -_PSD_TOL * (1.0 + max(abs(w[0]), abs(w[-1]))):
        return f"is not positive semidefinite (min eig {w[0]:.3e})"
    return None


def validate(p: ProblemDefinition) -> list:
    """Check every data invariant; returns a list of violations (empty iff valid).

    Field by field, it reports a wrong count (``"weights.Q must have 2
    entries, got 1"``), each entry of the wrong shape (``"E[1] shape (2, 6)
    does not match (6, 2)"``), non-finite entries once per field (``"V contains
    non-finite entries"``) and negative bounds (``"d[0] has negative entries
    ..."``).  The weights' symmetry and semidefiniteness are checked only when
    every array passed the count, shape and finiteness checks, on the joint
    block ``[[Q, M], [M.T, R]]`` of each stage, each ``V[k]`` and ``P``.
    Each distinct block is judged once, keyed by the bytes of the arrays it
    is made of, since most problems repeat one block across the stages; its
    verdict is reported at every stage that has it (``"V[3] is not
    symmetric"``).  Violations are reported rather than raised, so a caller
    can collect the full picture.
    """
    if p.horizon < 1:
        return [f"horizon must be >= 1, got {p.horizon}"]
    out, signs = [], []
    for name, label, a, want in _entries(p, out):
        if a.shape != want:
            out.append(f"{label} shape {a.shape} does not match {want}")
        elif a.size and not np.all(np.isfinite(a)):
            if f"{name} contains non-finite entries" not in out:
                out.append(f"{name} contains non-finite entries")
        elif len(want) == 1 and a.size and np.min(a) < 0:
            signs.append(f"{label} has negative entries (min {np.min(a):.3e})")
    if not out:
        # The stage cost is jointly convex in (x, u) only if the full block
        # with the cross term is semidefinite.
        w = p.weights
        blocks = [(f"[[Q, M], [M.T, R]] block at stage {k}", (w.Q[k], w.M[k], w.R[k]))
                  for k in range(p.horizon)]
        blocks += [(f"V[{k}]", (Vk,)) for k, Vk in enumerate(w.V)] + [("P", (w.P,))]
        verdicts = {}
        for name, parts in blocks:
            key = tuple(a.tobytes() for a in parts)
            if key not in verdicts:
                if len(parts) == 3:
                    Q, M, R = parts
                    parts = (np.block([[Q, M], [M.T, R]]),)
                verdicts[key] = _psd_verdict(parts[0])
            if verdicts[key]:
                out.append(f"{name} {verdicts[key]}")
    return out + signs


# ---------------------------------------------------------------------------
# JSON serialization.  Matrices are stored as row-major nested lists.
# ---------------------------------------------------------------------------

def to_json_dict(p: ProblemDefinition) -> dict:
    """Serialize a problem: an object per record with a key per array field,
    in field order, then the horizon."""
    doc = {}
    for group in _RECORDS:
        record = getattr(p, group)
        doc[group] = {f.name: _join(f, [np.asarray(a, dtype=float).tolist()
                                        for _, a in _split(f, getattr(record, f.name))])
                      for f in fields(record)}
    doc["horizon"] = p.horizon
    return doc


def from_json_dict(doc: dict) -> ProblemDefinition:
    """Inverse of :func:`to_json_dict`.  Keys it does not know, such as the
    ``"plant"`` entry of older files, are ignored.

    An empty entry reads as zeros of its expected shape (a stage without
    bound rows is stored as ``[]``), a bound vector is flattened and a scalar
    reads as a 1 x 1 matrix.  Any other entry of the wrong shape, and a field
    with the wrong number of entries, raises ``ValueError`` naming it.
    """
    N = doc["horizon"]
    if type(N) is not int or N < 1:
        raise ValueError(f"horizon must be a positive integer, got {N!r}")
    p = ProblemDefinition(*(cls(**{f.name: doc[group][f.name] for f in fields(cls)})
                            for group, cls in _RECORDS.items()), N)
    out = []
    for _, label, a, want in _entries(p, out, fill_empty=True):
        if a.shape != want:
            raise ValueError(f"{label} shape {a.shape} does not match {want}")
    if out:
        raise ValueError(out[0])
    return p


def save_problem(path, p: ProblemDefinition, meta: dict | None = None):
    doc = to_json_dict(p)
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc))


def load_problem(path):
    """Returns (problem, meta).  A file that is not a problem document raises
    ``OSError`` naming the file: text that is not UTF-8 JSON, a missing key,
    a horizon that is not a positive integer, a ragged matrix, a field with the wrong number of
    entries, or an entry of the wrong shape, which the message names
    (``E[1] shape (2, 6) does not match (6, 2)``)."""
    try:
        doc = json.loads(Path(path).read_text())
        return from_json_dict(doc), doc.get("meta", {})
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise OSError(f"{path}: not a problem file: {type(exc).__name__}: {exc}") from exc
