"""Warm-started combinatorial active-set search for the condensed parametric QP.

Instead of storing an explicit region partition, each query searches the
candidate active sets directly.  One evaluator (:func:`_evaluate`) solves the
equality-constrained KKT system of a candidate and lists its violated rows
and negative multipliers, worst first; the candidate is accepted when both
lists are empty.  The evaluator works in the p-row constraint space on the
operators the :class:`~rfmpc.lifting.LiftedQP` cached when it was built
(``K = G H^{-1} G^T`` and ``Y = H^{-1} G^T``): a candidate costs a gather
of rows of ``K``, a shifted Cholesky test of its block ``K_AA`` that screens
its rank (a second one, and an eigendecomposition, only near the rank
threshold) and one small solve, with no solve against ``H``.  One loop
(:func:`solve`) otherwise branches by activating violated rows and
deactivating rows with negative multipliers.  Candidates come off a
stack of promising candidates (most recent first) and, when the stack runs
dry, from the exhaustive (cardinality, mask) order.  A visited set and a list
of minimal rank-deficient candidates (whose supersets are all rank deficient
and can be pruned wholesale) filter them, which makes the search complete: if
the bounded candidate space is exhausted the problem is infeasible.  Every
:class:`SolveResult` comes from one constructor (:func:`_result`), which the
enumeration reference of the tests (``tests/reference.py``) shares.

Infeasibility is certified by a Farkas ray: ``y >= 0`` with ``G^T y = 0`` and
``b^T y = -1`` exists exactly when ``G z <= b`` is empty.  The rows a ray
weights are linearly dependent, so the search tests for one once
(:func:`_farkas_ray`), at its first rank-deficient candidate or after ``n_z``
KKT solves without an accepted candidate, whichever comes first.  The test is
a nonnegative least-squares (NNLS) solve on the normal equations
``K + b b^T`` of the cached ``K`` (:func:`_nnls`, Lawson-Hanson), first on the
rows of the rank-deficient candidate that triggered it, where one solve
usually finds the ray, and then, failing that, on all rows.  So an
``INFEASIBLE`` result carries its ray, which :func:`check_farkas` verifies
from ``G`` and ``b`` alone, and ``BUDGET_EXHAUSTED`` means only that the
search stalled on a query the ray could not prove infeasible.

:func:`reduce_to_licq` shrinks a sufficient but rank-deficient set to an LICQ
subset with the same NNLS, on the normal equations of ``Y_A mu = -z``: by
Caratheodory's theorem for cones its multipliers fit on independent rows, as
the NNLS's passive rows are.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .lifting import LiftedQP, _theta_vector, from_z

__all__ = [
    "ActiveSet",
    "Tolerances",
    "SolveStatus",
    "SolveStats",
    "SolveResult",
    "solve",
    "reduce_to_licq",
    "kkt_residuals",
    "check_farkas",
    "iter_candidate_masks",
]


@dataclass(frozen=True)
class ActiveSet:
    """Immutable set of active constraint indices stored as a bitmask.

    Bit ``k`` set means constraint row ``k`` is treated as an equality.
    """

    mask: int = 0

    @classmethod
    def from_indices(cls, indices) -> "ActiveSet":
        m = 0
        for k in indices:
            m |= 1 << int(k)
        return cls(m)

    @classmethod
    def from_hex(cls, text: str) -> "ActiveSet":
        mask = int(text, 16)
        if mask < 0:
            raise ValueError(f"active-set mask must be nonnegative, got {text}")
        return cls(mask)

    def indices(self) -> list:
        return _mask_indices(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        return hex(self.mask)


def _mask_indices(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _caller_mask(qp: LiftedQP, aset) -> int:
    """Bitmask of a caller's ``ActiveSet | int``, checked against the rows of ``qp``."""
    mask = aset.mask if isinstance(aset, ActiveSet) else int(aset)
    if mask < 0:
        raise ValueError(f"active-set mask must be nonnegative, got {hex(mask)}")
    if mask >> qp.p_tilde:
        raise ValueError(f"active set {hex(mask)} names a row beyond the {qp.p_tilde} constraint rows")
    return mask


def _bound_scale(qp: LiftedQP) -> float:
    """``1 + max|W|``: the scale of the absolute acceptance bands."""
    return 1.0 + (np.max(np.abs(qp.W)) if qp.W.size else 0.0)


# A candidate is rank deficient when the smallest eigenvalue of its reduced
# KKT matrix ``K_AA`` is at most this fraction of the largest.
_RANK_TOL = 1e-10


@dataclass
class Tolerances:
    """Acceptance band and work bound of the search.

    ``tol_violation`` is one absolute band for both slacks and multipliers,
    already scaled by the constraint bounds (see :meth:`for_qp`).
    ``max_kkt_solves`` bounds the work per query; a negative one raises
    ``ValueError``.  It does not bound the infeasibility certificate: the
    Farkas ray is sought once, by NNLS on the rows of the first
    rank-deficient candidate and then on all rows, at that candidate or once
    a query has spent ``min(n_z, max_kkt_solves)`` KKT solves, whichever
    comes first, so the budget runs out only on a query that the ray could
    not prove infeasible.  The NNLS solves count no KKT solve.
    """

    tol_violation: float = 1e-9
    max_kkt_solves: int = 10000

    def __post_init__(self):
        if self.max_kkt_solves < 0:
            raise ValueError(f"max_kkt_solves = {self.max_kkt_solves} must be nonnegative")

    @classmethod
    def for_qp(cls, qp: LiftedQP, max_kkt_solves: int = max_kkt_solves) -> "Tolerances":
        """The band ``1e-9 (1 + max|W|)`` of ``qp`` with the given budget."""
        return cls(1e-9 * _bound_scale(qp), max_kkt_solves)


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass
class SolveStats:
    candidates_visited: int = 0
    kkt_solves: int = 0
    licq_failures: int = 0
    wall_time: float = 0.0


@dataclass
class SolveResult:
    """Outcome of one query, with the certificate its status calls for.

    ``OPTIMAL`` carries the minimizer ``z_star``, the input sequence and the
    multipliers ``lam``, which :func:`kkt_residuals` checks.  ``INFEASIBLE``
    carries a Farkas ray ``farkas`` (one entry per constraint row), which
    :func:`check_farkas` checks.  A ray found on the rows of the
    rank-deficient candidate that triggered the ray test weights only those
    rows.  Only the enumeration reference of the tests
    (``tests/reference.py``), and a search that ran dry after the NNLS found
    no ray on the trigger's rows or on all rows, report it without one.
    ``BUDGET_EXHAUSTED`` carries neither: the search stalled and the ray found
    no certificate of infeasibility.
    """

    status: SolveStatus
    active_set: ActiveSet
    u_first: np.ndarray | None
    u_seq: np.ndarray | None
    z_star: np.ndarray | None
    lam: np.ndarray | None
    stats: SolveStats
    farkas: np.ndarray | None


def iter_candidate_masks(n_bits: int, max_cardinality: int):
    """All subsets of ``range(n_bits)`` ordered by (cardinality, numeric mask).

    Within one cardinality the masks are produced in increasing numeric order
    (same-popcount successor trick), which fixes the deterministic fallback
    order of the search and of the exhaustive reference.
    """
    yield 0
    limit = 1 << n_bits
    for c in range(1, min(n_bits, max_cardinality) + 1):
        v = (1 << c) - 1
        while v < limit:
            yield v
            t = (v | (v - 1)) + 1
            v = t | ((((t & -t) // (v & -v)) >> 1) - 1)


def _positive_definite(KAA: np.ndarray, shift: float) -> bool:
    """Whether ``K_AA - shift I`` has a Cholesky factor (is positive definite)."""
    M = KAA.copy()
    M.flat[:: len(M) + 1] -= shift
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _rank_complete(KAA: np.ndarray, tau: float) -> bool:
    """Whether the symmetric ``K_AA`` has ``lam_min > tau lam_max > 0``.

    Two Cholesky tests of a shifted copy decide almost every candidate.  A
    factor of ``K_AA - tau trace(K_AA) I`` proves ``lam_min > tau trace >=
    tau lam_max``: rank complete.  No factor of ``K_AA - tau max diag(K_AA) I``
    proves ``lam_min <= tau max diag <= tau lam_max``: rank deficient.  Both
    bounds hold up to rounding; in the band between them an eigendecomposition
    decides, so the verdict is the one of :func:`numpy.linalg.eigh`.
    """
    d = KAA.diagonal().tolist()
    if _positive_definite(KAA, tau * sum(d)):
        return True
    if not _positive_definite(KAA, tau * max(d)):
        return False
    w = np.linalg.eigh(KAA)[0]
    return bool(w[-1] > 0.0 and w[0] > tau * w[-1])


_NO_ROWS = np.zeros(0)


def _evaluate(qp: LiftedQP, mask: int, b: np.ndarray, tol: Tolerances):
    """One KKT solve of a candidate and its acceptance test, in constraint space.

    With ``A`` the candidate rows, :func:`_rank_complete` screens the rank of
    ``K_AA``.  The multipliers then solve ``K_AA lam_A = -b_A``, and the
    constraint values ``G z = -K[:, A] lam_A`` come from the rows ``K[A]``
    (``K`` is symmetric), so the test touches no ``G`` row and applies no
    ``H^{-1}``.  The minimizer ``z = -Y[:, A] lam_A`` is formed only for an
    accepted candidate.

    Returns ``(z, lam_A, violated, negative)``, with ``z`` ``None`` unless the
    candidate is accepted, or ``None`` when the candidate is rank deficient.
    ``violated`` lists the rows with slack below ``-tol_violation`` by
    increasing slack, ``negative`` the candidate rows with a multiplier below
    ``-tol_violation`` by increasing multiplier: worst first, index ties broken
    toward the lower index.  The candidate is accepted when both lists are
    empty.  The empty candidate costs no solve: its minimizer is the origin
    and its slack is ``b`` itself.
    """
    if not mask:
        viol = (b < -tol.tol_violation).nonzero()[0]
        if not viol.size:
            return np.zeros(qp.n_z), _NO_ROWS, [], []
        return None, _NO_ROWS, _worst_first(viol, b), []
    rows = np.array(_mask_indices(mask))
    KR = qp.K[rows]
    KAA = KR[:, rows]
    if not _rank_complete(KAA, _RANK_TOL):
        return None
    bA = b[rows]
    lam_A = np.linalg.solve(KAA, -bA)
    slack = b + lam_A @ KR  # b - G z
    # A candidate whose equalities cannot be reproduced numerically is
    # rank deficient for all practical purposes.
    if np.abs(slack[rows]).max() > 1e-8 * (1.0 + np.abs(bA).max()):
        return None
    viol = (slack < -tol.tol_violation).nonzero()[0]
    neg = (lam_A < -tol.tol_violation).nonzero()[0]
    if not viol.size and not neg.size:
        return -(qp.Y[:, rows] @ lam_A), lam_A, [], []
    return None, lam_A, _worst_first(viol, slack), _worst_first(neg, lam_A, rows)


def _worst_first(idx: np.ndarray, values: np.ndarray, labels=None) -> list:
    """``idx`` by increasing ``values[idx]`` as a list, ties to the lower index
    (a stable sort of ascending indices), optionally mapped through ``labels``."""
    if not idx.size:
        return []
    idx = idx[values[idx].argsort(kind="stable")]
    return (idx if labels is None else labels[idx]).tolist()


def _result(qp: LiftedQP, theta_vec, stats: SolveStats, status: SolveStatus,
            mask: int = 0, z=None, lam_A=None, farkas=None) -> SolveResult:
    """The one constructor of :class:`SolveResult`.

    ``z`` and ``lam_A`` are ``None`` unless optimal.  ``z`` yields the input
    sequence through :func:`~rfmpc.lifting.from_z`; ``lam_A``, the multipliers
    of the rows of ``mask``, is scattered into the full multiplier vector.
    ``farkas`` is the ray of an infeasible result.
    """
    u_seq = None if z is None else from_z(qp, z, theta_vec)
    lam = None
    if lam_A is not None:
        lam = np.zeros(qp.p_tilde)
        if mask:
            lam[_mask_indices(mask)] = lam_A
    return SolveResult(
        status=status,
        active_set=ActiveSet(mask),
        u_first=None if u_seq is None else u_seq[: qp.n_u],
        u_seq=u_seq,
        z_star=z,
        lam=lam,
        stats=stats,
        farkas=farkas,
    )


def solve(
    qp: LiftedQP,
    theta,
    warm: ActiveSet | None = None,
    tol: Tolerances | None = None,
) -> SolveResult:
    """Point location by warm-started candidate search.

    One loop evaluates candidates, starting from ``warm`` (default: empty
    set), until one is accepted.  A rejected candidate pushes neighbours:
    supersets activating violated rows (at most ``min(n_z, p)`` rows) and
    subsets dropping rows with negative multipliers, the worst offender on
    top of the stack with removals tried before additions.  Candidates are
    filtered when they are popped: already visited ones, and those
    containing a known rank-deficient subset, are skipped.  When the stack
    runs dry the next candidate of the (cardinality, mask) order is tried,
    so the search is complete.  The query is tested once for a Farkas ray,
    at the first rank-deficient candidate or once
    ``min(n_z, tol.max_kkt_solves)`` KKT solves have produced no accepted
    candidate, whichever comes first.  ``INFEASIBLE`` is reported when that
    ray exists, or when every candidate with cardinality at most ``n_z`` has
    been covered, and carries the ray in ``farkas`` (``None`` only if the
    search ran dry after NNLS found no ray that :func:`check_farkas` accepts).
    ``BUDGET_EXHAUSTED`` is reported when
    ``tol.max_kkt_solves`` KKT solves have produced no accepted candidate and
    the ray test found no certificate: the search stalled.  A ``warm`` set
    with a negative mask or a row at or above ``p_tilde`` raises
    ``ValueError``.

    ``stats.wall_time`` covers the whole call, result construction included.
    """
    t0 = time.perf_counter()
    theta_vec = _theta_vector(theta)
    tol = tol if tol is not None else Tolerances.for_qp(qp)
    stats = SolveStats()
    mask = 0 if warm is None else _caller_mask(qp, warm)
    found = _search(qp, qp.W + qp.S @ theta_vec, mask, tol, stats)
    result = _result(qp, theta_vec, stats, *found)
    stats.wall_time = time.perf_counter() - t0
    return result


def _search(qp: LiftedQP, b: np.ndarray, mask: int, tol: Tolerances, stats: SolveStats) -> tuple:
    """The loop of :func:`solve` from warm ``mask``.

    The one ray test runs at the first rank-deficient candidate (a ray's rows
    are linearly dependent), whose rows it searches first, or after
    ``min(n_z, max_kkt_solves)`` KKT solves, where it searches all rows,
    whichever comes first.  An infeasible query runs the candidate order dry
    only after that test: with ``p >= n_z`` the ``p`` singletons alone spend
    ``n_z`` solves, and otherwise the full row set is a candidate whose rows
    are dependent.  So the exhausted order returns the test's ray and runs
    no second test.

    Returns ``(OPTIMAL, mask, z, lam_A)``, ``(INFEASIBLE, 0, None, None, ray)``
    or ``(BUDGET_EXHAUSTED,)``.
    """
    p = qp.p_tilde
    cap = min(qp.n_z, p)
    visited = set()
    fallback = iter_candidate_masks(p, cap)
    licq = []
    stack = [mask if mask.bit_count() <= cap else 0]  # oversized: rank deficient
    ray_at = min(qp.n_z, tol.max_kkt_solves)  # KKT solves before the one ray test
    ray = None

    while True:
        mask = stack.pop() if stack else next(fallback, None)
        if mask is None:
            return SolveStatus.INFEASIBLE, 0, None, None, ray
        if mask in visited:
            continue
        visited.add(mask)
        if any(l & mask == l for l in licq):
            continue

        stats.candidates_visited += 1
        if mask:
            stats.kkt_solves += 1
        out = _evaluate(qp, mask, b, tol)
        if out is None:
            stats.licq_failures += 1
            # mask contains no known violator (filtered above); keep only
            # inclusion-minimal rank-deficient candidates.
            licq = [l for l in licq if mask & l != mask] + [mask]
            violated = negative = ()
        else:
            z, lam_A, violated, negative = out
            if not violated and not negative:
                return SolveStatus.OPTIMAL, mask, z, lam_A
        if ray_at is not None and (out is None or stats.kkt_solves >= ray_at):
            ray_at = None  # one ray test per query
            ray = _farkas_ray(qp, b, mask if out is None else 0)
            if ray is not None:
                return SolveStatus.INFEASIBLE, 0, None, None, ray
        if stats.kkt_solves >= tol.max_kkt_solves:
            return (SolveStatus.BUDGET_EXHAUSTED,)

        # Push in reverse examination order so the worst offender pops first;
        # removals are pushed after additions and therefore pop before them.
        for k in reversed(violated):
            m2 = mask | (1 << k)
            if m2.bit_count() <= cap:
                stack.append(m2)
        for k in reversed(negative):
            stack.append(mask & ~(1 << k))


def _farkas_ray(qp: LiftedQP, b: np.ndarray, trigger: int):
    """A Farkas ray of ``G z <= b`` from :func:`_nnls` on the cached ``K``, or ``None``.

    ``G^T y = 0`` holds exactly when ``y^T K y = |G^T y|^2_{H^{-1}}`` is zero,
    so ``y >= 0`` minimizing ``y^T K y + (b^T y + 1)^2``, that is
    ``y^T (K + b b^T) y + 2 b^T y``, reaches zero exactly when ``y`` is a ray.
    The NNLS runs first on the rows of ``trigger``, the rank-deficient
    candidate that started the test, with all of them passive: on a minimal
    dependent set that is one solve, ``y = -v / (b_A^T v)`` for the null
    vector ``v`` of ``K_AA``.  When that gives no ray, or the test was
    started by the KKT-solve count (``trigger`` 0), it runs on all rows from
    an empty passive set.  Each minimizer is judged by :func:`check_farkas` on
    ``G`` itself, not by the objective, whose size scales with ``H^{-1}``.
    """
    y = np.zeros(qp.p_tilde)
    if trigger:
        rows = np.array(_mask_indices(trigger))
        bA = b[rows]
        y[rows] = _nnls(qp.K[np.ix_(rows, rows)] + np.outer(bA, bA), -bA, passive=True)
        if check_farkas(qp.G, b, y):
            return y
    y = _nnls(qp.K + np.outer(b, b), -b)
    return y if check_farkas(qp.G, b, y) else None


def _nnls(C: np.ndarray, d: np.ndarray, passive: bool = False) -> np.ndarray:
    """``y >= 0`` minimizing ``y^T C y - 2 d^T y`` for a symmetric semidefinite ``C``.

    This is the Lawson-Hanson (1974) active-set method on the normal
    equations ``C = A^T A``, ``d = A^T t`` of ``min |A y - t|`` (the fast
    NNLS of Bro and de Jong, J. Chemometrics 11, 1997).  Each step makes
    passive the variable with the largest gradient ``d - C y``, if that
    exceeds its own rounding, and solves ``C_PP s = d_P`` on the passive set
    ``P``, stepping back along the segment to ``s`` while ``s`` has a
    nonpositive entry.  The passive columns of ``A`` stay linearly
    independent, so ``C_PP`` stays nonsingular.  With ``passive`` every
    variable starts passive, which ends after one solve when that solve is
    positive; a singular ``C`` or a first solve with a nonpositive entry
    falls back to the empty start.
    """
    n = len(d)
    # The rounding of the gradient d - C y, entry by entry.
    absC, err = np.abs(C), 10.0 * n * np.finfo(float).eps
    P = np.zeros(n, dtype=bool)
    y = np.zeros(n)
    if passive:
        try:
            s = np.linalg.solve(C, d)
        except np.linalg.LinAlgError:
            s = None
        if s is not None and np.all(s > 0.0):
            P[:], y = True, s
    for _ in range(3 * n):
        w = np.where(P, -np.inf, d - C @ y - err * (np.abs(d) + absC @ y))
        j = int(w.argmax())
        if w[j] <= 0.0:
            break
        P[j] = True
        while True:
            idx = P.nonzero()[0]
            try:
                s = np.linalg.solve(C[np.ix_(idx, idx)], d[idx])
            except np.linalg.LinAlgError:
                return y  # a dependent column entered: keep the last iterate
            yP, y = y[idx], np.zeros(n)
            if np.all(s > 0.0):
                y[idx] = s
                break
            # Step back along the segment to the first entry it zeroes, and
            # drop the entries that reach zero from the passive set.
            out = s <= 0.0
            den = yP[out] - s[out]
            ratio = yP[out] / np.where(den > 0.0, den, 1.0)
            k = ratio.argmin()
            yP = yP + ratio[k] * (s - yP)
            yP[out.nonzero()[0][k]] = 0.0
            keep = yP > 0.0
            P[idx] = keep
            y[idx[keep]] = yP[keep]
    return y


def check_farkas(G, b, y) -> bool:
    """Whether ``y`` certifies that ``G z <= b`` has no solution.

    The test needs only ``G`` and ``b``: ``y >= 0``, ``G^T y = 0`` up to
    rounding (``||G^T y||_inf <= 1e-9 max|G| sum(y)``) and
    ``b^T y <= -1 + 1e-9``.  Any ``z`` would then give the contradiction
    ``0 = (G^T y)^T z = y^T G z <= b^T y < 0``.  The scale is the whole of
    ``G``, not the rows that ``y`` weights: a ray on a zero row ``0 <= b_k < 0``
    may carry rounding-level weight on other rows.
    """
    G, b, y = np.asarray(G, float), np.asarray(b, float), np.asarray(y, float)
    if y.shape != b.shape or np.any(y < 0.0):
        return False
    gty = np.abs(G.T @ y).max(initial=0.0)
    return bool(gty <= 1e-9 * np.abs(G).max(initial=0.0) * y.sum() and b @ y <= -1.0 + 1e-9)


def kkt_residuals(qp: LiftedQP, result: SolveResult, theta) -> dict:
    """Certificate bundle of an optimal result.

    Returns stationarity norm, the worst active-row equality error, and the
    minimum slack and multiplier.  Raises ``ValueError`` on a result without
    a minimizer or multipliers: an ``INFEASIBLE`` or ``BUDGET_EXHAUSTED``
    result, or an optimal one whose caller dropped ``lam``.
    """
    if result.z_star is None or result.lam is None:
        raise ValueError(f"{result.status.value} result carries no certificate: "
                         "it has no minimizer or no multipliers")
    theta_vec = _theta_vector(theta)
    z = result.z_star
    rows = result.active_set.indices()
    GA = qp.G[rows]
    b = qp.W + qp.S @ theta_vec
    stationarity = np.linalg.norm(qp.H @ z + GA.T @ result.lam[rows])
    eq = float(np.max(np.abs(GA @ z - b[rows]))) if rows else 0.0
    slack = b - qp.G @ z
    return {
        "stationarity": float(stationarity),
        "active_equality": eq,
        "min_slack": float(np.min(slack)) if slack.size else 0.0,
        "min_lambda": float(np.min(result.lam)) if result.lam.size else 0.0,
        "z_norm": float(np.linalg.norm(z)),
    }


def reduce_to_licq(qp: LiftedQP, aset: ActiveSet, theta) -> ActiveSet:
    """Shrink a sufficient but degenerate active set until it satisfies LICQ.

    The equalities of a sufficient set are consistent (``b_A`` lies in the
    range of ``K_AA = U diag(w) U^T``), and every multiplier vector of the
    set gives the same minimizer ``z``, which the range part yields directly:
    ``z = Y_A U_r ((U_r^T b_A) / w_r)``.  The set is sufficient when
    ``-z = Y_A mu`` has a solution ``mu >= 0``; by Caratheodory's theorem for
    cones one exists on linearly independent columns of ``Y_A = H^{-1} G_A^T``,
    that is, on independent rows of ``G_A``.  :func:`_nnls` on the normal
    equations ``Y_A^T Y_A``, ``-Y_A^T z`` finds such a solution, since its
    passive columns stay linearly independent; its residual decides
    sufficiency, and the rows with ``mu > 0`` are the reduced set.  A set
    that is already rank complete at ``_RANK_TOL`` comes back unchanged.
    Raises ``ValueError`` when the input set is not sufficient.
    """
    b = qp.W + qp.S @ _theta_vector(theta)
    mask = _caller_mask(qp, aset)
    if mask:
        rows = np.array(_mask_indices(mask))
        w, U = np.linalg.eigh(qp.K[np.ix_(rows, rows)])
        if w[-1] <= 0.0 or w[0] <= _RANK_TOL * w[-1]:
            r = w > _RANK_TOL * max(w[-1], 0.0)
            bA, Ur = b[rows], U[:, r]
            if np.abs(bA - Ur @ (Ur.T @ bA)).max() > 1e-8 * (1.0 + np.abs(bA).max()):
                raise ValueError("candidate set is not sufficient: its equalities are inconsistent")
            YA = qp.Y[:, rows]
            z = YA @ (Ur @ ((Ur.T @ bA) / w[r]))
            mu = _nnls(YA.T @ YA, -(YA.T @ z))
            if np.linalg.norm(YA @ mu + z) > 1e-8 * (1.0 + np.linalg.norm(z)):
                raise ValueError("candidate set is not sufficient: no nonnegative multipliers")
            mask = ActiveSet.from_indices(rows[mu > 0]).mask

    # Verify the reduced candidate actually certifies the minimizer, with a
    # band ten times the search's default.
    band = 1e-8 * _bound_scale(qp)
    out = _evaluate(qp, mask, b, Tolerances(tol_violation=band))
    if out is None:
        raise ValueError("reduction failed to reach a rank-complete candidate")
    if out[2] or out[3]:
        raise ValueError("candidate set is not sufficient")
    return ActiveSet(mask)
