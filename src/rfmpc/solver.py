"""Warm-started combinatorial active-set search for the condensed parametric QP.

Instead of storing an explicit region partition, each query searches the
candidate active sets directly.  One evaluator (:func:`_evaluate`) solves the
equality-constrained KKT system of a candidate and finds its violated rows
and negative multipliers; the candidate is accepted when it has neither.
The evaluator works in the p-row constraint space on the operators the
:class:`~rfmpc.lifting.LiftedQP` cached when it was built
(``K = G H^{-1} G^T`` and ``Y = H^{-1} G^T``): a candidate costs a gather
of rows of ``K``, a shifted Cholesky test of its block ``K_AA`` that screens
its rank (a second one, and an eigendecomposition, only near the rank
threshold) and one small solve, with no solve against ``H``.  The Cholesky
tests and the solve, like the NNLS's solves below, call LAPACK straight
through the gufuncs that :func:`numpy.linalg.cholesky` and
:func:`numpy.linalg.solve` call (:func:`_positive_definite`,
:func:`_solve`): the same routines, so the same bits, without the wrappers'
call cost, which is several times the LAPACK work on a block of a few rows.
A failed factorization or a singular solve then reads as NaN instead of
raising ``LinAlgError``; the search holds one ``np.errstate`` per query for
the flags that raises (:func:`_search`), and :func:`reduce_to_licq` its own.
One loop (:func:`solve`) otherwise branches by activating violated rows and
deactivating rows with negative multipliers.  It walks a chain: the
evaluator names only the worst row of each side, and a rejected candidate's
first child (its worst negative row dropped, else its worst violated row
added) is the next candidate and carries its row list, while its other
children wait in one deferred frame on a stack (most recent first), which
forms the full lists from the candidate's multipliers and slack only if the
search comes back to it; when the stack runs dry, candidates come from the
exhaustive (cardinality, mask) order.  A visited set and a list of minimal
rank-deficient candidates (whose supersets are all rank deficient and can be
pruned wholesale) filter them, which makes the search complete: if the
bounded candidate space is exhausted the problem is infeasible.  An active
set is one ``int`` mask throughout: :class:`ActiveSet`, which callers pass as
``warm`` and results carry, is an ``int`` that checks its mask when built.
Every :class:`SolveResult` comes from one constructor (:func:`_result`),
which the enumeration reference of the tests (``tests/reference.py``)
shares.

Infeasibility is certified by a Farkas ray: ``y >= 0`` with ``G^T y = 0`` and
``b^T y = -1`` exists exactly when ``G z <= b`` is empty.  The rows a ray
weights are linearly dependent, so the search tests for one once
(:func:`_farkas_ray`), at its first rank-deficient candidate or after ``n_z``
KKT solves without an accepted candidate, whichever comes first.  The test is
a nonnegative least-squares (NNLS) problem on the normal equations
``K + b b^T`` of the cached ``K``, with ``b`` scaled down to the size of
``K`` so that a large ``theta`` keeps the ray accurate: first on the rows of
the rank-deficient candidate that triggered it, where a positive direct
solve is the minimizer and spares the Lawson-Hanson run (:func:`_nnls`),
and then, failing that, on all rows.  So an ``INFEASIBLE`` result carries its
ray, which :func:`check_farkas` verifies from ``G`` and ``b`` alone, and
``BUDGET_EXHAUSTED`` means only that the search stalled on a query the ray
could not prove infeasible.

:func:`reduce_to_licq` shrinks a sufficient but rank-deficient set to an LICQ
subset with the same NNLS, on the normal equations of ``Y_A mu = -z``: by
Caratheodory's theorem for cones its multipliers fit on independent rows, as
the NNLS's passive rows are.
"""
from __future__ import annotations

import operator
import time
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from math import inf, isfinite

import numpy as np
from numpy.linalg import _umath_linalg

from .lifting import LiftedQP, _theta_vector

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


class ActiveSet(int):
    """A set of active constraint rows that is its own bitmask: an ``int``.

    Bit ``k`` set means constraint row ``k`` is treated as an equality.  A
    mask that is not an integer (``operator.index``) raises ``TypeError``,
    and a negative one, whose bits never end, ``ValueError``.  ``len`` is the
    number of rows and ``str`` the hex mask.
    """

    __slots__ = ()

    def __new__(cls, mask=0):
        mask = operator.index(mask)
        if mask < 0:
            raise ValueError(f"active-set mask must be nonnegative, got {hex(mask)}")
        return int.__new__(cls, mask)

    @classmethod
    def from_indices(cls, indices) -> "ActiveSet":
        m = 0
        for k in indices:
            m |= 1 << int(k)
        return cls(m)

    def indices(self) -> list:
        return _mask_indices(self)

    def __len__(self) -> int:
        return self.bit_count()

    def __str__(self) -> str:
        return hex(self)


def _mask_indices(mask: int) -> list:
    """Indices of the set bits of ``mask``, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _caller_mask(qp: LiftedQP, aset, name: str = "aset") -> int:
    """Bitmask of a caller's ``ActiveSet | int``, checked against the rows of
    ``qp``.  A mask that is not an integer (a float or a str, which ``int``
    would truncate or parse) raises ``TypeError`` naming the caller's
    argument ``name``; any integer type (``operator.index``), an
    :class:`ActiveSet` included, is taken as a plain ``int``."""
    try:
        mask = operator.index(aset)
    except TypeError:
        raise TypeError(f"{name} must be an ActiveSet or an integer mask, got {aset!r}") from None
    if mask < 0:
        raise ValueError(f"active-set mask must be nonnegative, got {hex(mask)}")
    if mask >> qp.p_tilde:
        raise ValueError(f"active set {hex(mask)} names a row beyond the {qp.p_tilde} constraint rows")
    return mask


# A candidate is rank deficient when the smallest eigenvalue of its reduced
# KKT matrix ``K_AA`` is at most this fraction of the largest.
_RANK_TOL = 1e-10


@dataclass
class Tolerances:
    """Acceptance band and work bound of the search.

    ``tol_violation`` is one absolute band for both slacks and multipliers,
    already scaled by the constraint bounds (see :meth:`for_qp`); a NaN,
    negative or infinite one raises ``ValueError``, since an infinite band
    would accept any candidate.  ``max_kkt_solves`` bounds the work per
    query; a negative one raises ``ValueError`` and one that is not an
    integer ``TypeError``.  It does not bound the infeasibility certificate:
    the Farkas ray is sought once, on the rows of the first rank-deficient
    candidate and then on all rows, at that candidate or once a query has
    spent ``min(n_z, max_kkt_solves)`` KKT solves, whichever comes first, so
    the budget runs out only on a query that the ray could not prove
    infeasible.  Its solves count no KKT solve.
    """

    tol_violation: float = 1e-9
    max_kkt_solves: int = 10000

    def __post_init__(self):
        if not 0.0 <= self.tol_violation < inf:
            raise ValueError(f"tol_violation = {self.tol_violation} must be finite and nonnegative")
        try:
            self.max_kkt_solves = operator.index(self.max_kkt_solves)
        except TypeError:
            raise TypeError(f"max_kkt_solves must be an integer, got {self.max_kkt_solves!r}") from None
        if self.max_kkt_solves < 0:
            raise ValueError(f"max_kkt_solves = {self.max_kkt_solves} must be nonnegative")

    @classmethod
    def for_qp(cls, qp: LiftedQP, max_kkt_solves: int = max_kkt_solves) -> "Tolerances":
        """The band ``1e-9 (1 + max|W|)`` of ``qp`` with the given budget."""
        return cls(1e-9 * qp.bound_scale, max_kkt_solves)


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(slots=True)
class SolveStats:
    candidates_visited: int = 0
    kkt_solves: int = 0
    licq_failures: int = 0
    wall_time: float = 0.0


@dataclass(slots=True)
class SolveResult:
    """Outcome of one query, with the certificate its status calls for.

    ``active_set`` is the accepted :class:`ActiveSet`, an ``int``, and the
    empty one when no set was accepted.  ``OPTIMAL`` carries the minimizer
    ``z_star``, the input sequence and the multipliers ``lam``, which
    :func:`kkt_residuals` checks.  At the empty active set ``z_star`` and
    ``lam`` are its QP's shared read-only zero vectors (``LiftedQP.origin``
    and ``zero_lam``), which raise ``ValueError`` when written to; every
    other array is the result's own.
    ``INFEASIBLE`` carries a Farkas ray ``farkas`` (one entry per constraint
    row), which :func:`check_farkas` checks.  A ray found on the rows of the
    rank-deficient candidate that triggered the ray test weights only those
    rows.  Only the enumeration reference of the tests
    (``tests/reference.py``), and a search that ran dry after the ray test
    found no ray on the trigger's rows or on all rows, report it without one.
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
    """Whether ``K_AA - shift I`` has a Cholesky factor (is positive definite).

    The verdict of :func:`numpy.linalg.cholesky`, from the gufunc it calls
    (LAPACK ``potrf``): a failed factorization fills the factor with NaN and
    raises the floating-point invalid flag where the wrapper raises
    ``LinAlgError``, so a NaN ``L[0, 0]`` means no factor.  The caller holds
    the ``np.errstate`` that keeps the flag from becoming a warning.
    """
    M = KAA.copy()
    M.reshape(-1)[:: len(M) + 1] -= shift
    L00 = _umath_linalg.cholesky_lo(M, signature="d->d").item(0)
    return L00 == L00


def _solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``A^{-1} b`` bit for bit as :func:`numpy.linalg.solve`, from the gufunc
    it calls for one right-hand side (LAPACK ``gesv``), and all NaN where
    that raises ``LinAlgError`` (``A`` exactly singular), whose invalid flag
    the caller's ``np.errstate`` ignores."""
    return _umath_linalg.solve1(A, b, signature="dd->d")


def _rank_complete(KAA: np.ndarray, tau: float) -> bool:
    """Whether the symmetric ``K_AA`` has ``lam_min > tau lam_max > 0``.

    Two Cholesky tests of a shifted copy decide almost every candidate.  A
    factor of ``K_AA - tau trace(K_AA) I`` proves ``lam_min > tau trace >=
    tau lam_max``: rank complete.  No factor of ``K_AA - tau max diag(K_AA) I``
    proves ``lam_min <= tau max diag <= tau lam_max``: rank deficient.  Both
    bounds hold up to rounding; in the band between them an eigendecomposition
    decides, so the verdict is the one of :func:`numpy.linalg.eigh`.  Each
    test is one gufunc call (:func:`_positive_definite`); only the rare band
    pays for a full ``eigh``.
    """
    d = KAA.diagonal().tolist()
    if _positive_definite(KAA, tau * sum(d)):
        return True
    if not _positive_definite(KAA, tau * max(d)):
        return False
    w = np.linalg.eigh(KAA)[0]
    return bool(w[-1] > 0.0 and w[0] > tau * w[-1])


_NO_ROWS = np.zeros(0)


def _evaluate(qp: LiftedQP, rows: list, b: np.ndarray, tol: Tolerances):
    """One KKT solve of a candidate and its acceptance test, in constraint space.

    With ``A`` the candidate rows, ascending in ``rows``, :func:`_rank_complete`
    screens the rank of ``K_AA``.  The multipliers then solve
    ``K_AA lam_A = -b_A`` in one gufunc call (:func:`_solve`), and the
    constraint values ``G z = -K[:, A] lam_A`` come from the rows ``K[A]``
    (``K`` is symmetric), so the test touches no ``G`` row and applies no
    ``H^{-1}``.  A candidate whose active rows do not reproduce their bounds,
    a NaN solve included, counts as rank deficient.  The minimizer
    ``z = -Y[:, A] lam_A`` is formed only for an accepted candidate.  The
    checks on the ``|A|`` entries of ``slack[A]`` and ``lam_A`` run on Python
    floats, cheaper than numpy calls at a few entries, and the two products
    are ``ndarray.dot``, the ``gemv`` of ``@`` without its ufunc dispatch.
    The caller holds the ``np.errstate`` of the LAPACK calls.

    Returns ``(z, lam_A, slack, remove, add)``, with ``z`` ``None`` unless
    the candidate is accepted, or ``None`` when the candidate is rank
    deficient.  ``slack`` is the array of every row's slack.  ``remove`` is
    the candidate row with the least multiplier and ``add`` the row with the
    least slack, each only when that is below ``-tol_violation`` and else
    ``None``, the lower index on a tie: the worst row of each side, the
    heads of the lists that a deferred frame (:func:`_siblings`) forms from
    ``lam_A`` and ``slack`` when it needs the rest.  The candidate is
    accepted when neither is a row.  A NaN slack is never violated at a
    non-empty candidate, so where ``argmin`` stops at a NaN the worst row
    comes from the rows below the band.  The empty candidate costs no solve
    and allocates nothing: its minimizer is the QP's read-only ``origin``
    and its slack is ``b`` itself.  Its test reads the least entry of ``b``,
    or its first NaN, so a NaN or ``-inf`` bound rejects it, and that entry
    is its ``add`` row; its child is non-empty, and :func:`_search` checks
    ``b`` before it evaluates that child.
    """
    low = -tol.tol_violation
    if not rows:
        if not b.size or b[b.argmin()] >= low:
            return qp.origin, _NO_ROWS, b, None, None
        return None, _NO_ROWS, b, None, int(b.argmin())
    idx = np.array(rows)
    KR = qp.K.take(idx, axis=0)  # take: the gather of K[rows] at half the call cost
    KAA = KR.take(idx, axis=1)
    if not _rank_complete(KAA, _RANK_TOL):
        return None
    bA = b.take(idx)
    lam_A = _solve(KAA, -bA)
    slack = b + lam_A.dot(KR)  # b - G z
    # A candidate whose equalities cannot be reproduced numerically is
    # rank deficient for all practical purposes; so is a NaN solve, whose
    # NaN entries fail every comparison.
    eq_band = 1e-8 * (1.0 + max(map(abs, bA.tolist())))
    if not all(abs(v) <= eq_band for v in slack.take(idx).tolist()):
        return None
    lam = lam_A.tolist()
    least = min(lam)  # no NaN: a NaN multiplier makes every slack NaN
    remove = rows[lam.index(least)] if least < low else None
    add = int(slack.argmin())
    least = slack.item(add)
    if least != least:  # argmin stops at the first NaN, never violated here
        viol = (slack < low).nonzero()[0]
        add = int(viol[slack.take(viol).argmin()]) if viol.size else None
    elif not least < low:
        add = None
    if remove is None and add is None:
        return -(qp.Y[:, idx].dot(lam_A)), lam_A, slack, None, None
    return None, lam_A, slack, remove, add


_EMPTY_SET = ActiveSet(0)


def _result(qp: LiftedQP, shift: np.ndarray, stats: SolveStats, status: SolveStatus,
            mask: int = 0, z=None, lam_A=None, farkas=None) -> SolveResult:
    """The one constructor of :class:`SolveResult`.

    ``z`` and ``lam_A`` are ``None`` unless optimal.  ``z`` yields the input
    sequence ``z - shift``, with ``shift = H^{-1} F theta`` as :func:`_rhs`
    formed it; ``lam_A``, the multipliers of the rows of ``mask``, is
    scattered into a fresh full multiplier vector when ``mask`` is not empty,
    and at the empty set the multipliers are the QP's read-only
    ``zero_lam``.  ``farkas`` is the ray of an infeasible result.  ``mask``
    becomes the result's :class:`ActiveSet`; every empty one is the same
    ``ActiveSet(0)``, safe to share as an ``int`` is immutable.
    """
    u_seq = u_first = lam = None
    if z is not None:
        u_seq = z - shift
        u_first = u_seq[: qp.n_u]
    if lam_A is not None:
        lam = qp.zero_lam
        if mask:
            lam = np.zeros(qp.p_tilde)
            lam[_mask_indices(mask)] = lam_A
    aset = ActiveSet(mask) if mask else _EMPTY_SET
    return SolveResult(status, aset, u_first, u_seq, z, lam, stats, farkas)


def _rhs(qp: LiftedQP, theta) -> tuple:
    """``(shift, b)``: ``shift = H^{-1} F theta`` and ``b = W + S theta``
    from one product with ``LiftedQP.theta_op`` (``ndarray.dot``, the
    ``gemv`` of ``@`` without its ufunc dispatch).  ``theta`` must be finite
    and have ``n_theta`` entries, else ``ValueError``; the length is the
    product's own check, renamed.  A NaN or infinite entry makes every entry
    of the product non-finite (``0 inf`` is NaN), so the first one screens
    ``theta``, whose entries are tested only then.  An infinite entry that
    meets a zero coefficient also sets numpy's invalid flag, whose warning
    comes first, as the overflow of a too-large ``theta`` does.  Where
    warnings are errors, the product raises that warning instead: a
    non-finite ``theta`` still gets its ``ValueError``, and the warning of a
    finite one, an overflow, is raised as it is."""
    theta_vec = _theta_vector(theta)
    try:
        r = qp.theta_op.dot(theta_vec)
    except ValueError:
        raise ValueError(f"theta needs {qp.n_theta} entries, got {theta_vec.size}") from None
    except RuntimeWarning:
        _check_finite(theta_vec)
        raise
    if not isfinite(r[0]):
        _check_finite(theta_vec)
    n_z = qp.n_z
    b = r[n_z:]
    b += qp.W
    return r[:n_z], b


def _check_finite(theta_vec: np.ndarray) -> None:
    """Raise ``ValueError`` naming the entries of ``theta`` that are not finite."""
    bad = (~np.isfinite(theta_vec)).nonzero()[0].tolist()
    if bad:
        raise ValueError(f"theta must be finite, but its entries {bad} are not") from None


def _check_bounds(b: np.ndarray) -> None:
    """Raise ``ValueError`` when ``b = W + S theta`` of a finite ``theta`` is
    not finite: ``theta`` is too large for ``S theta`` to be formed.  The
    least and the largest entry decide (``argmin`` and ``argmax`` stop at the
    first NaN), at half the cost of ``np.isfinite(b).all()``."""
    if b.size and not (-np.inf < b[b.argmin()] and b[b.argmax()] < np.inf):
        rows = (~np.isfinite(b)).nonzero()[0].tolist()
        raise ValueError(f"theta is too large: b = W + S theta is not finite in rows {rows}")


def solve(
    qp: LiftedQP,
    theta,
    warm: ActiveSet | None = None,
    tol: Tolerances | None = None,
) -> SolveResult:
    """Point location by warm-started candidate search.

    One loop evaluates candidates, starting from ``warm`` (default: empty
    set), until one is accepted.  A rejected candidate's children are the
    subsets dropping a row with a negative multiplier, by increasing
    multiplier, then the supersets activating a violated row (at most
    ``min(n_z, p)`` rows), by increasing slack.  The first child is the
    next candidate and the others are deferred, to be tried in that order
    when the first one's branch ends without an accepted candidate.  Every
    candidate is filtered before it is evaluated: already visited ones, and
    those containing a known rank-deficient subset, are skipped.  When no
    deferred child is left the next candidate of the (cardinality, mask)
    order is tried, so the search is complete.  The query is tested once
    for a Farkas ray, at the first rank-deficient candidate or once
    ``min(n_z, tol.max_kkt_solves)`` KKT solves have produced no accepted
    candidate, whichever comes first.  ``INFEASIBLE`` is reported when that
    ray exists, or when every candidate with cardinality at most ``n_z`` has
    been covered, and carries the ray in ``farkas`` (``None`` only if the
    search ran dry after the ray test found no ray that :func:`check_farkas`
    accepts).  ``BUDGET_EXHAUSTED`` is reported when
    ``tol.max_kkt_solves`` KKT solves have produced no accepted candidate and
    the ray test found no certificate: the search stalled.  A ``warm`` set
    with a negative mask or a row at or above ``p_tilde`` raises
    ``ValueError``, and one whose mask is not an integer ``TypeError``.
    ``theta`` must have ``n_theta`` entries and be finite, or ``ValueError``
    is raised.  So must ``b = W + S theta`` be finite, with one exception: a
    ``+inf`` bound cannot be violated, so a query accepted at the empty set
    may carry one.  The result's ``active_set`` is an :class:`ActiveSet`,
    so it compares equal to a ``warm`` set of the same rows, an ``int`` or
    an ``ActiveSet``.

    ``stats.wall_time`` covers the whole call, result construction included.
    """
    t0 = time.perf_counter()
    shift, b = _rhs(qp, theta)
    tol = tol if tol is not None else Tolerances.for_qp(qp)
    stats = SolveStats()
    mask = 0 if warm is None else _caller_mask(qp, warm, "warm")
    found = _search(qp, b, mask, tol, stats)
    result = _result(qp, shift, stats, *found)
    stats.wall_time = time.perf_counter() - t0
    return result


def _search(qp: LiftedQP, b: np.ndarray, mask: int, tol: Tolerances, stats: SolveStats) -> tuple:
    """The loop of :func:`solve` from warm ``mask``.

    A rejected candidate's first child, its ``remove`` row taken out if it
    has one and else its ``add`` row put in (:func:`_evaluate`), is the next
    candidate and carries its row list, the parent's with that one row
    changed.  Its other children wait in one frame (:func:`_siblings`) on a
    stack that yields them one per pop, in the order of pushing every child;
    the frame holds the candidate's multipliers and slack and forms its
    lists only when it is first advanced.  The candidate order
    (:func:`iter_candidate_masks`) is the frame under them all, entered when
    the stack runs dry.  A candidate from a frame gets its row list from its
    mask.

    The one ray test runs at the first rank-deficient candidate (a ray's rows
    are linearly dependent), whose rows it searches first, or after
    ``min(n_z, max_kkt_solves)`` KKT solves, where it searches all rows,
    whichever comes first.  An infeasible query runs the candidate order dry
    only after that test: with ``p >= n_z`` the ``p`` singletons alone spend
    ``n_z`` solves, and otherwise the full row set is a candidate whose rows
    are dependent.  So the exhausted order returns the test's ray and runs
    no second test.

    One ``np.errstate`` ignores the flags of a NaN factor or solve from the
    first candidate that can reach LAPACK (a non-empty one, or the empty one
    before a ray test at ``ray_at`` 0) to the end of the query, so a query
    accepted at the empty candidate enters none.  ``b`` is checked to be
    finite (:func:`_check_bounds`) as the guard is entered; before that, the
    empty candidate rejects a NaN or ``-inf`` bound by itself, and its
    children, all non-empty, never reach the evaluator.

    Returns ``(OPTIMAL, mask, z, lam_A)``, ``(INFEASIBLE, 0, None, None, ray)``
    or ``(BUDGET_EXHAUSTED,)``.
    """
    n_z, p = qp.Y.shape
    cap = n_z if n_z < p else p
    budget, low = tol.max_kkt_solves, -tol.tol_violation
    visited = set()
    licq = []
    frames = []
    if mask.bit_count() > cap:
        mask = 0  # oversized: rank deficient
    rows = _mask_indices(mask)
    ray_at = n_z if n_z < budget else budget  # KKT solves before the one ray test
    ray = guard = fallback = None
    try:
        while True:
            if mask is None:
                if not frames:
                    if fallback is not None:
                        return SolveStatus.INFEASIBLE, 0, None, None, ray
                    fallback = iter_candidate_masks(p, cap)
                    frames.append(fallback)
                mask = next(frames[-1], None)
                if mask is None:
                    frames.pop()
                    continue
                rows = None
            if mask in visited:
                mask = None
                continue
            visited.add(mask)
            if licq and any(l & mask == l for l in licq):
                mask = None
                continue

            stats.candidates_visited += 1
            if mask:
                stats.kkt_solves += 1
            if guard is None and (mask or ray_at == 0):
                _check_bounds(b)
                guard = np.errstate(all="ignore")
                guard.__enter__()
            if rows is None:
                rows = _mask_indices(mask)
            out = _evaluate(qp, rows, b, tol)
            if out is None:
                stats.licq_failures += 1
                # mask contains no known violator (filtered above); keep only
                # inclusion-minimal rank-deficient candidates.
                licq = [l for l in licq if mask & l != mask] + [mask]
                remove = add = None
            else:
                z, lam_A, slack, remove, add = out
                if z is not None:
                    return SolveStatus.OPTIMAL, mask, z, lam_A
            if ray_at is not None and (out is None or stats.kkt_solves >= ray_at):
                ray_at = None  # one ray test per query
                ray = _farkas_ray(qp, b, mask if out is None else 0)
                if ray is not None:
                    return SolveStatus.INFEASIBLE, 0, None, None, ray
            if stats.kkt_solves >= budget:
                return (SolveStatus.BUDGET_EXHAUSTED,)

            # The children: removals by increasing multiplier, then additions
            # by increasing slack below ``cap`` rows, which share one
            # cardinality (an active row's is the candidate itself, visited).
            # The worst is the next candidate and the rest are deferred.
            if remove is not None:
                frames.append(_siblings(mask, lam_A, slack, low, cap))
                rows.remove(remove)
                mask ^= 1 << remove
            elif add is not None and mask.bit_count() < cap:
                frames.append(_siblings(mask, lam_A, slack, low, cap))
                insort(rows, add)
                mask |= 1 << add
            else:
                mask = None
    finally:
        if guard is not None:
            guard.__exit__(None, None, None)


def _siblings(mask: int, lam_A: np.ndarray, slack: np.ndarray, low: float, cap: int):
    """The deferred children of a rejected ``mask``, one per ``next``, less
    the first child, which the chain took: the rows of ``mask`` with a
    multiplier below ``low`` removed, by increasing multiplier, then, while
    ``mask`` has fewer than ``cap`` rows, the rows with a slack below ``low``
    added, by increasing slack, ties to the lower index.  The heads of these
    lists are the ``remove`` and ``add`` rows that :func:`_evaluate`
    returned.  The frame keeps only ``mask``, ``lam_A`` and ``slack`` and
    forms each list only when it is advanced that far."""
    rows = _mask_indices(mask)
    lam = lam_A.tolist()
    # Stable sorts of ascending rows: ties stay on the lower index.
    negative = sorted((i for i, v in enumerate(lam) if v < low), key=lam.__getitem__)
    for i in negative[1:]:
        yield mask & ~(1 << rows[i])
    if mask.bit_count() < cap:
        violated = (slack < low).nonzero()[0]
        violated = violated[slack.take(violated).argsort(kind="stable")].tolist()
        for k in violated[0 if negative else 1:]:
            yield mask | 1 << k


def _farkas_ray(qp: LiftedQP, b: np.ndarray, trigger: int):
    """A Farkas ray of ``G z <= b`` from the cached ``K``, or ``None``.

    ``G^T y = 0`` holds exactly when ``y^T K y = |G^T y|^2_{H^{-1}}`` is zero,
    so ``y >= 0`` minimizing ``y^T K y + (b^T y + 1)^2``, that is
    ``y^T (K + b b^T) y + 2 b^T y``, reaches zero exactly when ``y`` is a ray.
    A ``b`` that dwarfs ``K`` makes ``K + b b^T`` ill-conditioned and the ray
    too inaccurate to pass, so both tries run on ``s b`` with
    ``s = k / max|b|`` when ``0 < k < max|b|``, where ``k = sqrt(max diag K)``
    is the QP's ``K_scale``; ``s`` times a ray of ``s b`` is a ray of ``b``.
    The first try is on the rows ``A`` of ``trigger``, the rank-deficient
    candidate that started the test.  On a minimal dependent set the
    minimizer is the direct solve of ``C = K_AA + b_A b_A^T``, ``y_A = -v /
    (b_A^T v)`` for the null vector ``v`` of ``K_AA``, kept when every entry
    is positive; otherwise (a singular ``C`` solves to NaN) :func:`_nnls`
    runs on ``C``.  When that gives no ray, or the test was started by the
    KKT-solve count (``trigger`` 0), :func:`_nnls` runs on all rows.  Each
    ray is judged by :func:`check_farkas` on ``G`` and the caller's ``b``,
    not by the objective, whose size scales with ``H^{-1}``.
    """
    b_max = np.abs(b).max(initial=0.0)
    s = qp.K_scale / b_max if 0.0 < qp.K_scale < b_max else 1.0
    bs = s * b
    if trigger:
        rows = np.array(_mask_indices(trigger))
        bA = bs[rows]
        C = qp.K[np.ix_(rows, rows)] + np.outer(bA, bA)
        yA = _solve(C, -bA)
        if not np.all(yA > 0.0):
            yA = _nnls(C, -bA)
        y = np.zeros(qp.p_tilde)
        y[rows] = s * yA
        if _farkas_holds(qp.G, b, y, qp.G_max):
            return y
    y = s * _nnls(qp.K + np.outer(bs, bs), -bs)
    return y if _farkas_holds(qp.G, b, y, qp.G_max) else None


def _nnls(C: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``y >= 0`` minimizing ``y^T C y - 2 d^T y`` for a symmetric semidefinite ``C``.

    This is the Lawson-Hanson (1974) active-set method on the normal
    equations ``C = A^T A``, ``d = A^T t`` of ``min |A y - t|`` (the fast
    NNLS of Bro and de Jong, J. Chemometrics 11, 1997).  Each step makes
    passive the variable with the largest gradient ``d - C y``, if that
    exceeds its own rounding, and solves ``C_PP s = d_P`` on the passive set
    ``P``, stepping back along the segment to ``s`` while ``s`` has a
    nonpositive entry.  The passive columns of ``A`` stay linearly
    independent, so ``C_PP`` stays nonsingular; should a dependent column
    enter all the same, its solve reads NaN (:func:`_solve`) and the last
    iterate is returned.
    """
    n = len(d)
    # The rounding of the gradient d - C y, entry by entry.
    absC, err = np.abs(C), 10.0 * n * np.finfo(float).eps
    P = np.zeros(n, dtype=bool)
    y = np.zeros(n)
    for _ in range(3 * n):
        w = np.where(P, -np.inf, d - C @ y - err * (np.abs(d) + absC @ y))
        j = int(w.argmax())
        if w[j] <= 0.0:
            break
        P[j] = True
        while True:
            idx = P.nonzero()[0]
            if not idx.size:
                return y  # the step back emptied P (an overflowed C): keep the last iterate
            s = _solve(C[np.ix_(idx, idx)], d[idx])
            if s[0] != s[0]:
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
    ``0 = (G^T y)^T z = y^T G z <= b^T y < 0``.  ``G^T y`` is formed on the
    rows where ``y > 0``, but the scale is the whole of ``G``: a ray on a zero
    row ``0 <= b_k < 0`` may carry rounding-level weight on other rows.
    """
    G = np.asarray(G, float)
    return _farkas_holds(G, b, y, np.abs(G).max(initial=0.0))


def _farkas_holds(G: np.ndarray, b, y, G_max: float) -> bool:
    """:func:`check_farkas` with the scale ``max|G|`` given, as the search
    passes the one its QP cached (``LiftedQP.G_max``)."""
    b, y = np.asarray(b, float), np.asarray(y, float)
    if y.shape != b.shape or np.any(y < 0.0):
        return False
    gty = np.abs(G[y > 0.0].T @ y[y > 0.0]).max(initial=0.0)
    return bool(gty <= 1e-9 * G_max * y.sum() and b @ y <= -1.0 + 1e-9)


def kkt_residuals(qp: LiftedQP, result: SolveResult, theta) -> dict:
    """Certificate bundle of an optimal result.

    Returns stationarity norm, the worst active-row equality error, and the
    minimum slack and multiplier.  Raises ``ValueError`` on a result without
    a minimizer or multipliers: an ``INFEASIBLE`` or ``BUDGET_EXHAUSTED``
    result, or an optimal one whose caller dropped ``lam``, and on a
    ``theta`` that is not finite, not of length ``n_theta`` or too large.
    """
    if result.z_star is None or result.lam is None:
        raise ValueError(f"{result.status.value} result carries no certificate: "
                         "it has no minimizer or no multipliers")
    b = _rhs(qp, theta)[1]
    _check_bounds(b)
    z = result.z_star
    rows = result.active_set.indices()
    GA = qp.G[rows]
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


@np.errstate(all="ignore")  # the NNLS and the KKT solve may meet a singular block
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
    Raises ``ValueError`` when the input set is not sufficient, or when
    ``theta`` is not finite, not of length ``n_theta`` or too large.
    """
    b = _rhs(qp, theta)[1]
    _check_bounds(b)
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
            mask = ActiveSet.from_indices(rows[mu > 0])

    # Verify the reduced candidate actually certifies the minimizer, with a
    # band ten times the search's default.
    out = _evaluate(qp, _mask_indices(mask), b, Tolerances(tol_violation=1e-8 * qp.bound_scale))
    if out is None:
        raise ValueError("reduction failed to reach a rank-complete candidate")
    if out[0] is None:
        raise ValueError("candidate set is not sufficient")
    return ActiveSet(mask)
