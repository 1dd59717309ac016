"""Boundary-controlled Timoshenko beam: spectral model, discretization, benchmark.

The beam state has four components over the unit interval: shear displacement,
momentum, angular displacement and angular momentum, coupled through first
derivatives and a zeroth-order skew pair.  One end is clamped, the other is
actuated by a force and a torque.  A Galerkin projection onto shifted
Legendre combinations that satisfy the homogeneous boundary conditions (plus
one high-order monomial per actuated component to carry boundary values)
yields a lossless finite-dimensional model; the Cayley transform maps it to a
discrete-time pair with spectrum on the unit circle.  A finite-difference
model on a fine grid serves as the independent validation plant.  It is
lossless too: in energy-weighted coordinates its generator is skew, so one
singular value decomposition splits it into planar modes, and the exact step
under a held input rotates each mode by a fixed angle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb, isfinite

import numpy as np
from numpy.polynomial import polynomial as npoly

from .problem import PlantModel, ProblemDefinition, StageConstraints, StageWeights

__all__ = [
    "BeamParams",
    "Basis",
    "GalerkinSystem",
    "DiscretePlant",
    "FDPlant",
    "BeamBenchmark",
    "legendre_shifted",
    "shifted_legendre_coefficients",
    "build_basis",
    "assemble",
    "cayley_discretize",
    "make_benchmark",
    "project_initial_condition",
    "make_fd_plant",
    "initial_grid_state",
    "fd_plant_step",
    "fd_energy",
]


@dataclass
class BeamParams:
    """Physical coefficients and discretization sizes.

    ``n_basis`` counts basis functions per component; ``m_boundary`` is the
    exponent of the extra monomial carrying nonzero boundary values in the
    displacement components.
    """

    rho: float = 1.0
    I_rho: float = 1.0
    EI: float = 1.0
    K: float = 1.0
    n_basis: int = 9
    m_boundary: int = 12


def shifted_legendre_coefficients(k: int) -> np.ndarray:
    """Power-basis coefficients (low to high) of the shifted Legendre polynomial on [0, 1]."""
    c = np.zeros(k + 1)
    for m in range(k + 1):
        c[m] = (-1) ** (k + m) * comb(k, m) * comb(k + m, m)
    return c


def legendre_shifted(k: int, xi) -> np.ndarray:
    """Shifted Legendre polynomial L_k evaluated at xi in [0, 1]."""
    return npoly.polyval(np.asarray(xi, float), shifted_legendre_coefficients(k))


def _poly_mean(c: np.ndarray) -> float:
    """Exact integral of the polynomial over [0, 1]."""
    return float(sum(c[m] / (m + 1) for m in range(len(c))))


def _block_diag(blocks) -> np.ndarray:
    """Dense matrix with the 2-D ``blocks`` along its diagonal."""
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _add_coeffs(a: np.ndarray, b: np.ndarray, sign: float) -> np.ndarray:
    n = max(len(a), len(b))
    out = np.zeros(n)
    out[: len(a)] += a
    out[: len(b)] += sign * b
    return out


@dataclass
class Basis:
    """Polynomial trial/test functions of the four components.

    ``coeffs[c]`` lists power-basis coefficient arrays.  The displacement
    components (0 and 2) use differences of neighbouring Legendre polynomials,
    which vanish at the actuated end, plus one boundary monomial as the last
    member; the momentum components (1 and 3) use sums, which vanish at the
    clamped end.  ``means[c]`` holds the exact spatial means.
    """

    coeffs: list
    means: list

    @property
    def sizes(self) -> list:
        return [len(fns) for fns in self.coeffs]

    @property
    def n_state(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> list:
        off = [0]
        for s in self.sizes:
            off.append(off[-1] + s)
        return off

    def eval_component(self, component: int, xi) -> np.ndarray:
        """Matrix of basis values, one column per member."""
        xi = np.asarray(xi, float)
        return np.column_stack([npoly.polyval(xi, c) for c in self.coeffs[component]])

    def reconstruct(self, component: int, alpha_c: np.ndarray, xi) -> np.ndarray:
        return self.eval_component(component, xi) @ np.asarray(alpha_c, float)


def build_basis(params: BeamParams) -> Basis:
    """Basis of ``params.n_basis`` members per component; raises ``ValueError`` below 1."""
    n = params.n_basis
    if n < 1:
        raise ValueError(f"n_basis = {n} must be at least 1")
    m = params.m_boundary
    leg = [shifted_legendre_coefficients(k) for k in range(n + 1)]
    boundary = np.zeros(m + 1)
    boundary[m] = 1.0
    diff = [_add_coeffs(leg[k], leg[k + 1], -1.0) for k in range(n - 1)] + [boundary]
    summ = [_add_coeffs(leg[k], leg[k + 1], +1.0) for k in range(n)]
    coeffs = [diff, summ, [c.copy() for c in diff], [c.copy() for c in summ]]
    means = [np.array([_poly_mean(c) for c in fns]) for fns in coeffs]
    return Basis(coeffs=coeffs, means=means)


@dataclass
class GalerkinSystem:
    """Semi-discrete beam model ``M_mass alpha' = K_stiff alpha + B_in u``."""

    M_mass: np.ndarray
    K_stiff: np.ndarray
    B_in: np.ndarray
    basis: Basis
    params: BeamParams

    @property
    def n_state(self) -> int:
        return self.M_mass.shape[0]

    @property
    def component_slices(self) -> list:
        off = self.basis.offsets
        return [slice(off[c], off[c + 1]) for c in range(4)]

    def generator(self) -> np.ndarray:
        """State matrix ``M_mass^{-1} K_stiff`` of the first-order form."""
        return np.linalg.solve(self.M_mass, self.K_stiff)

    def mean_row(self, component: int) -> np.ndarray:
        """Row vector extracting the spatial mean of one component from the state."""
        row = np.zeros(self.n_state)
        row[self.component_slices[component]] = self.basis.means[component]
        return row


def assemble(params: BeamParams | None = None) -> GalerkinSystem:
    """Galerkin projection of the beam equations onto the polynomial basis.

    The derivative terms of the actuated components are integrated by parts,
    which moves the boundary force/torque into the input matrix and couples
    the components through exact polynomial quadrature.  With matching
    physical coefficients the resulting generator is lossless: its spectrum is
    purely imaginary.
    """
    params = params if params is not None else BeamParams()
    basis = build_basis(params)
    max_deg = max(max(len(c) - 1 for c in fns) for fns in basis.coeffs)
    # One-dimensional Gauss nodes exact for products of two basis members.
    nq = max_deg + 1
    x_g, w_g = np.polynomial.legendre.leggauss(nq)
    x_q = 0.5 * (x_g + 1.0)
    w_q = 0.5 * w_g

    vals = [basis.eval_component(c, x_q) for c in range(4)]
    ders = [
        np.column_stack([npoly.polyval(x_q, npoly.polyder(cf)) for cf in basis.coeffs[c]])
        for c in range(4)
    ]
    end = [np.array([npoly.polyval(1.0, cf) for cf in basis.coeffs[c]]) for c in range(4)]

    def gram(Fa, Fb):
        # entries <fb_k, fa_m>: rows are test functions, columns trial.
        return Fa.T @ (w_q[:, None] * Fb)

    M_blocks = [gram(vals[c], vals[c]) for c in range(4)]
    n = [b.shape[1] for b in vals]
    off = basis.offsets
    n_state = sum(n)

    K = np.zeros((n_state, n_state))
    rho, I_rho, EI, Kc = params.rho, params.I_rho, params.EI, params.K

    def put(r, c, block):
        K[off[r] : off[r + 1], off[c] : off[c + 1]] = block

    # displacement rates driven by momenta derivatives, plus the zeroth-order
    # skew pair between shear displacement and angular momentum
    put(0, 1, gram(vals[0], ders[1]) / rho)
    put(0, 3, -gram(vals[0], vals[3]) / I_rho)
    put(2, 3, gram(vals[2], ders[3]) / I_rho)
    # momentum rates: integrated by parts against the displacement components
    put(1, 0, -Kc * gram(ders[1], vals[0]))
    put(3, 2, -EI * gram(ders[3], vals[2]))
    put(3, 0, Kc * gram(vals[3], vals[0]))

    B = np.zeros((n_state, 2))
    B[off[1] : off[2], 0] = end[1]  # boundary force enters the momentum equations
    B[off[3] : off[4], 1] = end[3]  # boundary torque enters the angular momentum equations

    M_mass = _block_diag(M_blocks)
    return GalerkinSystem(M_mass=M_mass, K_stiff=K, B_in=B, basis=basis, params=params)


@dataclass
class DiscretePlant:
    """Discrete-time pair from the Cayley transform at step ``h``."""

    A_d: np.ndarray
    B_d: np.ndarray
    h: float


def cayley_discretize(g: GalerkinSystem, h: float) -> DiscretePlant:
    """Cayley transform of the semi-discrete model.

    ``A_d = (sigma + A0)(sigma - A0)^{-1}`` with ``sigma = 2/h`` preserves the
    unit-disc structure exactly: a lossless generator maps onto the unit
    circle.  The discrete input is the continuous one scaled by ``sqrt(h)``.
    Raises ``ValueError`` unless ``h`` is positive and finite.
    """
    if not (isfinite(h) and h > 0):
        raise ValueError(f"sampling interval h = {h} must be positive and finite")
    A0 = g.generator()
    sigma = 2.0 / h
    n = A0.shape[0]
    R = sigma * np.eye(n) - A0
    try:
        A_d = np.linalg.solve(R, sigma * np.eye(n) + A0)
        B_d = np.sqrt(2.0 * sigma) * np.linalg.solve(R, np.linalg.solve(g.M_mass, g.B_in))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"resolvent singular at sigma = {sigma}") from exc
    return DiscretePlant(A_d=A_d, B_d=B_d, h=h)


# The benchmark design: stage weights on the state, the input and the input
# rate, the symmetric input box, and the bounds on the spatial means.
Q_WEIGHT = 100.0
R_WEIGHT = 1.0
V_WEIGHT = 0.1
U_MAX = 0.5
X1_MAX = 0.45
X4_MIN = -0.3


def _benchmark_problem(
    g: GalerkinSystem,
    plant: DiscretePlant,
    N: int,
    bound_scaling: str = "physical",
) -> ProblemDefinition:
    """Receding-horizon problem for the beam ``g`` discretized as ``plant``.

    The state weight is the mass-weighted Gram matrix scaled by ``h`` times
    ``Q_WEIGHT`` so the stage sum approximates the continuous-time integral of
    the squared spatial norm; the input-increment weight ``V_WEIGHT / h^2``
    approximates the integral of the squared input rate.  Stage 0 carries the
    input box ``|u| <= U_MAX`` only; later stages add the bounds ``X1_MAX``
    on the spatial mean of the shear displacement (above) and ``X4_MIN`` on
    that of the angular momentum (below).  No terminal weight or constraint
    is added.

    ``bound_scaling`` fixes the convention translating physical input bounds
    to the scaled discrete inputs: ``"physical"`` multiplies by ``sqrt(h)``
    (discrete inputs approximate ``sqrt(h)`` times the physical signal);
    ``"reciprocal"`` divides instead.
    """
    h = plant.h
    n = g.n_state
    N = int(N)

    Q = h * Q_WEIGHT * 0.5 * (g.M_mass + g.M_mass.T)
    R = R_WEIGHT * np.eye(2)
    V = (V_WEIGHT / h**2) * np.eye(2)
    weights = StageWeights(
        Q=[Q.copy() for _ in range(N)],
        R=[R.copy() for _ in range(N)],
        M=[np.zeros((n, 2)) for _ in range(N)],
        V=[V.copy() for _ in range(N)] + [np.zeros((2, 2))],
        P=np.zeros((n, n)),
    )

    if bound_scaling == "physical":
        scale = np.sqrt(h)
    elif bound_scaling == "reciprocal":
        scale = 1.0 / np.sqrt(h)
    else:
        raise ValueError(f"unknown bound_scaling {bound_scaling!r}")
    box_E = np.vstack([np.eye(2), -np.eye(2)])
    box_d = np.full(4, scale * U_MAX)
    mean_x1 = g.mean_row(0)
    mean_x4 = g.mean_row(3)

    d, calE, calF, E = [], [], [], []
    for k in range(N):
        if k == 0:
            d.append(box_d.copy())
            calE.append(np.zeros((4, n)))
            calF.append(np.zeros((4, 2)))
            E.append(box_E.copy())
        else:
            d.append(np.concatenate([box_d, [X1_MAX, -X4_MIN]]))
            calE.append(np.vstack([np.zeros((4, n)), mean_x1, -mean_x4]))
            calF.append(np.zeros((6, 2)))
            E.append(np.vstack([box_E, np.zeros((2, 2))]))
    constraints = StageConstraints(
        d=d, calE=calE, calF=calF, E=E,
        d_hat=np.zeros(0), E_hat=np.zeros((0, n)), F_hat=np.zeros((0, 2)),
    )
    return ProblemDefinition(
        prediction_model=PlantModel(plant.A_d, plant.B_d),
        weights=weights,
        constraints=constraints,
        horizon=N,
    )


# Benchmark initial condition, one profile per component: momenta excited,
# displacements at rest.
_INITIAL_PROFILES = (
    lambda xi: np.zeros_like(xi),
    lambda xi: np.sin(np.pi * xi / 2.0),
    lambda xi: np.cos(np.pi * xi / 2.0),
    lambda xi: np.zeros_like(xi),
)
_PROJECTION_NODES = 64  # Gauss nodes of the initial-condition projection


def project_initial_condition(g: GalerkinSystem):
    """Componentwise least-squares projection of the initial profiles onto the basis.

    Returns ``(alpha, errors)`` with the quadrature approximation of the
    spatial norm of each residual.
    """
    x_g, w_g = np.polynomial.legendre.leggauss(_PROJECTION_NODES)
    x_q = 0.5 * (x_g + 1.0)
    w_q = 0.5 * w_g
    alpha = np.zeros(g.n_state)
    errors = []
    for c in range(4):
        f = _INITIAL_PROFILES[c](x_q)
        Phi = g.basis.eval_component(c, x_q)
        Mb = Phi.T @ (w_q[:, None] * Phi)
        rhs = Phi.T @ (w_q * f)
        ac = np.linalg.solve(Mb, rhs)
        alpha[g.component_slices[c]] = ac
        res = f - Phi @ ac
        errors.append(float(np.sqrt(np.sum(w_q * res**2))))
    return alpha, errors


# ---------------------------------------------------------------------------
# Finite-difference validation plant.
# ---------------------------------------------------------------------------

@dataclass
class FDPlant:
    """Semi-discrete finite-difference beam on a uniform grid.

    ``A_sys``/``B_sys`` give the affine right-hand side on the grid: the four
    boundary entries are pinned (zero rows and columns), and their prescribed
    values act through the inputs.  ``observer`` maps a grid state to the
    Galerkin coefficient vector by trapezoidal least-squares projection.

    The plant state is ``[alpha; beta; u_held]``: the modal coordinates of
    the free displacement and momentum entries (see :func:`fd_plant_step`)
    and the physical input held over the last interval, which fixes the
    pinned entries.  :meth:`from_grid` and :meth:`to_grid` convert between
    plant and grid states, and :meth:`observe` maps a plant state to the
    Galerkin coefficients.  The modal form is built on first use; ``zoh``
    caches the step operators per interval ``h``.
    """

    A_sys: np.ndarray
    B_sys: np.ndarray
    grid: np.ndarray
    trapz_w: np.ndarray
    observer: np.ndarray
    params: BeamParams
    zoh: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n_grid(self) -> int:
        return len(self.grid)

    def component(self, y: np.ndarray, c: int) -> np.ndarray:
        """Component ``c`` of a grid state, or of each row of a block of them."""
        n = self.n_grid
        return y[..., c * n : (c + 1) * n]

    def mean(self, y: np.ndarray, c: int):
        """Trapezoidal mean of component ``c`` of a grid state, or of each row of a block."""
        return self.component(y, c) @ self.trapz_w

    def enforce_bc(self, y: np.ndarray, u_phys: np.ndarray) -> np.ndarray:
        """Pin the algebraic boundary entries to their prescribed values.

        ``y`` may be a block of grid states, one per row, with one input per row of ``u_phys``.
        """
        n = self.n_grid
        p = self.params
        u = np.asarray(u_phys, float)
        y = np.array(y, float, copy=True)
        y[..., 0 * n + n - 1] = u[..., 0] / p.K  # shear displacement at the actuated end
        y[..., 1 * n + 0] = 0.0                  # momentum at the clamped end
        y[..., 2 * n + n - 1] = u[..., 1] / p.EI # angular displacement at the actuated end
        y[..., 3 * n + 0] = 0.0                  # angular momentum at the clamped end
        return y

    @cached_property
    def _modes(self) -> "_ModalForm":
        return _modal_form(self)

    @cached_property
    def _observe_map(self) -> np.ndarray:
        # to_grid is linear, so its image of the identity is its matrix.
        return self.observer @ self.to_grid(np.eye(2 * len(self._modes.sigma) + 2)).T

    def observe(self, state: np.ndarray) -> np.ndarray:
        """Galerkin coefficients of a plant state, as one matrix-vector product."""
        return self._observe_map @ state

    def to_grid(self, states: np.ndarray) -> np.ndarray:
        """Grid state of a plant state, or of a block of them (one per row)."""
        md = self._modes
        s = np.asarray(states, float)
        m = len(md.sigma)
        y = np.zeros(s.shape[:-1] + (4 * self.n_grid,))
        y[..., md.idx_a] = s[..., :m] @ md.grid_a.T
        y[..., md.idx_b] = s[..., m : 2 * m] @ md.grid_b.T
        return self.enforce_bc(y, s[..., 2 * m :])

    def from_grid(self, y: np.ndarray) -> np.ndarray:
        """Plant state of a grid state whose pinned entries obey :meth:`enforce_bc`."""
        md = self._modes
        e = _energy_weights(self) * y
        n, p = self.n_grid, self.params
        return np.concatenate([md.grid_a.T @ e[md.idx_a], md.grid_b.T @ e[md.idx_b],
                               [p.K * y[n - 1], p.EI * y[3 * n - 1]]])


@dataclass(frozen=True)
class _ModalForm:
    """Planar modes of the free finite-difference entries.

    With ``E`` the energy weights, ``a = E^{1/2} y[idx_a]`` (displacements)
    and ``b = E^{1/2} y[idx_b]`` (momenta) obey ``a' = P b`` and
    ``b' = -P^T a + G u``.  With ``P = L diag(sigma) R^T``, the modal
    coordinates are ``alpha = L^T a`` and ``beta = R^T b``.
    """

    idx_a: np.ndarray
    idx_b: np.ndarray
    grid_a: np.ndarray  # E^{-1/2} L: alpha -> y[idx_a]
    grid_b: np.ndarray  # E^{-1/2} R: beta -> y[idx_b]
    sigma: np.ndarray
    gain: np.ndarray    # R^T G: the input's rate on beta


_SKEW_TOL = 1e-12  # relative skew residual of a lossless energy-weighted generator


def _energy_weights(fd: FDPlant) -> np.ndarray:
    """Per-entry weights of the grid state in twice :func:`fd_energy`."""
    p, w = fd.params, fd.trapz_w
    return np.concatenate([p.K * w, w / p.rho, p.EI * w, w / p.I_rho])


def _modal_form(fd: FDPlant) -> _ModalForm:
    """Modes of ``fd``; ``ValueError`` unless its generator has the lossless form.

    The pinned entries must be decoupled from the rest, the inputs must drive
    the momenta only, and the energy-weighted generator must read
    ``[[0, P], [-P^T, 0]]``.  The last holds because :func:`_diff_matrix` is
    summation-by-parts against the trapezoidal weights.
    """
    n = fd.n_grid
    pinned = [n - 1, n, 3 * n - 1, 3 * n]
    idx_a = np.r_[0 : n - 1, 2 * n : 3 * n - 1]
    idx_b = np.r_[n + 1 : 2 * n, 3 * n + 1 : 4 * n]
    free = np.r_[idx_a, idx_b]
    m = len(idx_a)
    root = np.sqrt(_energy_weights(fd)[free])
    A = root[:, None] * fd.A_sys[np.ix_(free, free)] / root
    B = root[:, None] * fd.B_sys[free]
    if np.any(fd.A_sys[pinned]) or np.any(fd.A_sys[:, pinned]) or np.any(fd.B_sys[pinned]):
        raise ValueError("the pinned boundary entries of the finite-difference model are coupled")
    if np.any(B[:m]):
        raise ValueError("the finite-difference inputs drive a displacement entry")
    P = A[:m, m:]
    skew = max(np.abs(A[:m, :m]).max(), np.abs(A[m:, m:]).max(), np.abs(A[m:, :m] + P.T).max())
    if not skew <= _SKEW_TOL * np.abs(P).max():
        raise ValueError(f"the finite-difference generator is not lossless: energy-weighted "
                         f"skew residual {skew:.3g} against max |P| = {np.abs(P).max():.3g}")
    L, _, Rt = np.linalg.svd(P)
    L, sigma, R = _polish_svd(P, L, Rt.T)
    return _ModalForm(idx_a=idx_a, idx_b=idx_b, grid_a=L / root[:m, None],
                      grid_b=R / root[m:, None], sigma=sigma, gain=R.T @ B[m:])


_MAX_ANGLE = 1e-8  # largest first-order turn between two modes: its square is below eps


def _polish_svd(P: np.ndarray, L: np.ndarray, R: np.ndarray) -> tuple:
    """One correction step of the singular vectors ``L``, ``R`` of ``P``; returns ``L, sigma, R``.

    A float64 SVD leaves ``L^T P R`` off-diagonal by a few ulps of
    ``max(sigma)``, which the exact step would carry as a false coupling
    between modes.  The step makes ``L`` and ``R`` orthonormal again (one
    Newton-Schulz step), forms ``T = L^T P R`` in extended precision
    (``np.longdouble``; ``P`` has a few entries per row), and turns each pair
    of modes by the first-order angles that cancel ``T[i, j]`` and
    ``T[j, i]`` (Ogita and Aishima, 2020); ``sigma`` is the diagonal of
    ``T``.  A pair whose angle would exceed ``_MAX_ANGLE`` has (nearly)
    equal singular values, where first order does not hold; it is left as
    it is, and both of its modes turn at the same rate in the step.
    """
    eye = np.eye(len(L))
    L = L @ (1.5 * eye - 0.5 * (L.T @ L))
    R = R @ (1.5 * eye - 0.5 * (R.T @ R))
    ext = np.longdouble
    cols = np.argsort(P == 0, axis=1, kind="stable")[:, : np.count_nonzero(P, axis=1).max()]
    PR = (np.take_along_axis(P, cols, 1).astype(ext)[:, :, None] * R.astype(ext)[cols]).sum(1)
    T = (L.T.astype(ext) @ PR).astype(float)
    sigma = np.diag(T).copy()
    si, sj = sigma[:, None], sigma[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        F = (sj * T + si * T.T) / (sj**2 - si**2)
        G = (si * T + sj * T.T) / (sj**2 - si**2)
    apart = (np.abs(F) <= _MAX_ANGLE) & (np.abs(G) <= _MAX_ANGLE)
    return L + L @ np.where(apart, F, 0.0), sigma, R + R @ np.where(apart, G, 0.0)


def _zoh_rotation(md: _ModalForm, h: float) -> tuple:
    """Per-mode ``cos``, ``[sin; -sin]`` and stacked input gains of the exact step over ``h``."""
    t = md.sigma * h
    # (1 - cos t)/sigma and sin(t)/sigma, written without dividing by sigma
    vers = 0.5 * md.sigma * (h * np.sinc(t / (2.0 * np.pi))) ** 2
    sinc = h * np.sinc(t / np.pi)
    return (np.cos(t), np.stack([np.sin(t), -np.sin(t)]),
            np.vstack([vers[:, None] * md.gain, sinc[:, None] * md.gain]))


def _diff_matrix(n: int, delta: float) -> np.ndarray:
    """Central differences with first-order one-sided boundary rows.

    This closure is summation-by-parts against trapezoidal weights, so the
    semi-discrete model conserves the discrete energy under homogeneous
    boundary data.
    """
    D = np.zeros((n, n))
    for j in range(1, n - 1):
        D[j, j - 1] = -0.5 / delta
        D[j, j + 1] = 0.5 / delta
    D[0, 0] = -1.0 / delta
    D[0, 1] = 1.0 / delta
    D[-1, -2] = -1.0 / delta
    D[-1, -1] = 1.0 / delta
    return D


def make_fd_plant(g: GalerkinSystem, n_grid: int = 127) -> FDPlant:
    """Finite-difference plant on ``n_grid`` uniform points observed through ``g``'s basis.

    The momentum members vanish at the clamped-end node, so the trapezoidal
    projection has full rank only with more grid points than members per
    component; a coarser ``n_grid`` raises ``ValueError``.
    """
    min_grid = max(g.basis.sizes) + 1
    if n_grid < min_grid:
        raise ValueError(f"n_grid = {n_grid} is too coarse: projecting onto {min_grid - 1} "
                         f"basis functions per component needs at least {min_grid} grid points")
    params = g.params
    n = n_grid
    grid = np.linspace(0.0, 1.0, n)
    delta = grid[1] - grid[0]
    D = _diff_matrix(n, delta)
    I = np.eye(n)
    Z = np.zeros((n, n))
    rho, I_rho, EI, Kc = params.rho, params.I_rho, params.EI, params.K

    A = np.block([
        [Z, D / rho, Z, -I / I_rho],
        [Kc * D, Z, Z, Z],
        [Z, Z, Z, D / I_rho],
        [Kc * I, Z, EI * D, Z],
    ])
    B = np.zeros((4 * n, 2))
    # Columns of the prescribed boundary entries act through the inputs.
    i_x1_end = 0 * n + n - 1
    i_x2_0 = 1 * n + 0
    i_x3_end = 2 * n + n - 1
    i_x4_0 = 3 * n + 0
    B[:, 0] = A[:, i_x1_end] / Kc
    B[:, 1] = A[:, i_x3_end] / EI
    for col in (i_x1_end, i_x2_0, i_x3_end, i_x4_0):
        A[:, col] = 0.0
    for row in (i_x1_end, i_x2_0, i_x3_end, i_x4_0):
        A[row, :] = 0.0
        B[row, :] = 0.0

    w = np.full(n, delta)
    w[0] = w[-1] = delta / 2.0

    # Trapezoidal least-squares projection onto the polynomial basis.
    blocks = []
    for c in range(4):
        Phi = g.basis.eval_component(c, grid)
        N_mat = Phi.T @ (w[:, None] * Phi)
        blocks.append(np.linalg.solve(N_mat, Phi.T @ np.diag(w)))
    observer = _block_diag(blocks)
    return FDPlant(A_sys=A, B_sys=B, grid=grid, trapz_w=w, observer=observer, params=params)


def initial_grid_state(fd: FDPlant) -> np.ndarray:
    """The initial profiles on the grid, with the boundary entries pinned at rest."""
    y = np.concatenate([p(fd.grid) for p in _INITIAL_PROFILES])
    return fd.enforce_bc(y, np.zeros(2))


def fd_plant_step(fd: FDPlant, state: np.ndarray, u_phys, h: float) -> np.ndarray:
    """Advance a plant state by one sampling interval under a held input.

    The step is exact.  Mode ``i`` obeys ``alpha' = sigma beta`` and
    ``beta' = -sigma alpha + g u`` (see :class:`_ModalForm`), so over ``h``
    the pair rotates by ``sigma h`` about its rest point ``(g u / sigma, 0)``:
    ``alpha+ = cos alpha + sin beta + (1 - cos) g u / sigma`` and
    ``beta+ = cos beta - sin alpha + sin g u / sigma``.  That is O(n) work
    per step.  The operators are built on the first step at each ``h`` and
    cached in ``fd.zoh``.  The new state holds ``u_phys``, which pins the
    boundary entries of its grid state.
    """
    u = np.asarray(u_phys, float).reshape(2)
    rot = fd.zoh.get(h)
    if rot is None:
        rot = fd.zoh[h] = _zoh_rotation(fd._modes, h)
    cos, sin_pm, gain = rot
    ab = state[: 2 * len(cos)].reshape(2, -1)
    return np.concatenate([(cos * ab + sin_pm * ab[::-1]).ravel() + gain @ u, u])


def fd_energy(fd: FDPlant, y: np.ndarray) -> float:
    """Trapezoidal discretization of the beam energy of a grid state."""
    return float(0.5 * _energy_weights(fd) @ (y * y))


# ---------------------------------------------------------------------------
# Bundle tying the benchmark pieces together for the closed-loop driver.
# ---------------------------------------------------------------------------

@dataclass
class BeamBenchmark:
    """Everything one closed-loop run needs: beam model, plant, problem, initial state.

    ``bound_scaling`` records the input-bound convention the problem was
    built with, so a closed-loop run can reject a config that names the other.
    """

    galerkin: GalerkinSystem
    plant: DiscretePlant
    problem: ProblemDefinition
    x0: np.ndarray
    bound_scaling: str

    @property
    def params(self) -> BeamParams:
        return self.galerkin.params

    @property
    def h(self) -> float:
        return self.plant.h

    @property
    def u_scale(self) -> float:
        """Discrete input = ``u_scale`` * physical input."""
        return np.sqrt(self.plant.h)


def make_benchmark(params: BeamParams | None = None, N: int = 30, h: float = 2.0 ** -7,
                   bound_scaling: str = "physical") -> BeamBenchmark:
    """Assemble the beam, discretize it at step ``h`` and build the horizon-``N``
    problem under the input-bound convention ``bound_scaling`` (recorded on
    the result).  Raises ``ValueError`` unless ``N`` is at least 1."""
    if N < 1:
        raise ValueError(f"horizon N = {N} must be at least 1")
    g = assemble(params)
    plant = cayley_discretize(g, h)
    problem = _benchmark_problem(g, plant, N=N, bound_scaling=bound_scaling)
    x0, _errors = project_initial_condition(g)
    return BeamBenchmark(galerkin=g, plant=plant, problem=problem, x0=x0,
                         bound_scaling=bound_scaling)
