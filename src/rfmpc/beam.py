"""Boundary-controlled Timoshenko beam: spectral model, discretization, benchmark.

The beam state has four components over the unit interval: shear displacement,
momentum, angular displacement and angular momentum, coupled through first
derivatives and a zeroth-order skew pair.  All four coefficients (density,
rotational inertia, bending stiffness and shear stiffness) are 1, so the only
setting of the model is the number of basis members per component.  One end
is clamped, the other is actuated by a force and a torque.  A Galerkin
projection onto shifted Legendre combinations that satisfy the homogeneous
boundary conditions (plus one high-order monomial per actuated component to
carry boundary values) yields a lossless finite-dimensional model; the
Cayley transform at the fixed sampling interval ``SAMPLING_INTERVAL`` maps it
to a discrete-time pair with spectrum on the unit circle.  The members are
held as shifted Legendre coefficient vectors and evaluated through numpy's
Legendre series, which stay accurate at high degree, so the model stays
lossless with a well-conditioned mass matrix at 60 members per component.
A finite-difference model on a fine grid serves as the independent
validation plant.  It is lossless too: in energy-weighted
coordinates the block that couples its free displacements to its free momenta
is read straight off the difference matrix, one singular value decomposition
of that block splits the model into planar modes, and the exact step under a
held input rotates each mode by a fixed angle, computed once per plant.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import legendre as leg, polynomial as npoly

from .problem import PlantModel, ProblemDefinition, StageConstraints, StageWeights

__all__ = [
    "Basis",
    "GalerkinSystem",
    "DiscretePlant",
    "FDPlant",
    "BeamBenchmark",
    "build_basis",
    "assemble",
    "cayley_discretize",
    "make_benchmark",
    "project_initial_condition",
    "make_fd_plant",
    "initial_grid_state",
    "fd_plant_step",
]


# Exponent of the monomial that carries the nonzero boundary value of each
# displacement component.
M_BOUNDARY = 12


def _block_diag(blocks) -> np.ndarray:
    """Dense matrix with the 2-D ``blocks`` along its diagonal."""
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))))
    r = c = 0
    for b in blocks:
        out[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


@dataclass
class Basis:
    """Polynomial trial/test functions of the four components.

    ``coeffs[c]`` is a ``(deg + 1) x n_c`` matrix of shifted Legendre
    coefficients on [0, 1], one column per member: column ``j`` is the
    series ``sum_k C[k, j] P_k(2 xi - 1)``.  The displacement components
    (0 and 2) use differences ``L_k - L_{k+1}``, which vanish at the actuated
    end, plus the boundary monomial ``xi^M_BOUNDARY`` as the last member; the
    momentum components (1 and 3) use sums ``L_k + L_{k+1}``, which vanish
    at the clamped end (Shen, SIAM J. Sci. Comput. 15, 1994).  Row 0 of
    ``coeffs[c]`` holds the members' spatial means, since every ``L_k`` of
    degree ``k >= 1`` has mean 0.
    """

    coeffs: list

    @property
    def sizes(self) -> list:
        return [C.shape[1] for C in self.coeffs]

    @property
    def offsets(self) -> list:
        off = [0]
        for s in self.sizes:
            off.append(off[-1] + s)
        return off

    def eval_component(self, component: int, xi) -> np.ndarray:
        """Matrix of basis values, one column per member."""
        C = self.coeffs[component]
        return leg.legvander(2.0 * np.asarray(xi, float) - 1.0, C.shape[0] - 1) @ C

    def reconstruct(self, component: int, alpha_c: np.ndarray, xi) -> np.ndarray:
        return self.eval_component(component, xi) @ np.asarray(alpha_c, float)


def build_basis(n: int) -> Basis:
    """Basis of ``n`` members per component; raises ``ValueError`` below 1."""
    if n < 1:
        raise ValueError(f"n_basis = {n} must be at least 1")
    deg = max(n, M_BOUNDARY)
    eye = np.eye(deg + 1)
    # xi = (1 + t)/2, so xi^m is the m-th power of the series [1/2, 1/2] in t.
    boundary = np.pad(leg.poly2leg(npoly.polypow([0.5, 0.5], M_BOUNDARY)), (0, deg - M_BOUNDARY))
    diff = np.column_stack([eye[:, : n - 1] - eye[:, 1:n], boundary])
    summ = eye[:, :n] + eye[:, 1 : n + 1]
    return Basis(coeffs=[diff, summ, diff, summ])


@dataclass
class GalerkinSystem:
    """Semi-discrete beam model ``M_mass alpha' = K_stiff alpha + B_in u``, unit coefficients."""

    M_mass: np.ndarray
    K_stiff: np.ndarray
    B_in: np.ndarray
    basis: Basis

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
        row[self.component_slices[component]] = self.basis.coeffs[component][0]
        return row


def assemble(n_basis: int = 9) -> GalerkinSystem:
    """Galerkin projection of the beam equations onto ``n_basis`` members per component.

    The derivative terms of the actuated components are integrated by parts,
    which moves the boundary force/torque into the input matrix and couples
    the components through exact polynomial quadrature.  With the unit
    coefficients the resulting generator is lossless: its spectrum is purely
    imaginary.
    """
    basis = build_basis(n_basis)
    deg = basis.coeffs[0].shape[0] - 1
    # Gauss nodes on [-1, 1], the shifted Legendre variable t = 2 xi - 1:
    # exact for products of two basis members.
    t_g, w_g = leg.leggauss(deg + 1)
    w_q = 0.5 * w_g
    V = leg.legvander(t_g, deg)
    vals = [V @ C for C in basis.coeffs]
    ders = [V[:, :deg] @ leg.legder(C, scl=2.0) for C in basis.coeffs]
    end = [C.sum(axis=0) for C in basis.coeffs]  # P_k(1) = 1

    def gram(Fa, Fb):
        # entries <fb_k, fa_m>: rows are test functions, columns trial.
        return Fa.T @ (w_q[:, None] * Fb)

    M_blocks = [gram(vals[c], vals[c]) for c in range(4)]
    n = [b.shape[1] for b in vals]
    off = basis.offsets
    n_state = sum(n)

    K = np.zeros((n_state, n_state))

    def put(r, c, block):
        K[off[r] : off[r + 1], off[c] : off[c + 1]] = block

    # displacement rates driven by momenta derivatives, plus the zeroth-order
    # skew pair between shear displacement and angular momentum
    put(0, 1, gram(vals[0], ders[1]))
    put(0, 3, -gram(vals[0], vals[3]))
    put(2, 3, gram(vals[2], ders[3]))
    # momentum rates: integrated by parts against the displacement components
    put(1, 0, -gram(ders[1], vals[0]))
    put(3, 2, -gram(ders[3], vals[2]))
    put(3, 0, gram(vals[3], vals[0]))

    B = np.zeros((n_state, 2))
    B[off[1] : off[2], 0] = end[1]  # boundary force enters the momentum equations
    B[off[3] : off[4], 1] = end[3]  # boundary torque enters the angular momentum equations

    M_mass = _block_diag(M_blocks)
    return GalerkinSystem(M_mass=M_mass, K_stiff=K, B_in=B, basis=basis)


# The sampling interval of the discrete-time controller and of the plant step.
SAMPLING_INTERVAL = 2.0 ** -7


@dataclass
class DiscretePlant:
    """Discrete-time pair from the Cayley transform at ``SAMPLING_INTERVAL``."""

    A_d: np.ndarray
    B_d: np.ndarray


def cayley_discretize(g: GalerkinSystem) -> DiscretePlant:
    """Cayley transform of the semi-discrete model at ``h = SAMPLING_INTERVAL``.

    ``A_d = (sigma + A0)(sigma - A0)^{-1}`` with ``sigma = 2/h`` preserves the
    unit-disc structure exactly: a lossless generator maps onto the unit
    circle.  The discrete input is the continuous one scaled by ``sqrt(h)``.
    """
    A0 = g.generator()
    sigma = 2.0 / SAMPLING_INTERVAL
    n = A0.shape[0]
    R = sigma * np.eye(n) - A0
    try:
        A_d = np.linalg.solve(R, sigma * np.eye(n) + A0)
        B_d = np.sqrt(2.0 * sigma) * np.linalg.solve(R, np.linalg.solve(g.M_mass, g.B_in))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"resolvent singular at sigma = {sigma}") from exc
    return DiscretePlant(A_d=A_d, B_d=B_d)


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
    is added.  The stages share their blocks, which no caller writes in
    place: every ``Q[k]`` is one array, and so are the other weights and
    the blocks of stages 1 to ``N - 1``.

    ``bound_scaling`` fixes the convention translating physical input bounds
    to the scaled discrete inputs: ``"physical"`` multiplies by ``sqrt(h)``
    (discrete inputs approximate ``sqrt(h)`` times the physical signal);
    ``"reciprocal"`` divides instead.
    """
    h = SAMPLING_INTERVAL
    n = g.n_state
    N = int(N)

    Q = h * Q_WEIGHT * 0.5 * (g.M_mass + g.M_mass.T)
    R = R_WEIGHT * np.eye(2)
    V = (V_WEIGHT / h**2) * np.eye(2)
    weights = StageWeights(Q=[Q] * N, R=[R] * N, M=[np.zeros((n, 2))] * N,
                           V=[V] * N + [np.zeros((2, 2))], P=np.zeros((n, n)))

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

    first = (box_d, np.zeros((4, n)), np.zeros((4, 2)), box_E)
    later = (np.concatenate([box_d, [X1_MAX, -X4_MIN]]),
             np.vstack([np.zeros((4, n)), mean_x1, -mean_x4]),
             np.zeros((6, 2)),
             np.vstack([box_E, np.zeros((2, 2))]))
    d, calE, calF, E = zip(*[first] + [later] * (N - 1))
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
    """Semi-discrete finite-difference beam on a uniform grid, unit coefficients.

    A grid state stacks the four components on ``grid``.  Four boundary
    entries are pinned: the displacements at the actuated end equal the
    inputs, and the momenta at the clamped end are 0.  ``observer`` maps a
    grid state to the Galerkin coefficient vector by trapezoidal
    least-squares projection.

    The plant state is ``[alpha; beta; u_held]``: the modal coordinates of
    the free displacement and momentum entries (see :func:`fd_plant_step`)
    and the physical input held over the last interval, which fixes the
    pinned entries.  :meth:`from_grid` and :meth:`to_grid` convert between
    plant and grid states, :meth:`observe` maps a plant state to the
    Galerkin coefficients and :meth:`measure` to the spatial means and norm
    of its grid state.  The modal form is built from the grid on first use,
    and so are the step operators of :func:`fd_plant_step`.
    """

    grid: np.ndarray
    trapz_w: np.ndarray
    observer: np.ndarray

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

        The displacements at the actuated end equal the force and the torque
        (unit stiffnesses); the momenta at the clamped end are 0.  ``y`` may
        be a block of grid states, one per row, with one input per row of
        ``u_phys``.
        """
        n = self.n_grid
        u = np.asarray(u_phys, float)
        y = np.array(y, float, copy=True)
        y[..., 0 * n + n - 1] = u[..., 0]  # shear displacement at the actuated end
        y[..., 1 * n + 0] = 0.0            # momentum at the clamped end
        y[..., 2 * n + n - 1] = u[..., 1]  # angular displacement at the actuated end
        y[..., 3 * n + 0] = 0.0            # angular momentum at the clamped end
        return y

    @cached_property
    def _modes(self) -> "_ModalForm":
        return _modal_form(self)

    @cached_property
    def _zoh(self) -> tuple:
        return _zoh_rotation(self._modes)

    @cached_property
    def _maps(self) -> tuple:
        """Matrices of :meth:`observe` and of the means of components 1 and 4."""
        # to_grid is linear, so its image of the identity is its matrix, transposed.
        Y = self.to_grid(np.eye(2 * len(self._modes.sigma) + 2))
        return self.observer @ Y.T, np.stack([self.mean(Y, 0), self.mean(Y, 3)])

    def observe(self, state: np.ndarray) -> np.ndarray:
        """Galerkin coefficients of a plant state, as one matrix-vector product."""
        return self._maps[0] @ state

    def measure(self, state: np.ndarray) -> tuple:
        """Trapezoidal means of components 1 and 4, and the spatial norm, of a
        plant state's grid state.  The norm needs no grid: the modal
        coordinates are energy-weighted and orthonormal, the pinned momenta
        are 0, and the pinned displacements hold the input at weight ``trapz_w[-1]``."""
        ab, u = state[:-2], state[-2:]
        return self._maps[1] @ state, np.sqrt(ab @ ab + self.trapz_w[-1] * (u @ u))

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
        e = np.tile(self.trapz_w, 4) * y  # energy-weighted entries
        n = self.n_grid
        return np.concatenate([md.grid_a.T @ e[md.idx_a], md.grid_b.T @ e[md.idx_b],
                               y[[n - 1, 3 * n - 1]]])


@dataclass(frozen=True)
class _ModalForm:
    """Planar modes of the free finite-difference entries.

    With ``E`` the energy weights (the trapezoidal weights, one copy per
    component), ``a = E^{1/2} y[idx_a]`` (displacements)
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


def _modal_form(fd: FDPlant) -> _ModalForm:
    """Modes of ``fd``; ``ValueError`` unless its generator has the lossless form.

    With ``D`` from :func:`_diff_matrix`, the grid obeys ``x1' = D x2 - x4``,
    ``x2' = D x1``, ``x3' = D x4`` and ``x4' = x1 + D x3``.  Restricted to
    the free entries and weighted by ``E^{1/2}``, that reads ``a' = P b``
    and ``b' = Q a + G u``, with the pinned displacements carrying the
    inputs into ``G``.  It is lossless when ``Q = -P^T``, which holds
    because ``D`` is summation-by-parts against the trapezoidal weights.
    """
    n = fd.n_grid
    idx_a = np.r_[0 : n - 1, 2 * n : 3 * n - 1]
    idx_b = np.r_[n + 1 : 2 * n, 3 * n + 1 : 4 * n]
    root = np.sqrt(np.tile(fd.trapz_w, 4))
    root_a, root_b = root[idx_a], root[idx_b]
    D = _diff_matrix(n, fd.grid[1] - fd.grid[0])
    I = np.eye(n)
    Z = np.zeros((n - 1, n - 1))
    P = root_a[:, None] * np.block([[D[:-1, 1:], -I[:-1, 1:]], [Z, D[:-1, 1:]]]) / root_b
    Q = root_b[:, None] * np.block([[D[1:, :-1], Z], [I[1:, :-1], D[1:, :-1]]]) / root_a
    G = root_b[:, None] * np.block([[D[1:, -1:], Z[:, :1]], [I[1:, -1:], D[1:, -1:]]])
    skew = np.abs(Q + P.T).max()
    if not skew <= _SKEW_TOL * np.abs(P).max():
        raise ValueError(f"the finite-difference generator is not lossless: energy-weighted "
                         f"skew residual {skew:.3g} against max |P| = {np.abs(P).max():.3g}")
    L, _, Rt = np.linalg.svd(P)
    L, sigma, R = _polish_svd(P, L, Rt.T)
    return _ModalForm(idx_a=idx_a, idx_b=idx_b, grid_a=L / root_a[:, None],
                      grid_b=R / root_b[:, None], sigma=sigma, gain=R.T @ G)


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


def _zoh_rotation(md: _ModalForm) -> tuple:
    """Per-mode ``cos``, ``[sin; -sin]`` and stacked input gains of the exact
    step over ``h = SAMPLING_INTERVAL``."""
    h = SAMPLING_INTERVAL
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
    n = n_grid
    grid = np.linspace(0.0, 1.0, n)
    delta = grid[1] - grid[0]
    w = np.full(n, delta)
    w[0] = w[-1] = delta / 2.0

    # Trapezoidal least-squares projection onto the polynomial basis.
    blocks = []
    for c in range(4):
        Phi = g.basis.eval_component(c, grid)
        N_mat = Phi.T @ (w[:, None] * Phi)
        blocks.append(np.linalg.solve(N_mat, Phi.T * w))
    observer = _block_diag(blocks)
    return FDPlant(grid=grid, trapz_w=w, observer=observer)


def initial_grid_state(fd: FDPlant) -> np.ndarray:
    """The initial profiles on the grid, with the boundary entries pinned at rest."""
    y = np.concatenate([p(fd.grid) for p in _INITIAL_PROFILES])
    return fd.enforce_bc(y, np.zeros(2))


def fd_plant_step(fd: FDPlant, state: np.ndarray, u_phys) -> np.ndarray:
    """Advance a plant state by one sampling interval ``h`` under a held input.

    The step is exact.  Mode ``i`` obeys ``alpha' = sigma beta`` and
    ``beta' = -sigma alpha + g u`` (see :class:`_ModalForm`), so over ``h``
    the pair rotates by ``sigma h`` about its rest point ``(g u / sigma, 0)``:
    ``alpha+ = cos alpha + sin beta + (1 - cos) g u / sigma`` and
    ``beta+ = cos beta - sin alpha + sin g u / sigma``.  That is O(n) work
    per step.  The operators are built on the plant's first step and kept
    on the plant.  The new state holds ``u_phys``, which pins the boundary
    entries of its grid state.
    """
    u = np.asarray(u_phys, float).reshape(2)
    cos, sin_pm, gain = fd._zoh
    ab = state[: 2 * len(cos)].reshape(2, -1)
    return np.concatenate([(cos * ab + sin_pm * ab[::-1]).ravel() + gain @ u, u])


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
    def u_scale(self) -> float:
        """Discrete input = ``u_scale`` * physical input."""
        return np.sqrt(SAMPLING_INTERVAL)


def make_benchmark(n_basis: int = 9, N: int = 30,
                   bound_scaling: str = "physical") -> BeamBenchmark:
    """Assemble the beam on ``n_basis`` members per component, discretize it at
    ``SAMPLING_INTERVAL`` and build the horizon-``N`` problem under the
    input-bound convention ``bound_scaling`` (recorded on the result).
    Raises ``ValueError`` unless ``N`` is at least 1."""
    if N < 1:
        raise ValueError(f"horizon N = {N} must be at least 1")
    g = assemble(n_basis)
    plant = cayley_discretize(g)
    problem = _benchmark_problem(g, plant, N=N, bound_scaling=bound_scaling)
    x0, _errors = project_initial_condition(g)
    return BeamBenchmark(galerkin=g, plant=plant, problem=problem, x0=x0,
                         bound_scaling=bound_scaling)
