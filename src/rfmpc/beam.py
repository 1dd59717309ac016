"""Boundary-controlled Timoshenko beam: spectral model, discretization, benchmark.

The beam state has four components over the unit interval: shear displacement,
momentum, angular displacement and angular momentum, coupled through first
derivatives and a zeroth-order skew pair.  One end is clamped, the other is
actuated by a force and a torque.  A Galerkin projection onto shifted
Legendre combinations that satisfy the homogeneous boundary conditions (plus
one high-order monomial per actuated component to carry boundary values)
yields a lossless finite-dimensional model; the Cayley transform maps it to a
discrete-time pair with spectrum on the unit circle.  A finite-difference
model on a fine grid, stepped exactly under the held input, serves as the
independent validation plant.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import linalg as sla

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
    "default_initial_profiles",
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
    n = params.n_basis
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

    M_mass = sla.block_diag(*M_blocks)
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
    """
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


def _benchmark_problem(
    g: GalerkinSystem,
    plant: DiscretePlant,
    N: int,
    q_weight: float = 100.0,
    r_weight: float = 1.0,
    v_weight: float = 0.1,
    u_lo: float = -0.5,
    u_hi: float = 0.5,
    x1_max: float = 0.45,
    x4_min: float = -0.3,
    bound_scaling: str = "physical",
) -> ProblemDefinition:
    """Receding-horizon problem for the beam ``g`` discretized as ``plant``.

    The state weight is the mass-weighted Gram matrix scaled by ``h`` times
    ``q_weight`` so the stage sum approximates the continuous-time integral of
    the squared spatial norm; the input-increment weight ``v_weight / h^2``
    approximates the integral of the squared input rate.  Stage 0 carries the
    input box only; later stages add bounds on the spatial means of the shear
    displacement (above) and angular momentum (below).  No terminal weight or
    constraint is added.

    ``bound_scaling`` fixes the convention translating physical input bounds
    to the scaled discrete inputs: ``"physical"`` multiplies by ``sqrt(h)``
    (discrete inputs approximate ``sqrt(h)`` times the physical signal);
    ``"reciprocal"`` divides instead.
    """
    h = plant.h
    n = g.n_state
    N = int(N)

    Q = h * q_weight * 0.5 * (g.M_mass + g.M_mass.T)
    R = r_weight * np.eye(2)
    V = (v_weight / h**2) * np.eye(2)
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
    hi = scale * u_hi
    lo = -scale * u_lo  # positive bound for the lower side

    box_E = np.vstack([np.eye(2), -np.eye(2)])
    box_d = np.array([hi, hi, lo, lo])
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
            d.append(np.concatenate([box_d, [x1_max, -x4_min]]))
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


def default_initial_profiles():
    """Benchmark initial condition: momenta excited, displacements at rest."""
    return [
        lambda xi: np.zeros_like(np.asarray(xi, float)),
        lambda xi: np.sin(np.pi * np.asarray(xi, float) / 2.0),
        lambda xi: np.cos(np.pi * np.asarray(xi, float) / 2.0),
        lambda xi: np.zeros_like(np.asarray(xi, float)),
    ]


def project_initial_condition(g: GalerkinSystem, profiles=None, n_quad: int = 64):
    """Componentwise least-squares projection of spatial profiles onto the basis.

    Returns ``(alpha, errors)`` with the quadrature approximation of the
    spatial norm of each residual.
    """
    profiles = profiles if profiles is not None else default_initial_profiles()
    x_g, w_g = np.polynomial.legendre.leggauss(n_quad)
    x_q = 0.5 * (x_g + 1.0)
    w_q = 0.5 * w_g
    alpha = np.zeros(g.n_state)
    errors = []
    for c in range(4):
        f = np.asarray(profiles[c](x_q), float)
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

    ``A_sys``/``B_sys`` give the affine right-hand side with the boundary
    conditions eliminated algebraically; ``observer`` maps a grid state to the
    Galerkin coefficient vector by trapezoidal least-squares projection.
    ``zoh`` caches the step matrix of :func:`fd_plant_step` per interval ``h``.
    """

    A_sys: np.ndarray
    B_sys: np.ndarray
    grid: np.ndarray
    trapz_w: np.ndarray
    observer: np.ndarray
    params: BeamParams
    zoh: dict = field(default_factory=dict, repr=False)

    @property
    def n_grid(self) -> int:
        return len(self.grid)

    def component(self, y: np.ndarray, c: int) -> np.ndarray:
        n = self.n_grid
        return y[c * n : (c + 1) * n]

    def mean(self, y: np.ndarray, c: int) -> float:
        return float(self.trapz_w @ self.component(y, c))

    def enforce_bc(self, y: np.ndarray, u_phys: np.ndarray) -> np.ndarray:
        """Pin the algebraic boundary entries to their prescribed values."""
        n = self.n_grid
        p = self.params
        y = np.array(y, float, copy=True)
        y[0 * n + n - 1] = u_phys[0] / p.K  # shear displacement at the actuated end
        y[1 * n + 0] = 0.0                  # momentum at the clamped end
        y[2 * n + n - 1] = u_phys[1] / p.EI # angular displacement at the actuated end
        y[3 * n + 0] = 0.0                  # angular momentum at the clamped end
        return y

    def observe(self, y: np.ndarray) -> np.ndarray:
        return self.observer @ y


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
    observer = sla.block_diag(*blocks)
    return FDPlant(A_sys=A, B_sys=B, grid=grid, trapz_w=w, observer=observer, params=params)


def initial_grid_state(fd: FDPlant, profiles=None) -> np.ndarray:
    profiles = profiles if profiles is not None else default_initial_profiles()
    y = np.concatenate([np.asarray(p(fd.grid), float) for p in profiles])
    return fd.enforce_bc(y, np.zeros(2))


def fd_plant_step(fd: FDPlant, y: np.ndarray, u_phys, h: float) -> np.ndarray:
    """Advance the grid state by one sampling interval under a held input.

    The step is exact: the top ``n`` rows of ``expm([[A_sys, B_sys], [0, 0]] h)``
    (Van Loan, IEEE TAC 1978) map ``(enforce_bc(y, u), u)`` to the next state.
    They are built on the first step at each ``h`` and cached in ``fd.zoh``.
    The pinned boundary entries have zero rows in ``A_sys`` and ``B_sys``, so
    their rows are unit rows and they keep their prescribed values exactly.
    """
    u = np.asarray(u_phys, float).reshape(2)
    step = fd.zoh.get(h)
    if step is None:
        n, m = fd.B_sys.shape
        aug = np.block([[fd.A_sys * h, fd.B_sys * h], [np.zeros((m, n + m))]])
        step = fd.zoh[h] = sla.expm(aug)[:n]
    return step @ np.concatenate([fd.enforce_bc(y, u), u])


def fd_energy(fd: FDPlant, y: np.ndarray) -> float:
    """Trapezoidal discretization of the beam energy."""
    p = fd.params
    x1, x2, x3, x4 = (fd.component(y, c) for c in range(4))
    dens = p.K * x1**2 + x2**2 / p.rho + p.EI * x3**2 + x4**2 / p.I_rho
    return float(0.5 * fd.trapz_w @ dens)


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
                   bound_scaling: str = "physical", **kwargs) -> BeamBenchmark:
    """Assemble the beam, discretize it at step ``h`` and build the horizon-``N``
    problem under the input-bound convention ``bound_scaling`` (recorded on
    the result); ``kwargs`` set its weights and bounds."""
    g = assemble(params)
    plant = cayley_discretize(g, h)
    problem = _benchmark_problem(g, plant, N=N, bound_scaling=bound_scaling, **kwargs)
    x0, _errors = project_initial_condition(g)
    return BeamBenchmark(galerkin=g, plant=plant, problem=problem, x0=x0,
                         bound_scaling=bound_scaling)
