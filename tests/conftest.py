"""Shared helpers: seeded random problem instances for cross-checking the solvers,
and the reference closed loops that more than one test module reads.

The generators keep every invariant of the problem data by construction: the
stage cost blocks come from full-square factors so they are semidefinite, and
the constraint bounds are drawn strictly positive.
"""
import numpy as np
import pytest

from reference import enumerate_active_sets
from rfmpc import lifting, sim
from rfmpc.problem import (
    Parameter,
    PlantModel,
    ProblemDefinition,
    StageConstraints,
    StageWeights,
)
from rfmpc.solver import SolveStatus


def make_random_problem(rng, n_x=2, n_u=1, N=2, rows_per_stage=2, p_hat=1):
    """A random valid problem of the given dimensions.

    The joint stage blocks [[Q, M], [M.T, R]] are built as C.T C plus a ridge
    on R, so validation always passes and the condensed Hessian is coercive.
    """
    A = rng.normal(size=(n_x, n_x))
    radius = np.max(np.abs(np.linalg.eigvals(A)))
    if radius > 0.95:
        A *= 0.95 / radius
    B = rng.normal(size=(n_x, n_u))

    Qs, Rs, Ms = [], [], []
    for _ in range(N):
        C = rng.normal(size=(n_x + n_u, n_x + n_u)) / np.sqrt(n_x + n_u)
        block = C.T @ C
        Qs.append(block[:n_x, :n_x])
        Ms.append(block[:n_x, n_x:])
        Rs.append(block[n_x:, n_x:] + 0.5 * np.eye(n_u))
    V = [float(rng.uniform(0.0, 0.5)) * np.eye(n_u) for _ in range(N + 1)]
    Cp = rng.normal(size=(n_x, n_x)) / np.sqrt(n_x)
    weights = StageWeights(Q=Qs, R=Rs, M=Ms, V=V, P=Cp.T @ Cp)

    d, calE, calF, E = [], [], [], []
    for _ in range(N):
        d.append(rng.uniform(0.3, 1.5, size=rows_per_stage))
        calE.append(rng.normal(size=(rows_per_stage, n_x)))
        calF.append(0.3 * rng.normal(size=(rows_per_stage, n_u)))
        E.append(rng.normal(size=(rows_per_stage, n_u)))
    constraints = StageConstraints(
        d=d,
        calE=calE,
        calF=calF,
        E=E,
        d_hat=rng.uniform(0.3, 1.5, size=p_hat),
        E_hat=rng.normal(size=(p_hat, n_x)) if p_hat else np.zeros((0, n_x)),
        F_hat=rng.normal(size=(p_hat, n_u)) if p_hat else np.zeros((0, n_u)),
    )
    return ProblemDefinition(PlantModel(A, B), weights, constraints, N)


def random_dimensions(rng, max_rows=12):
    """Dimension tuple within the desk-scale caps (n_x <= 4, n_u <= 2, N <= 3)."""
    n_x = int(rng.integers(1, 5))
    n_u = int(rng.integers(1, 3))
    N = int(rng.integers(1, 4))
    rows = int(rng.integers(1, 4))
    p_hat = int(rng.integers(0, 3))
    while N * rows + p_hat > max_rows:
        if rows > 1:
            rows -= 1
        else:
            p_hat -= 1
    return dict(n_x=n_x, n_u=n_u, N=N, rows_per_stage=rows, p_hat=p_hat)


def random_feasible_query(rng, max_tries=60, **dims):
    """Draw (problem, qp, theta, reference) with a feasible parameter.

    The reference solve comes from the exhaustive enumeration reference, so the
    returned query carries its own ground truth.
    """
    for _ in range(max_tries):
        p = make_random_problem(rng, **(dims or random_dimensions(rng)))
        try:
            qp = lifting.build(p)
        except ValueError:
            continue
        theta = Parameter(
            x=0.4 * rng.normal(size=p.n_x),
            u_prev=0.4 * rng.normal(size=p.n_u),
        )
        ref = enumerate_active_sets(qp, theta)
        if ref.status is SolveStatus.OPTIMAL:
            return p, qp, theta, ref
    raise RuntimeError("failed to draw a feasible random query")


# ---------------------------------------------------------------------------
# Reference closed loops, run once per session: ``rfmpc simulate --horizon 30``
# under the physical bounds (perfect and fd plant) and the default
# ``rfmpc benchmark`` sweep.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def bench30():
    return sim.make_benchmark(N=30)


@pytest.fixture(scope="session")
def warm_run(bench30):
    return sim.run_closed_loop(sim.SimulationConfig(), bench=bench30)


@pytest.fixture(scope="session")
def fd_run(bench30):
    return sim.run_closed_loop(sim.SimulationConfig(mode="fd"), bench=bench30)


@pytest.fixture(scope="session")
def sweep_rows():
    return list(sim.benchmark_sweep([10, 20, 30, 40, 50]))
