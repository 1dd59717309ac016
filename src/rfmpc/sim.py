"""Closed-loop receding-horizon simulation and benchmark sweeps.

The loop measures a state, solves the lifted QP for the input sequence,
applies the first input to the plant for one sampling interval and repeats.
Each step is warm-started with the previous active set shifted along the
receding horizon (see :func:`warm_shift_map`): a constraint that was active
at stage ``k`` of the last prediction is guessed active at stage ``k - 1`` of
the next one.  The plant is either the prediction model itself
(``mode="perfect"``) or an independent finite-difference model observed
through a projection (``mode="fd"``).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import beam as beam_mod
from . import oracle as oracle_mod
from . import solver as solver_mod
from .beam import BeamBenchmark, FDPlant, make_benchmark
from .lifting import LiftedQP, build as build_qp, evaluate_lifted_cost
from .problem import Parameter
from .solver import ActiveSet, SolveResult, SolveStats, SolveStatus, Tolerances

__all__ = [
    "SimulationConfig",
    "StepLog",
    "SimulationResult",
    "BenchmarkRow",
    "RecursiveFeasibilityError",
    "run_closed_loop",
    "benchmark_sweep",
    "dual_solver_fn",
    "warm_shift_map",
    "shift_warm_set",
    "write_step_csv",
    "write_benchmark_csv",
    "STEP_CSV_COLUMNS",
    "BENCHMARK_CSV_COLUMNS",
]


class RecursiveFeasibilityError(RuntimeError):
    """The receding-horizon problem became infeasible at a visited state."""


@dataclass
class SimulationConfig:
    horizon: int = 30
    h: float = 2.0 ** -7
    t_end: float = 10.0
    mode: str = "perfect"  # "perfect" | "fd"
    warm_start: bool = True
    track_visited: bool = True
    max_kkt_solves: int = 10000
    n_grid: int = 127
    bound_scaling: str = "physical"
    tolerances: Tolerances | None = None

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))


@dataclass
class StepLog:
    """One controller step; ``u1``/``u2`` are the physical inputs."""

    step: int
    time: float
    u1: float
    u2: float
    J_opt: float
    J_cum: float
    mean_x1: float
    mean_x4: float
    active_set: str
    candidates: int
    licq_failures: int
    kkt_solves: int
    wall_time: float


@dataclass
class SimulationResult:
    logs: list
    states: np.ndarray  # controller states at sample times, (n_steps + 1, n_x)
    means: np.ndarray   # spatial means of components 1 and 4, (n_steps + 1, 2)
    norms: np.ndarray   # spatial norms at sample times, (n_steps + 1,)
    j_cum: float
    config: SimulationConfig

    @property
    def total_kkt_solves(self) -> int:
        return sum(log.kkt_solves for log in self.logs)

    @property
    def u_phys(self) -> np.ndarray:
        return np.array([[log.u1, log.u2] for log in self.logs])


def dual_solver_fn(qp: LiftedQP, theta, warm, tol) -> SolveResult:
    """Closed-loop drop-in that solves each QP by dual coordinate ascent.

    The result reports the empty active set and no multipliers: the dual
    iterate is not turned into a certificate.
    """
    t0 = time.perf_counter()
    z = oracle_mod.dual_ascent(qp, theta)
    stats = SolveStats(wall_time=time.perf_counter() - t0)
    return solver_mod._result(qp, theta.as_vector(), stats, SolveStatus.OPTIMAL, z=z)


def warm_shift_map(qp: LiftedQP) -> np.ndarray:
    """Row map of the receding-horizon shift, one entry per constraint row.

    Through ``qp.constraints.stage_offsets``, entry ``i`` is the row that row
    ``i`` becomes one sampling interval later, or ``-1`` if it has none:

    * a row of stage ``1 <= k < N - 1`` moves to the row with the same local
      index at stage ``k - 1``, and is dropped when stage ``k - 1`` has no
      such row (the beam's stage-1 state rows, since stage 0 only bounds the
      inputs);
    * stage-0 rows are dropped: the stage they bound has been applied;
    * rows of the last stage ``N - 1`` and terminal rows stay in place, since
      the horizon end pulls the same constraints along.

    QPs without stage bookkeeping (:meth:`LiftedQP.from_matrices` labels
    every row stage 0) therefore start each step cold unless ``N == 1``.
    """
    offsets = qp.constraints.stage_offsets
    row_of = {off: i for i, off in enumerate(offsets)}
    shift = np.full(len(offsets), -1, dtype=np.intp)
    for i, (k, local) in enumerate(offsets):
        shift[i] = i if k >= qp.N - 1 else row_of.get((k - 1, local), -1)
    return shift


def shift_warm_set(active: ActiveSet, shift: np.ndarray) -> ActiveSet:
    """Map ``active`` through a :func:`warm_shift_map`, dropping unmapped rows."""
    if not active.mask:
        return active
    rows = shift[active.indices()]
    return ActiveSet.from_indices(rows[rows >= 0])


def run_closed_loop(
    cfg: SimulationConfig,
    bench: BeamBenchmark | None = None,
    plant: FDPlant | None = None,
    qp: LiftedQP | None = None,
    solver_fn=None,
) -> SimulationResult:
    """Run the receding-horizon loop from the benchmark initial state.

    With ``cfg.warm_start`` every step after the first receives the previous
    step's active set mapped through :func:`warm_shift_map` (built once per
    call) as ``warm``; otherwise ``warm`` is ``None`` and each search starts
    from the empty set.
    ``solver_fn(qp, theta, warm, tol)`` overrides the active-set search and
    gets the same shifted warm set; ``plant`` overrides the
    finite-difference model in ``"fd"`` mode.  Raises
    :class:`RecursiveFeasibilityError` when a visited state admits no
    admissible input sequence.
    """
    if bench is None:
        bench = make_benchmark(N=cfg.horizon, h=cfg.h, bound_scaling=cfg.bound_scaling)
    qp = qp if qp is not None else build_qp(bench.problem)
    tol = cfg.tolerances if cfg.tolerances is not None else Tolerances.for_qp(
        qp, max_kkt_solves=cfg.max_kkt_solves
    )

    g = bench.galerkin
    M_mass = g.M_mass
    Q0 = bench.problem.weights.Q[0]
    R0 = bench.problem.weights.R[0]
    V0 = bench.problem.weights.V[0]
    n_u = bench.problem.n_u

    if cfg.mode == "fd":
        fd = plant if plant is not None else beam_mod.make_fd_plant(g, cfg.n_grid)
        y = beam_mod.initial_grid_state(fd)
        x = fd.observe(y)
    elif cfg.mode == "perfect":
        fd = None
        y = None
        x = bench.x0.copy()
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    def measure():
        if fd is None:
            m1 = float(bench.mean_x1_row @ x)
            m4 = float(bench.mean_x4_row @ x)
            nrm = float(np.sqrt(max(x @ (M_mass @ x), 0.0)))
        else:
            m1 = fd.mean(y, 0)
            m4 = fd.mean(y, 3)
            nrm = float(np.sqrt(sum(
                fd.trapz_w @ fd.component(y, c) ** 2 for c in range(4)
            )))
        return m1, m4, nrm

    n_steps = cfg.n_steps
    logs = []
    states = np.zeros((n_steps + 1, len(x)))
    means = np.zeros((n_steps + 1, 2))
    norms = np.zeros(n_steps + 1)
    u_prev = np.zeros(n_u)
    warm = None
    shift = warm_shift_map(qp)
    j_cum = 0.0

    for n in range(n_steps):
        states[n] = x
        m1, m4, norms[n] = measure()
        means[n] = (m1, m4)
        theta = Parameter(x, u_prev)

        if solver_fn is not None:
            res = solver_fn(qp, theta, warm if cfg.warm_start else None, tol)
        else:
            res = solver_mod.solve(
                qp,
                theta,
                warm=warm if cfg.warm_start else None,
                tol=tol,
                track_visited=cfg.track_visited,
            )
        if res.status is SolveStatus.INFEASIBLE:
            raise RecursiveFeasibilityError(
                f"no admissible input sequence at step {n} (t = {n * cfg.h:.6f})"
            )
        if res.status is SolveStatus.BUDGET_EXHAUSTED:
            raise RuntimeError(f"KKT-solve budget exhausted at step {n}")

        u = np.asarray(res.u_first, float)
        u_ph = u / bench.u_scale
        j_opt = evaluate_lifted_cost(qp, res.u_seq, theta)
        du = u - u_prev
        j_cum += float(x @ (Q0 @ x) + u @ (R0 @ u) + du @ (V0 @ du))

        logs.append(StepLog(
            step=n,
            time=n * cfg.h,
            u1=float(u_ph[0]),
            u2=float(u_ph[1]) if n_u > 1 else 0.0,
            J_opt=float(j_opt),
            J_cum=j_cum,
            mean_x1=means[n, 0],
            mean_x4=means[n, 1],
            active_set=str(res.active_set),
            candidates=res.stats.candidates_visited,
            licq_failures=res.stats.licq_failures,
            kkt_solves=res.stats.kkt_solves,
            wall_time=res.stats.wall_time,
        ))

        if fd is None:
            x = bench.plant.A_d @ x + bench.plant.B_d @ u
        else:
            y = beam_mod.fd_plant_step(fd, y, u_ph, cfg.h)
            x = fd.observe(y)
        u_prev = u
        warm = shift_warm_set(res.active_set, shift)

    states[n_steps] = x
    m1, m4, norms[n_steps] = measure()
    means[n_steps] = (m1, m4)
    return SimulationResult(
        logs=logs, states=states, means=means, norms=norms, j_cum=j_cum, config=cfg,
    )


# ---------------------------------------------------------------------------
# Benchmark sweep over horizon lengths and solver variants.
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkRow:
    N: int
    algorithm: str
    runtime_s: float
    J_d: float
    p_tilde: int
    log2_candidates: int


_ALGORITHMS = ("empc", "empcf", "dual")


def benchmark_sweep(
    n_list,
    algorithms=("empc",),
    cfg: SimulationConfig | None = None,
    progress=None,
    bound_scaling: str = "reciprocal",
) -> list:
    """Closed-loop cost and runtime per horizon length and solver variant.

    ``empc`` is the exhaustive-fallback search, ``empcf`` the variant without
    visited bookkeeping, ``dual`` the coordinate-ascent reference.  The last
    column reports the base-2 log of the candidate-set cardinality, i.e. the
    number of inequality rows.

    The sweep defaults to the loose (``"reciprocal"``) input-bound convention:
    under the tight physical bounds the short-horizon controllers run into
    states from which no admissible input sequence exists (the receding-horizon
    problem is not recursively feasible for small ``N``), so a sweep starting
    at ``N = 10`` can only be completed with the loose convention.
    """
    cfg = cfg if cfg is not None else SimulationConfig(t_end=6.0, mode="fd")
    rows = []
    # The fd plant depends on the beam parameters only, not on N.
    fd = beam_mod.make_fd_plant(beam_mod.assemble(), cfg.n_grid) if cfg.mode == "fd" else None
    for N in n_list:
        bench = make_benchmark(N=int(N), h=cfg.h, bound_scaling=bound_scaling)
        qp = build_qp(bench.problem)
        for alg in algorithms:
            if alg not in _ALGORITHMS:
                raise ValueError(f"unknown algorithm {alg!r} (choose from {_ALGORITHMS})")
            run_cfg = SimulationConfig(
                horizon=int(N), h=cfg.h, t_end=cfg.t_end, mode=cfg.mode,
                warm_start=cfg.warm_start,
                track_visited=(alg != "empcf"),
                max_kkt_solves=cfg.max_kkt_solves,
                n_grid=cfg.n_grid, bound_scaling=bound_scaling,
                tolerances=cfg.tolerances,
            )
            fn = dual_solver_fn if alg == "dual" else None
            t0 = time.perf_counter()
            result = run_closed_loop(run_cfg, bench=bench, plant=fd, qp=qp, solver_fn=fn)
            elapsed = time.perf_counter() - t0
            rows.append(BenchmarkRow(
                N=int(N), algorithm=alg, runtime_s=elapsed, J_d=result.j_cum,
                p_tilde=qp.p_tilde, log2_candidates=qp.p_tilde,
            ))
            if progress is not None:
                progress(rows[-1])
    return rows


# ---------------------------------------------------------------------------
# CSV output.  Floats are written with %.17g so round trips are exact.
# ---------------------------------------------------------------------------

STEP_CSV_COLUMNS = (
    "step,time,u1,u2,J_opt,J_cum,mean_x1,mean_x4,"
    "active_set,candidates,licq_failures,kkt_solves,wall_time"
)
BENCHMARK_CSV_COLUMNS = "N,algorithm,runtime_s,J_d,p_tilde,log2_candidates"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_step_csv(path, result: SimulationResult, zero_timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write("# J_opt includes the parameter-dependent constant cost term\n")
        fh.write(STEP_CSV_COLUMNS + "\n")
        for log in result.logs:
            wt = 0.0 if zero_timing else log.wall_time
            fh.write(",".join([
                str(log.step), _fmt(log.time), _fmt(log.u1), _fmt(log.u2),
                _fmt(log.J_opt), _fmt(log.J_cum), _fmt(log.mean_x1), _fmt(log.mean_x4),
                log.active_set, str(log.candidates), str(log.licq_failures),
                str(log.kkt_solves), _fmt(wt),
            ]) + "\n")


def write_benchmark_csv(path, rows, zero_timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(BENCHMARK_CSV_COLUMNS + "\n")
        for row in rows:
            rt = 0.0 if zero_timing else row.runtime_s
            fh.write(",".join([
                str(row.N), row.algorithm, _fmt(rt), _fmt(row.J_d),
                str(row.p_tilde), str(row.log2_candidates),
            ]) + "\n")
