"""Closed-loop receding-horizon simulation and benchmark sweeps.

The loop measures a state, solves the lifted QP for the input sequence,
applies the first input to the plant for one sampling interval and repeats.
Each step is warm-started with the previous active set shifted along the
receding horizon (see :func:`warm_shift_map`): a constraint that was active
at stage ``k`` of the last prediction is guessed active at stage ``k - 1`` of
the next one.  The plant is either the prediction model itself
(``mode="perfect"``) or an independent finite-difference model observed
through a projection (``mode="fd"``).

A run's settings are one :class:`SimulationConfig`; the CSV columns are the
fields of :class:`StepLog` and :class:`BenchmarkRow`, written by :func:`csv_row`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

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
    "csv_row",
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
    max_kkt_solves: int = 10000
    n_grid: int = 127
    bound_scaling: str = "physical"

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.h))


_TIMING = {"timing": True}  # field metadata of the wall-clock columns


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
    wall_time: float = field(metadata=_TIMING)


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
    iterate is not turned into a certificate.  ``stats.wall_time`` covers the
    whole call, as in :func:`~rfmpc.solver.solve`.
    """
    t0 = time.perf_counter()
    stats = SolveStats()
    z = oracle_mod.dual_ascent(qp, theta)
    result = solver_mod._result(qp, theta.as_vector(), stats, SolveStatus.OPTIMAL, z=z)
    stats.wall_time = time.perf_counter() - t0
    return result


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

    Each step calls ``solver_fn(qp, theta, warm, tol)``, by default
    :func:`~rfmpc.solver.solve`; ``tol`` carries the budget
    ``cfg.max_kkt_solves``.  With ``cfg.warm_start`` every step after the
    first receives the previous step's active set mapped through
    :func:`warm_shift_map` (built once per call) as ``warm``; otherwise
    ``warm`` is ``None``.  A given ``bench`` must match ``cfg.h`` and
    ``cfg.bound_scaling``, and a given ``qp`` ``cfg.horizon`` (else
    :class:`ValueError`); ``plant`` overrides the finite-difference model in
    ``"fd"`` mode.  Raises :class:`RecursiveFeasibilityError` when a visited
    state admits no admissible input sequence.
    """
    if bench is None:
        bench = make_benchmark(N=cfg.horizon, h=cfg.h, bound_scaling=cfg.bound_scaling)
    qp = qp if qp is not None else build_qp(bench.problem)
    if (cfg.h, cfg.bound_scaling, cfg.horizon) != (bench.h, bench.bound_scaling, qp.N):
        raise ValueError(f"config (h = {cfg.h}, {cfg.bound_scaling} bounds, N = {cfg.horizon}) "
                         f"does not match the benchmark (h = {bench.h}, "
                         f"{bench.bound_scaling} bounds) and QP (N = {qp.N})")
    tol = Tolerances.for_qp(qp, max_kkt_solves=cfg.max_kkt_solves)
    solver_fn = solver_fn if solver_fn is not None else solver_mod.solve

    g = bench.galerkin
    M_mass = g.M_mass
    mean_x1_row = g.mean_row(0)
    mean_x4_row = g.mean_row(3)
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
            m1 = float(mean_x1_row @ x)
            m4 = float(mean_x4_row @ x)
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

        res = solver_fn(qp, theta, warm, tol)
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
        warm = shift_warm_set(res.active_set, shift) if cfg.warm_start else None

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
    runtime_s: float = field(metadata=_TIMING)
    J_d: float
    p_tilde: int
    log2_candidates: int


_ALGORITHMS = ("empc", "dual")


def benchmark_sweep(
    n_list,
    algorithms=("empc",),
    cfg: SimulationConfig | None = None,
    progress=None,
) -> list:
    """Closed-loop cost and runtime per horizon length and solver variant.

    ``empc`` is the active-set search of :func:`~rfmpc.solver.solve`,
    ``dual`` the coordinate-ascent reference.  The last column reports the
    base-2 log of the candidate-set cardinality, i.e. the number of
    inequality rows.  ``progress`` receives each row when done.

    The input-bound convention is ``cfg.bound_scaling``; the default config
    uses the loose ``"reciprocal"`` one: under the tight physical bounds the
    short-horizon controllers run into states from which no admissible input
    sequence exists (the receding-horizon problem is not recursively feasible
    for small ``N``), so a sweep starting at ``N = 10`` needs the loose one.
    """
    cfg = cfg if cfg is not None else SimulationConfig(
        t_end=6.0, mode="fd", bound_scaling="reciprocal"
    )
    for alg in algorithms:
        if alg not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {alg!r} (choose from {_ALGORITHMS})")
    rows = []
    fd = None
    for N in n_list:
        run_cfg = replace(cfg, horizon=int(N))
        bench = make_benchmark(N=run_cfg.horizon, h=cfg.h, bound_scaling=cfg.bound_scaling)
        qp = build_qp(bench.problem)
        if cfg.mode == "fd" and fd is None:
            # The fd plant depends on the beam parameters only, not on N.
            fd = beam_mod.make_fd_plant(bench.galerkin, cfg.n_grid)
        for alg in algorithms:
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

STEP_CSV_COLUMNS = ",".join(f.name for f in fields(StepLog))
BENCHMARK_CSV_COLUMNS = ",".join(f.name for f in fields(BenchmarkRow))


def csv_row(record, zero_timing: bool = False) -> str:
    """CSV line of a :class:`StepLog` or :class:`BenchmarkRow`; ``zero_timing`` zeroes its timings."""
    cells = []
    for f in fields(record):
        v = 0.0 if zero_timing and f.metadata.get("timing") else getattr(record, f.name)
        cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
    return ",".join(cells)


def write_step_csv(path, result: SimulationResult, zero_timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write("# J_opt includes the parameter-dependent constant cost term\n")
        fh.write(STEP_CSV_COLUMNS + "\n")
        for log in result.logs:
            fh.write(csv_row(log, zero_timing) + "\n")


def write_benchmark_csv(path, rows, zero_timing: bool = False) -> None:
    with open(path, "w") as fh:
        fh.write(BENCHMARK_CSV_COLUMNS + "\n")
        for row in rows:
            fh.write(csv_row(row, zero_timing) + "\n")
