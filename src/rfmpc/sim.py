"""Closed-loop receding-horizon simulation and benchmark sweeps.

The loop measures a state, solves the lifted QP for the input sequence,
applies the first input to the plant for one sampling interval and repeats.
Each step is warm-started with the previous active set shifted along the
receding horizon (see :func:`warm_shift_map`): a constraint that was active
at stage ``k`` of the last prediction is guessed active at stage ``k - 1`` of
the next one.  The plant is either the prediction model itself
(``mode="perfect"``) or an independent finite-difference model observed
through a projection (``mode="fd"``).

A step does only the work that feeds back into the loop: the measurement,
the solve, the plant step and the warm shift.  It records its ``theta``, the
predicted input sequence and the search counts; the logged values (``J_opt``,
``J_cum``, the perfect-mode means and norms, the physical inputs) are derived
from that record after the loop, in one vectorised pass over blocks of steps.
The fd-mode means and norms are measured on each plant state as it is
stepped, without a grid.

A run's settings are one :class:`SimulationConfig`; the CSV columns are the
fields of :class:`StepLog` and :class:`BenchmarkRow`, written by :func:`csv_row`
as the records hold them: :func:`zero_timing` zeroes a record's timings first.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from operator import attrgetter

import numpy as np

from . import beam as beam_mod
from . import solver as solver_mod
from .beam import SAMPLING_INTERVAL, BeamBenchmark, FDPlant, make_benchmark
from .lifting import LiftedQP, _row_quad, build as build_qp, evaluate_lifted_cost
from .problem import Parameter
from .solver import ActiveSet, SolveStatus, Tolerances

__all__ = [
    "SimulationConfig",
    "SWEEP_CONFIG",
    "StepLog",
    "SimulationResult",
    "BenchmarkRow",
    "RecursiveFeasibilityError",
    "BudgetExhaustedError",
    "run_closed_loop",
    "benchmark_sweep",
    "warm_shift_map",
    "shift_warm_set",
    "zero_timing",
    "csv_row",
    "write_step_csv",
    "write_benchmark_csv",
    "STEP_CSV_COLUMNS",
    "BENCHMARK_CSV_COLUMNS",
]


class RecursiveFeasibilityError(RuntimeError):
    """The receding-horizon problem became infeasible at a visited state."""


class BudgetExhaustedError(RuntimeError):
    """A step's search spent its KKT-solve budget without a certified answer."""


@dataclass(frozen=True)
class SimulationConfig:
    horizon: int = 30
    t_end: float = 10.0
    mode: str = "perfect"  # "perfect" | "fd"
    warm_start: bool = True
    max_kkt_solves: int = Tolerances.max_kkt_solves
    n_grid: int = 127
    bound_scaling: str = "physical"

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / SAMPLING_INTERVAL))


_TIMING = {"timing": True}  # field metadata of the wall-clock columns


def zero_timing(record):
    """A copy of a :class:`StepLog` or :class:`BenchmarkRow` with its ``_TIMING`` fields at 0.0."""
    return replace(record, **{f.name: 0.0 for f in fields(record) if f.metadata.get("timing")})


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
        return np.array([[log.u1, log.u2] for log in self.logs]).reshape(-1, 2)


def warm_shift_map(qp: LiftedQP) -> list:
    """Row map of the receding-horizon shift, one int per constraint row.

    Through ``qp.stage_offsets``, entry ``i`` is the row that row
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
    The map is a list: at the few rows of a warm set, Python ints cost less
    than numpy calls.
    """
    offsets = qp.stage_offsets
    row_of = {off: i for i, off in enumerate(offsets)}
    return [i if k >= qp.N - 1 else row_of.get((k - 1, local), -1)
            for i, (k, local) in enumerate(offsets)]


def shift_warm_set(active: ActiveSet, shift: list) -> ActiveSet:
    """Map ``active`` through a :func:`warm_shift_map`, dropping unmapped rows."""
    if not active:
        return active
    return ActiveSet.from_indices(j for j in map(shift.__getitem__, active.indices()) if j >= 0)


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
    ``warm`` is ``None``.  A given ``bench`` must match ``cfg.bound_scaling``,
    a given ``qp`` ``cfg.horizon`` and the bound vector ``W`` that
    ``bench.problem`` stacks, and a given ``plant``, which replaces the
    finite-difference model, ``"fd"`` mode, ``cfg.n_grid`` and ``bench``'s
    state dimension (else :class:`ValueError`).  Raises
    :class:`RecursiveFeasibilityError` when a visited state admits no
    admissible input sequence and :class:`BudgetExhaustedError` when a step's
    search stalls; either discards the partial run.  A negative or
    non-finite ``cfg.t_end`` raises :class:`ValueError`, and so does one
    whose step record does not fit in memory.

    The loop keeps no :class:`~rfmpc.solver.SolveResult`: each step records
    ``u_seq``, the search counts and ``theta = (x, u_prev)`` as a row of one
    array, and the logs are derived after the loop.  ``J_opt`` comes from one
    batched :func:`~rfmpc.lifting.evaluate_lifted_cost` per block of rows,
    ``J_cum`` is the cumulative sum of the stage costs, and in ``"perfect"``
    mode the means and norms are read from ``states``.  In ``"fd"`` mode each
    step's plant state is measured by :meth:`~rfmpc.beam.FDPlant.measure`;
    step 0 is measured on the initial grid state.
    """
    if not 0.0 <= cfg.t_end < float("inf"):
        raise ValueError(f"t_end = {cfg.t_end} must be finite and nonnegative")
    if bench is None:
        bench = make_benchmark(N=cfg.horizon, bound_scaling=cfg.bound_scaling)
    qp = qp if qp is not None else build_qp(bench.problem)
    c = bench.problem.constraints
    same_bounds = np.array_equal(qp.W, np.concatenate([*c.d, c.d_hat]))
    n_x = bench.problem.n_x
    fits = same_bounds and (plant is None or (
        cfg.mode == "fd" and (plant.n_grid, len(plant.observer)) == (cfg.n_grid, n_x)))
    if (cfg.bound_scaling, cfg.horizon) != (bench.bound_scaling, qp.N) or not fits:
        given = ("no plant" if plant is None
                 else f"plant ({plant.n_grid} points, {len(plant.observer)} states)")
        raise ValueError(f"config ({cfg.mode} mode, {cfg.bound_scaling} bounds, N = {cfg.horizon}, "
                         f"n_grid = {cfg.n_grid}) does not match the benchmark ({bench.bound_scaling} "
                         f"bounds, {n_x} states), QP (N = {qp.N}, bounds "
                         f"{'equal' if same_bounds else 'unequal'} to the benchmark's) and {given}")
    tol = Tolerances.for_qp(qp, max_kkt_solves=cfg.max_kkt_solves)
    solver_fn = solver_fn if solver_fn is not None else solver_mod.solve

    g = bench.galerkin
    n_u = bench.problem.n_u
    if cfg.mode == "fd":
        fd = plant if plant is not None else beam_mod.make_fd_plant(g, cfg.n_grid)
        y0 = beam_mod.initial_grid_state(fd)
        y = fd.from_grid(y0)
        x = fd.observe(y)
    elif cfg.mode == "perfect":
        fd = None
        x = bench.x0.copy()
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    n_steps = cfg.n_steps
    try:
        theta = np.zeros((n_steps + 1, len(x) + n_u))
        means = np.zeros((n_steps + 1, 2))
        norms = np.zeros(n_steps + 1)
    except (MemoryError, ValueError) as exc:  # too many bytes, or too many rows for numpy
        raise ValueError(f"t_end = {cfg.t_end} is {n_steps} steps, whose record does not "
                         f"fit in memory") from exc
    # Row n is step n's theta, (x_n, u_{n-1}): its state and input columns.
    states, inputs = theta[:, : len(x)], theta[:, len(x) :]
    if fd is not None:
        # Step 0 is measured on the initial grid state itself: its plant state
        # holds it only up to roundoff, and x1 and x4 start at rest.
        means[0] = fd.mean(y0, 0), fd.mean(y0, 3)
        norms[0] = np.sqrt(np.tile(fd.trapz_w, 4) @ y0**2)
    u_seqs, asets, stats = [], [], []
    u = np.zeros(n_u)
    warm = None
    shift = warm_shift_map(qp)
    A_d, B_d = bench.plant.A_d, bench.plant.B_d

    for n in range(n_steps):
        states[n] = x
        res = solver_fn(qp, Parameter(x, u), warm, tol)
        if res.status is SolveStatus.INFEASIBLE:
            raise RecursiveFeasibilityError(
                f"no admissible input sequence at step {n} (t = {n * SAMPLING_INTERVAL:.6f})"
            )
        if res.status is SolveStatus.BUDGET_EXHAUSTED:
            raise BudgetExhaustedError(f"KKT-solve budget exhausted at step {n}")
        u = inputs[n + 1] = res.u_first
        u_seqs.append(res.u_seq)
        asets.append(res.active_set)
        stats.append(res.stats)

        if fd is None:
            x = A_d.dot(x) + B_d.dot(u)
        else:
            y = beam_mod.fd_plant_step(fd, y, u / bench.u_scale)
            x = fd.observe(y)
            means[n + 1], norms[n + 1] = fd.measure(y)
        warm = shift_warm_set(res.active_set, shift) if cfg.warm_start else None

    states[n_steps] = x
    if fd is None:
        rows = (g.mean_row(0), g.mean_row(3))
        for b in _blocks(n_steps + 1):
            for j, row in enumerate(rows):
                means[b, j] = np.einsum("ij,j->i", states[b], row)
            norms[b] = np.sqrt(np.maximum(_row_quad(states[b], g.M_mass.T, states[b]), 0.0))

    # The logs, derived from the record block by block.  Each block's stage
    # costs start from the running J_cum, so the sum runs in step order.
    w = bench.problem.weights
    logs, j_cum = [], 0.0
    for b in _blocks(n_steps):
        X, U_prev, U = states[b], inputs[b], inputs[b.start + 1 : b.stop + 1]
        j_opt = evaluate_lifted_cost(qp, np.stack(u_seqs[b]), theta[b])
        dU = U - U_prev
        stage = _row_quad(X, w.Q[0].T, X) + _row_quad(U, w.R[0].T, U) + _row_quad(dU, w.V[0].T, dU)
        stage[0] += j_cum
        cum = np.cumsum(stage)
        j_cum = float(cum[-1])
        u_ph = U / bench.u_scale
        for n, (u1_n, u2_n), j_opt_n, cum_n, (m1, m4), aset, s in zip(
                range(b.start, b.stop), u_ph.tolist(), j_opt.tolist(), cum.tolist(),
                means[b].tolist(), asets[b], stats[b]):
            logs.append(StepLog(n, n * SAMPLING_INTERVAL, u1_n, u2_n, j_opt_n, cum_n, m1, m4,
                                str(aset), s.candidates_visited, s.licq_failures,
                                s.kkt_solves, s.wall_time))
    return SimulationResult(logs=logs, states=states, means=means, norms=norms, j_cum=j_cum,
                            config=cfg)


_BLOCK = 64  # steps per block of the post-loop pass: bounds its temporaries


def _blocks(n: int):
    """Consecutive slices of at most ``_BLOCK`` rows covering ``range(n)``."""
    return (slice(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


# ---------------------------------------------------------------------------
# Benchmark sweep over horizon lengths.
# ---------------------------------------------------------------------------

@dataclass
class BenchmarkRow:
    N: int
    runtime_s: float = field(metadata=_TIMING)
    J_d: float
    p_tilde: int
    log2_candidates: int


SWEEP_CONFIG = SimulationConfig(t_end=6.0, mode="fd", bound_scaling="reciprocal")


def benchmark_sweep(n_list, cfg: SimulationConfig = SWEEP_CONFIG):
    """Closed-loop cost and runtime of the active-set search per horizon length.

    Yields each :class:`BenchmarkRow`, one :func:`run_closed_loop` with
    :func:`~rfmpc.solver.solve` and its measured ``runtime_s``, as that run
    finishes.  The last column reports the base-2 log of the candidate-set
    cardinality, i.e. the number of inequality rows.

    The input-bound convention is ``cfg.bound_scaling``.  :data:`SWEEP_CONFIG`
    uses the loose ``"reciprocal"`` one: under the tight physical bounds the
    short-horizon controllers run into states from which no admissible input
    sequence exists (the receding-horizon problem is not recursively feasible
    for small ``N``), so a sweep starting at ``N = 10`` needs the loose one.
    """
    fd = None
    for N in n_list:
        run_cfg = replace(cfg, horizon=int(N))
        bench = make_benchmark(N=run_cfg.horizon, bound_scaling=cfg.bound_scaling)
        qp = build_qp(bench.problem)
        if cfg.mode == "fd" and fd is None:
            # The fd plant depends on the basis only, not on N.
            fd = beam_mod.make_fd_plant(bench.galerkin, cfg.n_grid)
        t0 = time.perf_counter()
        result = run_closed_loop(run_cfg, bench=bench, plant=fd, qp=qp)
        elapsed = time.perf_counter() - t0
        yield BenchmarkRow(N=int(N), runtime_s=elapsed, J_d=result.j_cum,
                           p_tilde=qp.p_tilde, log2_candidates=qp.p_tilde)


# ---------------------------------------------------------------------------
# CSV output.  Floats are written with %.17g so round trips are exact.
# ---------------------------------------------------------------------------

STEP_CSV_COLUMNS = ",".join(f.name for f in fields(StepLog))
BENCHMARK_CSV_COLUMNS = ",".join(f.name for f in fields(BenchmarkRow))


@lru_cache(maxsize=None)
def _csv_format(cls) -> tuple:
    """``(template, getter)`` of a record class: ``%.17g`` for float fields
    and ``%s`` for the others.  A zeroed timing is ``"%.17g" % 0.0``, ``0``."""
    fs = fields(cls)
    template = ",".join("%.17g" if f.type in ("float", float) else "%s" for f in fs)
    return template, attrgetter(*(f.name for f in fs))


def csv_row(record) -> str:
    """CSV line of a :class:`StepLog` or :class:`BenchmarkRow`."""
    template, values = _csv_format(type(record))
    return template % values(record)


def write_step_csv(path, result: SimulationResult) -> None:
    with open(path, "w") as fh:
        fh.write("# J_opt includes the parameter-dependent constant cost term\n")
        fh.write(STEP_CSV_COLUMNS + "\n")
        for log in result.logs:
            fh.write(csv_row(log) + "\n")


def write_benchmark_csv(path, rows) -> None:
    with open(path, "w") as fh:
        fh.write(BENCHMARK_CSV_COLUMNS + "\n")
        for row in rows:
            fh.write(csv_row(row) + "\n")
