"""Benchmark worker: runs one workload in this process and prints its result.

run.py starts this file with ``PYTHONPATH`` set to the checkout's ``src`` and
the BLAS and OpenMP thread counts pinned to 1.  The library is driven only
through its public calls; with ``--trace 1`` those calls are wrapped from here
(see tracing.py), and the package source is never edited.

An op is one controller query: one sampling instant of a closed loop, or one
``solver.solve`` call.  A batch is one whole loop with its step CSV, or one
query.  A pass is the list of batches the seed draws for a run; the run
repeats that same pass until ``--seconds`` have passed.  Every pass must show
the same behaviour counts (KKT solves, candidates, LICQ failures, status
counts, J_d), and every op's output is checked in every pass.

Other tenants of the host slow this process down by up to a half, in phases
that last from a second to longer than a run.  So every timed part is scaled
to a nominal machine speed: a fixed calibration kernel is timed at the start
and end of each pass and after every CAL_EVERY_NS of timed work, and a part
is multiplied by K_REF_NS over the mean kernel time of the two calibrations
around it.  Each op's latency is its median over the passes.  The raw
figures are printed beside the adjusted ones.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import rfmpc
from rfmpc import beam, lifting, sim, solver
from rfmpc.solver import SolveStatus

import inputs
from tracing import Tracer, patched

clock = time.perf_counter_ns
H_US = 2.0 ** -7 * 1e6          # sampling interval of every loop, in us
N_GRID = 127                    # fd plant grid: 4 * 127 = 508 grid states
SETUP_REPEATS = 11              # setup_s is the median of this many set-ups
J_D_BAND = (123.0, 12.3)        # horizon-sweep gate band for J_d at N = 30
FD_OVERSHOOT = 5e-3             # imperfect-model gate band on constraint overshoot
OUT_DIR = Path(".perfbench")    # step CSVs, inside the checkout
CAL_EVERY_NS = 100_000_000      # calibrate after this much timed work
K_REF_NS = 600_000              # nominal calibration-kernel time: the adjusted speed


@dataclasses.dataclass
class Env:
    """What one set-up produces."""

    bench: beam.BeamBenchmark
    qp: lifting.LiftedQP
    fd: beam.FDPlant | None


@dataclasses.dataclass
class Op:
    latency_ns: int
    seg: int                    # calibration segment the op ran in
    result: solver.SolveResult
    theta: object
    warm: solver.ActiveSet | None = None


@dataclasses.dataclass
class Batch:
    parts: list                 # timed parts as (ns, calibration segment)
    ops: list
    attempted: int
    failed: int = 0
    uncertified: int = 0        # BUDGET_EXHAUSTED where INFEASIBLE is the answer
    gate_misses: int = 0        # OPTIMAL within the solver's band but not the gate's
    j_d: float | None = None
    problems: list = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class Workload:
    horizon: int
    fd: bool
    why: str


WORKLOADS = {
    "loop-perfect": Workload(30, False, "solver-bound, mostly warm closed loop"),
    "loop-fd": Workload(30, True, "plant-bound closed loop against the fd model"),
    "query-cold": Workload(50, False, "cold KKT work on stored non-empty queries"),
    "query-infeasible": Workload(10, False, "LICQ pruning, fallback and budget path"),
}


def _wrap(tracer):
    return tracer.wrap if tracer is not None else (lambda name, fn: fn)


def _patched(tracer, targets):
    return patched(tracer, targets) if tracer is not None else nullcontext()


def setup(w: Workload, tracer: Tracer | None = None) -> Env:
    """``make_benchmark`` + ``lifting.build`` (+ ``make_fd_plant``): what setup_s times."""
    wrap = _wrap(tracer)
    with _patched(tracer, [(lifting, "validate", "problem.validate")]):
        bench = wrap("beam.make_benchmark", beam.make_benchmark)(N=w.horizon)
        qp = wrap("lifting.build", lifting.build)(bench.problem)
        fd = wrap("beam.make_fd_plant", beam.make_fd_plant)(bench.galerkin, N_GRID) if w.fd else None
    return Env(bench, qp, fd)


def draw_pass(name: str, env: Env, seed: int, pool) -> list:
    """The batches of one pass as ``(amplitude,)`` loops or ``(theta, z_ref)`` queries."""
    rng = np.random.default_rng(seed)
    if name == "loop-perfect":
        # The paper's initial profiles, then three amplitudes drawn from the
        # seed; every amplitude from 0.94 to 1.10 completes at the seed commit.
        return [(1.0,)] + [(float(a),) for a in rng.uniform(0.95, 1.05, size=3)]
    if name == "loop-fd":
        # run_closed_loop takes no initial state in fd mode: the seed has no effect.
        return [(1.0,)]
    if name == "query-cold":
        return [pool[i] for i in rng.permutation(len(pool))]
    thetas = inputs.infeasible_thetas(env.bench, env.qp, rng)
    return [(next(thetas), None) for _ in inputs.INFEASIBLE_BASES]


_CAL_SMALL = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
_CAL_LARGE = np.linspace(-1.0, 1.0, 360 * 360).reshape(360, 360)   # 1 MiB: beyond L1 and L2


def _kernel_ns() -> int:
    """Fixed work in the library's own mix: interpreter steps, small numpy
    calls, and matrix-vector products on a matrix as large as the fd plant's
    working set."""
    t0 = clock()
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(50):
        y = _CAL_SMALL @ _CAL_SMALL[0]
        y.sort()
        acc += int(y[-1] > 0)
    for _ in range(8):
        _CAL_LARGE @ _CAL_LARGE[0]
    return clock() - t0


class Speed:
    """Calibration-kernel times that bracket the timed parts of one pass.

    Segment ``j`` runs from calibration ``j`` to calibration ``j + 1``; its
    factor is K_REF_NS over the mean of the two.  The kernel is run three
    times per calibration and the least time kept.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.samples = []
        self._kernel = _wrap(tracer)("perfbench.calibrate", _kernel_ns)
        self.calibrate()

    def calibrate(self):
        self.samples.append(min(self._kernel() for _ in range(3)))
        self._last = clock()

    def tick(self) -> int:
        """Calibrate when due; the segment a part starting now belongs to."""
        if clock() - self._last >= CAL_EVERY_NS:
            self.calibrate()
        return len(self.samples) - 1

    def factors(self) -> np.ndarray:
        """Per segment; call after the closing calibration."""
        k = np.asarray(self.samples, float)
        return K_REF_NS / ((k[:-1] + k[1:]) / 2.0)


def run_pass(env: Env, specs: list, tracer: Tracer | None = None) -> tuple:
    """``(batches, factors)`` of one pass; ``factors[seg]`` scales a part."""
    speed = Speed(tracer)
    done = [run_loop(env, *spec, speed, tracer) if len(spec) == 1
            else run_query(env, *spec, speed, tracer) for spec in specs]
    speed.calibrate()
    return done, speed.factors()


# ---------------------------------------------------------------------------
# Batches and their output checks.
# ---------------------------------------------------------------------------

def check_optimal(qp, op: Op, batch: Batch, where: str = "") -> bool:
    """KKT certificate of an OPTIMAL op.

    Stationarity and active equality are held to the acceptance gate's 1e-8.
    Slack and multipliers are held to the band the solver accepts with,
    ``Tolerances.for_qp``: 1e-9 * (1 + max |W|).  That band is wider than the
    gate's absolute 1e-9, so answers between the two are counted as gate
    misses and reported, not failed.
    """
    ok, floor = inputs.kkt_check(qp, op.result, op.theta)
    band = solver.Tolerances.for_qp(qp).tol_violation
    if not ok or floor < -band:
        batch.problems.append(f"{where}OPTIMAL answer fails the KKT certificate")
        return False
    batch.gate_misses += floor < -inputs.GATE_FLOOR
    return True


def run_loop(env: Env, amplitude: float, speed: Speed, tracer: Tracer | None) -> Batch:
    """One 10 s closed loop plus its step CSV, as ``rfmpc simulate --out`` runs it.

    Parts: loop start to the first ``solve`` call, each step from one
    ``solve`` call to the next, the last step, and the CSV write.  A
    calibration falls between two parts, never inside one.
    """
    wrap = _wrap(tracer)
    solve = wrap("solver.solve", solver.solve)
    ops, parts = [], []
    mark = [0, speed.tick()]    # start and segment of the open part

    def hook(qp, theta, warm, tol):
        parts.append((clock() - mark[0], mark[1]))
        seg = speed.tick()
        t0 = clock()
        res = solve(qp, theta, warm=warm, tol=tol)
        ops.append(Op(clock() - t0, seg, res, theta, warm))
        mark[:] = [t0, seg]
        return res

    # The initial profiles enter x0 linearly, so scaling x0 scales the profiles.
    bench = env.bench if amplitude == 1.0 else dataclasses.replace(env.bench, x0=amplitude * env.bench.x0)
    cfg = sim.SimulationConfig(horizon=env.qp.N, mode="fd" if env.fd else "perfect", n_grid=N_GRID)
    targets = [(sim, "evaluate_lifted_cost", "lifting.evaluate_lifted_cost")]
    if env.fd is not None:
        targets += [(beam, "fd_plant_step", "beam.fd_plant_step"), (env.fd, "observe", "beam.observe")]
    result = None
    with _patched(tracer, targets):
        mark[0] = clock()
        try:
            result = wrap("sim.run_closed_loop", sim.run_closed_loop)(
                cfg, bench=bench, plant=env.fd, qp=env.qp, solver_fn=hook)
        except RuntimeError as exc:  # RecursiveFeasibilityError or budget exhaustion
            abort = str(exc)
        parts.append((clock() - mark[0], mark[1]))
        if result is not None:
            seg = speed.tick()
            t0 = clock()
            wrap("sim.write_step_csv", sim.write_step_csv)(OUT_DIR / "steps.csv", result)
            parts.append((clock() - t0, seg))

    n_steps = cfg.n_steps
    batch = Batch(parts, ops, attempted=n_steps)
    for i, op in enumerate(ops):
        if op.result.status is SolveStatus.OPTIMAL:
            check_optimal(env.qp, op, batch, f"step {i}: ")
    if result is None:
        # The aborting step is in ops, so len(ops) - 1 steps completed.
        batch.failed = n_steps - (len(ops) - 1)
        print(f"# loop at amplitude {amplitude:.4f} aborted: {abort}", file=sys.stderr)
        return batch

    batch.j_d = result.j_cum
    band = FD_OVERSHOOT if env.fd is not None else 1e-8
    x1_max, x4_min = result.means[:, 0].max(), result.means[:, 1].min()
    u_max = np.abs(result.u_phys).max()
    if x1_max > 0.45 + band:
        batch.problems.append(f"mean x1 peak {x1_max:.6f} > 0.45")
    if x4_min < -0.3 - band:
        batch.problems.append(f"mean x4 dip {x4_min:.6f} < -0.3")
    if u_max > 0.5 + 1e-10:
        batch.problems.append(f"input peak {u_max:.6f} > 0.5")
    if amplitude == 1.0 and abs(result.j_cum - J_D_BAND[0]) > J_D_BAND[1]:
        batch.problems.append(f"J_d {result.j_cum:.4f} outside {J_D_BAND[0]} +- {J_D_BAND[1]}")
    return batch


def run_query(env: Env, theta, z_ref, speed: Speed, tracer: Tracer | None) -> Batch:
    """One cold ``solver.solve``; ``z_ref`` marks a feasible pool query."""
    solve = _wrap(tracer)("solver.solve", solver.solve)
    seg = speed.tick()
    t0 = clock()
    res = solve(env.qp, theta)
    dt = clock() - t0
    batch = Batch([(dt, seg)], [Op(dt, seg, res, theta)], attempted=1)
    status = res.status
    if z_ref is None:
        # The LP has classified theta infeasible: OPTIMAL is a wrong answer,
        # BUDGET_EXHAUSTED an uncertified one.
        if status is SolveStatus.OPTIMAL:
            batch.problems.append("OPTIMAL for a parameter the LP calls infeasible")
        batch.uncertified = int(status is SolveStatus.BUDGET_EXHAUSTED)
    elif status is SolveStatus.BUDGET_EXHAUSTED:
        batch.failed = 1
    elif status is not SolveStatus.OPTIMAL:
        batch.problems.append(f"{status.value} for a stored feasible query")
    elif check_optimal(env.qp, batch.ops[0], batch) and np.linalg.norm(res.z_star - z_ref) > 1e-6:
        batch.problems.append(f"z* differs from the pool by {np.linalg.norm(res.z_star - z_ref):.2e}")
    return batch


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = np.sort(np.asarray(values, dtype=float))
    return float(s[max(0, math.ceil(q * len(s)) - 1)])


def behaviour(batch_list) -> dict:
    ops = [op for b in batch_list for op in b.ops]
    out = {
        "ops": len(ops),
        "kkt_solves": sum(op.result.stats.kkt_solves for op in ops),
        "candidates": sum(op.result.stats.candidates_visited for op in ops),
        "licq_failures": sum(op.result.stats.licq_failures for op in ops),
    }
    for status in SolveStatus:
        out[status.value] = sum(op.result.status is status for op in ops)
    out["gate_misses"] = sum(b.gate_misses for b in batch_list)
    loops = [b for b in batch_list if b.j_d is not None]
    if loops:
        out["loop_kkt_solves"] = [sum(op.result.stats.kkt_solves for op in b.ops) for b in loops]
        out["J_d"] = [b.j_d for b in loops]
    return out


def layer_metrics(tracer: Tracer, batch_list) -> dict:
    """Per-layer values of one traced pass."""
    ops = [op for b in batch_list for op in b.ops]
    total, own = tracer.totals()
    optimal = [op for op in ops if op.result.status is SolveStatus.OPTIMAL]
    empty = [op.latency_ns for op in optimal if len(op.result.active_set) == 0]
    nonempty = [op.latency_ns for op in optimal if len(op.result.active_set) > 0]
    counts = behaviour(batch_list)
    kkt_ns = sum(op.latency_ns for op in ops if op.result.stats.kkt_solves)
    warm_hits = sum(
        op.warm is not None and op.result.status is SolveStatus.OPTIMAL
        and op.result.active_set == op.warm and op.result.stats.candidates_visited == 1
        for op in ops
    )
    plant = tracer.durations_ns("beam.fd_plant_step")
    j_d = counts.get("J_d", [0.0])
    return {
        "solver.solve_s": total["solver.solve"] / 1e9,
        "solver.solve_empty_p50_us": percentile(empty, 0.5) / 1e3 if empty else 0.0,
        "solver.solve_nonempty_p50_us": percentile(nonempty, 0.5) / 1e3 if nonempty else 0.0,
        "solver.kkt_solves": counts["kkt_solves"],
        "solver.kkt_per_op": counts["kkt_solves"] / len(ops),
        "solver.candidates": counts["candidates"],
        "solver.accept_ratio": len(ops) / counts["candidates"],
        "solver.licq_failures": counts["licq_failures"],
        "solver.warm_hit_frac": warm_hits / len(ops),
        "solver.us_per_kkt": kkt_ns / 1e3 / counts["kkt_solves"] if counts["kkt_solves"] else 0.0,
        "solver.active_size_mean": (statistics.fmean(len(op.result.active_set) for op in optimal)
                                    if optimal else 0.0),
        "solver.status_optimal": counts["optimal"],
        "solver.status_infeasible": counts["infeasible"],
        "solver.status_budget_exhausted": counts["budget_exhausted"],
        "beam.fd_plant_step_s": total["beam.fd_plant_step"] / 1e9,
        "beam.fd_plant_step_p50_us": percentile(plant, 0.5) / 1e3 if plant else 0.0,
        "beam.observe_s": total["beam.observe"] / 1e9,
        "lifting.evaluate_lifted_cost_s": total["lifting.evaluate_lifted_cost"] / 1e9,
        "sim.self_s": own["sim.run_closed_loop"] / 1e9,
        "sim.write_step_csv_s": total["sim.write_step_csv"] / 1e9,
        "sim.j_d": statistics.fmean(j_d),
        "pass.ops": len(ops),
        "trace.spans": len(tracer.spans),
    }


def setup_metrics(tracer: Tracer) -> dict:
    total, _ = tracer.totals()
    return {
        "beam.make_benchmark_s": total["beam.make_benchmark"] / 1e9,
        "beam.make_fd_plant_s": total["beam.make_fd_plant"] / 1e9,
        "lifting.build_s": total["lifting.build"] / 1e9,
        "problem.validate_s": total["problem.validate"] / 1e9,
    }


def least(dicts) -> dict:
    """Per key, the least value over the passes (counts are equal in all of them)."""
    return {k: min(d[k] for d in dicts) for k in dicts[0]}


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _commit() -> str:
    """HEAD of a git checkout in the working directory, read without git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = Path(".git") / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    root = Path(rfmpc.__file__).parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# The two run modes.
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Result:
    metrics: dict               # name -> (value, unit)
    notes: dict                 # name -> note printed beside the value
    pass_counts: dict           # behaviour counts of a pass; every pass must match
    attempted: int = 0
    failed: int = 0
    uncertified: int = 0
    gate_misses: int = 0
    problems: list = dataclasses.field(default_factory=list)

    def add(self, batch: Batch):
        self.attempted += batch.attempted
        self.failed += batch.failed
        self.uncertified += batch.uncertified
        self.gate_misses += batch.gate_misses
        self.problems += batch.problems


def _setups(w: Workload, traced: bool) -> tuple:
    """SETUP_REPEATS set-ups: ``(env, raw ns, adjusted ns, tracers)``."""
    raw, tracers = [], []
    speed = Speed()
    for _ in range(SETUP_REPEATS):
        # Free the last set-up first, so that peak_rss_mb holds one set-up
        # and does not depend on when the cycle collector runs.
        env = None
        gc.collect()
        speed.calibrate()
        tracer = Tracer() if traced else None
        t0 = clock()
        env = setup(w, tracer)
        raw.append(clock() - t0)
        speed.calibrate()
        tracers.append(tracer)
    adjusted = [ns * f for ns, f in zip(raw, speed.factors()[1::2])]
    return env, raw, adjusted, tracers


def _record_pass(out: Result, done: list):
    """Add one pass to ``out`` and check that it behaved like the first."""
    for batch in done:
        out.add(batch)
    counts = behaviour(done)
    if not out.pass_counts:
        out.pass_counts = counts
    elif counts != out.pass_counts:
        out.problems.append(f"behaviour counts differ between passes: {counts}")


def _walls(done: list, factors: np.ndarray) -> tuple:
    """``(raw, adjusted)`` wall time of one pass, in ns."""
    raw = sum(ns for b in done for ns, _ in b.parts)
    return raw, sum(ns * factors[seg] for b in done for ns, seg in b.parts)


def measure(name: str, w: Workload, seed: int, seconds: float, pool) -> Result:
    """Untraced run: the end-to-end metrics."""
    env, setup_raw, setup_adj, _ = _setups(w, traced=False)
    specs = draw_pass(name, env, seed, pool)
    out = Result({}, {}, {})
    raw_ns = adj_ns = 0
    raw_lat, adj_lat, kernel = [], [], []
    passes = 0
    start = clock()
    while not passes or clock() - start < seconds * 1e9:
        done, factors = run_pass(env, specs)
        _record_pass(out, done)
        raw, adj = _walls(done, factors)
        raw_ns += raw
        adj_ns += adj
        # float32 keeps the latency record, and with it peak_rss_mb, small.
        raw_lat.append(np.array([op.latency_ns for b in done for op in b.ops], np.float32))
        adj_lat.append(np.array([op.latency_ns * factors[op.seg] for b in done for op in b.ops], np.float32))
        kernel += list(K_REF_NS / factors)
        passes += 1

    # Every pass runs the same ops, so each op's latency is its median over
    # the passes; the percentiles are taken over the ops.
    if len({len(a) for a in adj_lat}) == 1:
        raw_lat, adj_lat = np.median(raw_lat, axis=0), np.median(adj_lat, axis=0)
    else:   # a pass lost steps to an abort; out.problems already says so
        raw_lat, adj_lat = np.concatenate(raw_lat), np.concatenate(adj_lat)
    completed = out.attempted - out.failed
    n = len(adj_lat)
    beyond = n - math.ceil(0.99 * n)
    out.metrics = {
        "setup_s": (statistics.median(setup_adj) / 1e9, "s"),
        "ops_per_s": (completed / (adj_ns / 1e9), "1/s"),
        "ctrl_p50_us": (percentile(adj_lat, 0.5) / 1e3, "us"),
        "ctrl_p99_us": (percentile(adj_lat, 0.99) / 1e3, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    out.notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups; raw {statistics.median(setup_raw) / 1e9:.6g}",
        "ops_per_s": (f"{completed} ops in {passes} passes; raw {completed / (raw_ns / 1e9):.6g}; "
                      f"kernel median {statistics.median(kernel) / 1e3:.4g} us, nominal {K_REF_NS / 1e3:g}"),
        "ctrl_p50_us": f"raw {percentile(raw_lat, 0.5) / 1e3:.6g}",
        "ctrl_p99_us": (f"raw {percentile(raw_lat, 0.99) / 1e3:.6g}; {n} ops, {beyond} beyond"
                        + ("" if beyond >= 10 else ": fewer than 10, so read it as the tail")
                        + f"; h = {H_US} us"),
    }
    return out


def _unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("_us") or key == "solver.us_per_kkt":
        return "us"
    if key == "sim.j_d":
        return "cost"
    if key.endswith(("_frac", "_ratio", "_per_op", "_mean")):
        return "ratio"
    return "count"


def trace(name: str, w: Workload, seed: int, seconds: float, pool) -> Result:
    """Traced run: the per-layer metrics.

    Set-up is traced SETUP_REPEATS times.  Then the pass runs alternately
    untraced and traced until ``seconds`` have passed (at least one pair).
    Layer times are raw, the least over the traced passes; counts are equal
    in every pass.  trace_overhead_frac compares the median adjusted wall
    times of the traced and the untraced passes.
    """
    env, _, _, tracers = _setups(w, traced=True)
    setups = [setup_metrics(t) for t in tracers]
    specs = draw_pass(name, env, seed, pool)
    out = Result({}, {}, {})
    walls = {False: [], True: []}
    layers = []
    start = clock()
    while not layers or clock() - start < seconds * 1e9:
        for traced in (False, True):
            tracer = Tracer() if traced else None
            done, factors = run_pass(env, specs, tracer)
            _record_pass(out, done)
            walls[traced].append(_walls(done, factors)[1])
            if traced:
                tracers.append(tracer)
                layers.append(layer_metrics(tracer, done))
    for tracer in tracers:
        out.problems += tracer.check()
    values = {**least(setups), **least(layers)}
    values["trace_overhead_frac"] = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    out.metrics = {k: (v, _unit(k)) for k, v in values.items()}
    out.notes = {"trace_overhead_frac": f"{len(layers)} traced and {len(walls[False])} untraced passes"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(rfmpc.__file__).resolve().parents:
        print(f"worker: rfmpc was imported from {rfmpc.__file__}, not from {src}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    pool = inputs.load_pool() if args.workload == "query-cold" else None

    run = trace if args.trace else measure
    res = run(args.workload, w, args.seed, args.seconds, pool)

    print(f"# env {json.dumps(environment(args))}")
    print(f"# workload {args.workload}: {w.why}")
    for key, (value, unit) in res.metrics.items():
        note = f"  ({res.notes[key]})" if key in res.notes else ""
        print(f"{key:<32} {value:.6g} {unit}{note}")
    print(f"{'fail_frac':<32} {res.failed / res.attempted:.6g} ratio  "
          f"({res.failed} of {res.attempted} ops failed)")
    print(f"{'uncertified_frac':<32} {res.uncertified / res.attempted:.6g} ratio  "
          f"(BUDGET_EXHAUSTED where the answer is INFEASIBLE)")
    print(f"{'gate_band_misses':<32} {res.gate_misses} count  "
          f"(OPTIMAL with slack or multiplier below -1e-9, inside the solver's band)")
    print(f"# behaviour {json.dumps(res.pass_counts)}")
    for problem in res.problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not res.problems,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res.metrics.items()},
    }))
    return 0 if not res.problems else 1


if __name__ == "__main__":
    sys.exit(main())
