"""Command-line interface: lift, solve, simulate, benchmark, beam build.

Problems travel as JSON files, results as CSV or whitespace matrix dumps
(first line ``rows cols``, then row-major values with 17 significant digits).
Exit codes: 0 success, 1 usage, invalid data or a size that does not fit in
memory, 2 infeasible (Farkas certificate), 3 search stalled on an
uncertified query, 4 I/O failure or a file that is not a problem document.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import beam as beam_mod
from . import lifting, sim
from .problem import Parameter, load_problem
from .solver import ActiveSet, SolveStatus, Tolerances, solve

__all__ = ["dispatch", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt_vec(v) -> str:
    return " ".join(f"{x:.17g}" for x in np.asarray(v, float).reshape(-1))


def _dump_matrix(fh, M) -> None:
    M = np.asarray(M, float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    fh.write(f"{M.shape[0]} {M.shape[1]}\n")
    for row in M:
        fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def _budget(text: str) -> int:
    """A ``--budget`` value; argparse names the flag when this raises."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


def _horizons(text: str) -> list:
    """A ``--horizons`` list; argparse names the flag when this raises."""
    try:
        horizons = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        horizons = []
    if not horizons or min(horizons) < 1:
        raise argparse.ArgumentTypeError(f"must list one or more positive integers, got {text!r}")
    return horizons


def _build_parser() -> _Parser:
    parser = _Parser(prog="rfmpc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND",
                            parser_class=_Parser)

    p_lift = sub.add_parser("lift",
                            help="condense a problem JSON into its QP matrices")
    p_lift.add_argument("problem", help="problem JSON file")
    p_lift.add_argument("--out", help="directory for H/F/G/S/W dumps (default: stdout)")

    p_solve = sub.add_parser("solve",
                             help="solve one parametric QP query")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument("--theta", help="comma-separated parameter vector (x, then previous input); "
                                         "omitted: sampled standard normal")
    p_solve.add_argument("--seed", type=int, default=0, help="seed for a sampled parameter")
    p_solve.add_argument("--warm", help="warm-start active set as a hex bitmask, e.g. 0x5")
    p_solve.add_argument("--budget", type=_budget, default=Tolerances.max_kkt_solves,
                         help="KKT solve budget")

    p_sim = sub.add_parser("simulate",
                           help="closed-loop beam run with the receding-horizon controller")
    p_sim.add_argument("--horizon", type=int, default=30, metavar="N",
                       help="prediction horizon in sampling intervals")
    p_sim.add_argument("--mode", choices=("perfect", "fd"), default="perfect",
                       help="plant: the prediction model itself, or the finite-difference model")
    p_sim.add_argument("--t-end", type=float, default=10.0, help="simulated time span")
    p_sim.add_argument("--n-grid", type=int, default=127, help="finite-difference grid points")
    p_sim.add_argument("--bound-scaling", choices=("physical", "reciprocal"), default="physical",
                       help="input-bound convention for the scaled discrete inputs")
    p_sim.add_argument("--cold-start", action="store_true", help="disable warm starting")
    p_sim.add_argument("--budget", type=_budget, default=Tolerances.max_kkt_solves,
                       help="KKT solve budget per step")
    p_sim.add_argument("--out", help="step log CSV path")
    p_sim.add_argument("--zero-timing", action="store_true",
                       help="write zeros for wall times (byte-reproducible output)")

    p_bench = sub.add_parser("benchmark",
                             help="closed-loop cost/runtime sweep over horizon lengths")
    p_bench.add_argument("--horizons", type=_horizons, default="10,20,30,40,50",
                         help="comma-separated horizon lengths")
    p_bench.add_argument("--t-end", type=float, default=6.0)
    p_bench.add_argument("--mode", choices=("perfect", "fd"), default="fd")
    p_bench.add_argument("--bound-scaling", choices=("physical", "reciprocal"),
                         default="reciprocal",
                         help="input-bound convention; short horizons require the loose reading")
    p_bench.add_argument("--out", help="benchmark table CSV path")
    p_bench.add_argument("--zero-timing", action="store_true",
                         help="write zeros for runtimes (byte-reproducible output)")

    p_beam = sub.add_parser("beam", help="beam model tools")
    beam_sub = p_beam.add_subparsers(dest="beam_command", required=True, metavar="SUBCOMMAND",
                                 parser_class=_Parser)
    p_build = beam_sub.add_parser("build",
                                  help="assemble the beam benchmark problem JSON")
    p_build.add_argument("--horizon", type=int, default=30, metavar="N")
    p_build.add_argument("--n-basis", type=int, default=9, help="basis functions per component")
    p_build.add_argument("--out", default="beam_problem.json", help="problem JSON path")
    p_build.add_argument("--profiles-out",
                         help="CSV of the projected initial profiles on a spatial grid")
    return parser


def _cmd_lift(args) -> int:
    problem, _meta = load_problem(args.problem)
    qp = lifting.build(problem)
    mats = [("H", qp.H), ("F", qp.F), ("G", qp.G), ("S", qp.S), ("W", qp.W)]
    if args.out is None:
        for name, M in mats:
            sys.stdout.write(f"# {name}\n")
            _dump_matrix(sys.stdout, M)
        return EXIT_OK
    from pathlib import Path
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, M in mats:
        with open(out / f"{name}.txt", "w") as fh:
            _dump_matrix(fh, M)
    print(f"wrote {', '.join(name + '.txt' for name, _ in mats)} to {out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    problem, _meta = load_problem(args.problem)
    qp = lifting.build(problem)
    if args.theta is not None:
        vec = np.array([float(tok) for tok in args.theta.split(",")])
        if vec.size != qp.n_theta:
            raise ValueError(f"theta needs {qp.n_theta} entries, got {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"theta must be finite, got {args.theta}")
    else:
        vec = np.random.default_rng(args.seed).standard_normal(qp.n_theta)
        print(f"theta (sampled, seed {args.seed}): {_fmt_vec(vec)}")
    theta = Parameter(vec[: problem.n_x], vec[problem.n_x:])
    warm = ActiveSet.from_hex(args.warm) if args.warm else None
    result = solve(qp, theta, warm=warm, tol=Tolerances.for_qp(qp, max_kkt_solves=args.budget))

    print(f"status: {result.status.value}")
    if result.status is SolveStatus.OPTIMAL:
        print(f"active_set: {result.active_set}")
        print(f"u: {_fmt_vec(result.u_first)}")
        print(f"z: {_fmt_vec(result.z_star)}")
    s = result.stats
    if result.farkas is not None:
        print(f"farkas_ray: {np.count_nonzero(result.farkas)} of {qp.p_tilde} rows")
    print(f"candidates: {s.candidates_visited}  kkt_solves: {s.kkt_solves}  "
          f"licq_failures: {s.licq_failures}  wall_time: {s.wall_time:.6f}")
    if result.status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if result.status is SolveStatus.BUDGET_EXHAUSTED:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = sim.SimulationConfig(
        horizon=args.horizon, t_end=args.t_end, mode=args.mode,
        warm_start=not args.cold_start, max_kkt_solves=args.budget, n_grid=args.n_grid,
        bound_scaling=args.bound_scaling,
    )
    try:
        result = sim.run_closed_loop(cfg)
    except sim.RecursiveFeasibilityError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except sim.BudgetExhaustedError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    if args.out:
        sim.write_step_csv(args.out, result, zero_timing=args.zero_timing)
    norm0 = result.norms[0] if result.norms[0] > 0 else 1.0
    print(f"steps: {len(result.logs)}  J_d: {result.j_cum:.17g}")
    print(f"final_norm_ratio: {result.norms[-1] / norm0:.6e}")
    print(f"max_mean_x1: {np.max(result.means[:, 0]):.17g}  "
          f"min_mean_x4: {np.min(result.means[:, 1]):.17g}")
    print(f"total_kkt_solves: {result.total_kkt_solves}")
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    cfg = sim.SimulationConfig(t_end=args.t_end, mode=args.mode, bound_scaling=args.bound_scaling)
    print(sim.BENCHMARK_CSV_COLUMNS)
    rows = sim.benchmark_sweep(args.horizons, cfg=cfg, progress=lambda row: print(sim.csv_row(row)))
    if args.out:
        sim.write_benchmark_csv(args.out, rows, zero_timing=args.zero_timing)
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_beam_build(args) -> int:
    from .problem import save_problem

    bench = beam_mod.make_benchmark(args.n_basis, N=args.horizon)
    meta = {
        "h": beam_mod.SAMPLING_INTERVAL,
        "u_scale": float(bench.u_scale),
        "n_basis": args.n_basis,
        "x0": bench.x0.tolist(),
    }
    save_problem(args.out, bench.problem, meta=meta)
    qp_rows = bench.problem.constraints.p_tilde
    print(f"wrote {args.out}: horizon {args.horizon}, "
          f"{bench.problem.n_x} states, {qp_rows} inequality rows")
    if args.profiles_out:
        xi = np.linspace(0.0, 1.0, 201)
        cols = [bench.galerkin.basis.reconstruct(
            c, bench.x0[bench.galerkin.component_slices[c]], xi) for c in range(4)]
        with open(args.profiles_out, "w") as fh:
            fh.write("xi,x1,x2,x3,x4\n")
            for i in range(len(xi)):
                fh.write(",".join(f"{v:.17g}" for v in
                                  [xi[i], cols[0][i], cols[1][i], cols[2][i], cols[3][i]]) + "\n")
        print(f"wrote {args.profiles_out}")
    return EXIT_OK


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE

    try:
        if args.command == "lift":
            return _cmd_lift(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "benchmark":
            return _cmd_benchmark(args)
        if args.command == "beam":
            return _cmd_beam_build(args)
    except OSError as exc:
        print(f"rfmpc: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"rfmpc: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a size setting too large for this machine
        print(f"rfmpc: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
