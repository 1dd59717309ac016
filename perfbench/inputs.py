"""Workload inputs: the stored query-cold pool and the infeasible-query generator.

The query-cold pool is made once, by running this file from the repository
root:

    PYTHONPATH=src python3 perfbench/inputs.py

It runs the N = 50 reference loop (perfect model, physical bounds), keeps
every visited parameter whose optimal active set is non-empty, and stores the
parameter, the certified minimizer z*, the active set and the commit in
``perfbench/data/cold_pool.json``.  Because the pool is stored, a change to
the solver cannot move the inputs; at run time the seed only orders them.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from rfmpc import beam, lifting, sim, solver
from rfmpc.problem import Parameter

POOL_PATH = Path(__file__).resolve().parent / "data" / "cold_pool.json"
POOL_HORIZON = 50
GATE_FLOOR = 1e-9   # the acceptance gate's band on slack and multipliers

# query-infeasible queries theta = (a * A_d^k x0, u_prev) at N = 10.  Each
# round visits five base points of the free response in seed order; the seed
# moves a by up to 1% and each u_prev component by up to 5% of the input
# bound, and the LP must still call the result infeasible.  The base points
# span the search's LICQ failure count (about 100 to 1400 per query at the
# time of writing), and a full round in every run keeps that mix, and with it
# the per-run timings, the same from seed to seed.
INFEASIBLE_BASES = (
    # (a, k, u_prev as a fraction of the input bound)
    (1.025, 190, (0.55, -0.55)),
    (1.064, 68, (-0.06, -0.39)),
    (1.021, 123, (0.28, 0.35)),
    (0.930, 163, (-0.52, -0.20)),
    (0.978, 119, (-0.35, -0.70)),
)


def kkt_check(qp, res, theta) -> tuple:
    """``(ok, floor)`` for an OPTIMAL result.

    ``ok``: stationarity / (1 + |z|) and the active-row equality error are
    within the acceptance gate's 1e-8.  ``floor``: the smaller of the least
    slack and the least multiplier, for the caller to hold against a band.
    """
    r = solver.kkt_residuals(qp, res, theta)
    ok = r["stationarity"] / (1.0 + r["z_norm"]) <= 1e-8 and r["active_equality"] <= 1e-8
    return ok, min(r["min_slack"], r["min_lambda"])


def load_pool() -> list:
    """``[(theta, z_star)]`` in stored order."""
    data = json.loads(POOL_PATH.read_text())
    if data["horizon"] != POOL_HORIZON:
        raise ValueError(f"pool horizon {data['horizon']} != {POOL_HORIZON}")
    return [
        (Parameter(np.array(e["x"]), np.array(e["u_prev"])), np.array(e["z_star"]))
        for e in data["entries"]
    ]


def lp_infeasible(qp, theta_vec: np.ndarray) -> bool:
    """HiGHS reports ``G z <= W + S theta`` empty (status 2)."""
    res = linprog(
        np.zeros(qp.n_z), A_ub=qp.G, b_ub=qp.W + qp.S @ theta_vec,
        bounds=[(None, None)] * qp.n_z, method="highs",
    )
    return res.status == 2


def infeasible_thetas(bench, qp, rng):
    """Endless rounds over INFEASIBLE_BASES of parameters the LP calls infeasible."""
    powers = [bench.x0]
    while len(powers) <= max(k for _, k, _ in INFEASIBLE_BASES):
        powers.append(bench.plant.A_d @ powers[-1])
    u_max = 0.5 * bench.u_scale
    while True:
        for i in rng.permutation(len(INFEASIBLE_BASES)):
            a, k, u = INFEASIBLE_BASES[i]
            while True:
                x = a * (1.0 + 0.01 * rng.uniform(-1.0, 1.0)) * powers[k]
                u_prev = np.clip(np.array(u) + 0.05 * rng.uniform(-1.0, 1.0, size=2), -1.0, 1.0)
                theta = Parameter(x, u_max * u_prev)
                if lp_infeasible(qp, theta.as_vector()):
                    yield theta
                    break


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True, cwd=POOL_PATH.parent)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def make_pool() -> dict:
    bench = beam.make_benchmark(N=POOL_HORIZON)
    qp = lifting.build(bench.problem)
    visited = []

    def recording(qp_, theta, warm, tol):
        res = solver.solve(qp_, theta, warm=warm, tol=tol)
        visited.append((theta, res))
        return res

    sim.run_closed_loop(sim.SimulationConfig(horizon=POOL_HORIZON), bench=bench, qp=qp,
                        solver_fn=recording)
    entries = []
    for step, (theta, res) in enumerate(visited):
        if len(res.active_set) == 0:
            continue
        ok, floor = kkt_check(qp, res, theta)
        if not ok or floor < -GATE_FLOOR:
            raise RuntimeError(f"step {step}: the reference loop's answer is not certified")
        entries.append({
            "step": step,
            "x": theta.x.tolist(),
            "u_prev": theta.u_prev.tolist(),
            "z_star": res.z_star.tolist(),
            "active_set": str(res.active_set),
        })
    return {
        "horizon": POOL_HORIZON,
        "bound_scaling": "physical",
        "source": "non-empty optimal active sets of the N = 50 perfect-model reference loop",
        "commit": _commit(),
        "entries": entries,
    }


def main() -> int:
    pool = make_pool()
    lines = [json.dumps({k: v for k, v in pool.items() if k != "entries"})[:-1] + ', "entries": [']
    lines.append(",\n".join(json.dumps(e) for e in pool["entries"]))
    lines.append("]}\n")
    POOL_PATH.parent.mkdir(parents=True, exist_ok=True)
    POOL_PATH.write_text("\n".join(lines))
    print(f"wrote {len(pool['entries'])} parameters to {POOL_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
