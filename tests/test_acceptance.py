"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test prints one ``ACCEPTANCE <label>: PASS/FAIL`` line (outside pytest's
capture) before asserting, so a full run doubles as a short report.  The
expensive closed-loop runs are shared fixtures (the reference loops live in
``conftest.py``, where ``test_reference_outputs.py`` reuses them); running a
single test only pays for the fixtures it touches.
"""
import time

import numpy as np
import pytest

from conftest import random_feasible_query
from reference import dual_ascent, enumerate_active_sets, kkt_solve
from rfmpc import sim
from rfmpc.beam import SAMPLING_INTERVAL
from rfmpc.lifting import LiftedQP
from rfmpc.solver import (
    ActiveSet,
    SolveStatus,
    check_farkas,
    kkt_residuals,
    reduce_to_licq,
    solve,
)


def report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# Shared expensive fixtures.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def random_batch():
    """200 seeded feasible desk-scale queries with search and oracle answers."""
    rng = np.random.default_rng(20240)
    triples = []
    t0 = time.perf_counter()
    for _ in range(200):
        _, qp, theta, ref = random_feasible_query(rng)
        res = solve(qp, theta)
        z_dual = dual_ascent(qp, theta)
        triples.append((qp, theta, res, ref, z_dual))
    elapsed = time.perf_counter() - t0
    return triples, elapsed


@pytest.fixture(scope="module")
def beam_solves(bench30):
    """Recorded per-step solves from the start of the reference loop."""
    recorded = []

    def recording(qp, theta, warm, tol):
        res = solve(qp, theta, warm=warm, tol=tol)
        recorded.append((qp, theta, res))
        return res

    cfg = sim.SimulationConfig(t_end=1.5)
    sim.run_closed_loop(cfg, bench=bench30, solver_fn=recording)
    return recorded


@pytest.fixture(scope="module")
def fd_run_fine(bench30):
    """The fd loop against a refined 255-point truth grid."""
    return sim.run_closed_loop(sim.SimulationConfig(mode="fd", n_grid=255), bench=bench30)


@pytest.fixture(scope="module")
def cold_run(bench30):
    return sim.run_closed_loop(sim.SimulationConfig(warm_start=False), bench=bench30)


# ---------------------------------------------------------------------------
# The acceptance tests themselves.
# ---------------------------------------------------------------------------

def test_search_matches_oracles(random_batch, capsys):
    """Active-set search, enumeration, and dual ascent agree on 200 queries."""
    triples, elapsed = random_batch
    worst_enum = 0.0
    worst_dual = 0.0
    for qp, theta, res, ref, z_dual in triples:
        assert res.status is SolveStatus.OPTIMAL
        worst_enum = max(worst_enum, float(np.linalg.norm(res.z_star - ref.z_star)))
        worst_dual = max(worst_dual, float(np.linalg.norm(res.z_star - z_dual)))
    ok = worst_enum <= 1e-6 and worst_dual <= 1e-5 and elapsed < 10.0
    report(capsys, "oracle-equivalence", ok,
           f"200/200 optimal, max dz vs enumeration {worst_enum:.2e} (tol 1e-06), "
           f"vs dual ascent {worst_dual:.2e} (tol 1e-05), {elapsed:.1f} s")


def test_optimal_solves_carry_certificates(random_batch, beam_solves, capsys):
    """Every optimal answer satisfies the first-order residual bundle."""
    triples, _ = random_batch
    pool = [(qp, theta, res) for qp, theta, res, _, _ in triples]
    pool += beam_solves
    checked = 0
    worst_stat = 0.0   # stationarity scaled by 1 + |z*|
    worst_eq = 0.0
    min_slack = np.inf
    min_lambda = np.inf
    for qp, theta, res in pool:
        if res.status is not SolveStatus.OPTIMAL:
            continue
        r = kkt_residuals(qp, res, theta)
        checked += 1
        worst_stat = max(worst_stat, r["stationarity"] / (1.0 + r["z_norm"]))
        worst_eq = max(worst_eq, r["active_equality"])
        min_slack = min(min_slack, r["min_slack"])
        min_lambda = min(min_lambda, r["min_lambda"])
    ok = (checked == len(pool)
          and worst_stat <= 1e-8 and worst_eq <= 1e-8
          and min_slack >= -1e-9 and min_lambda >= -1e-9)
    report(capsys, "kkt-certificates", ok,
           f"{checked} optimal solves certified, stationarity {worst_stat:.2e}, "
           f"equality {worst_eq:.2e}, slack >= {min_slack:.2e}, "
           f"lambda >= {min_lambda:.2e}")


def test_degenerate_rows_are_handled(capsys):
    """Appended dependent rows never get accepted through a singular system."""
    rng = np.random.default_rng(99)
    alphas = (1.0, 2.0, 0.5)
    done = 0
    worst_dz = 0.0
    worst_reduced = 0.0
    while done < 50:
        _, qp, theta, ref = random_feasible_query(rng)
        active = ref.active_set.indices()
        if not active:
            continue
        row = active[done % len(active)]
        alpha = alphas[done % len(alphas)]
        G = np.vstack([qp.G, alpha * qp.G[row], qp.G[active[0]]])
        S = np.vstack([qp.S, alpha * qp.S[row], qp.S[active[0]]])
        W = np.concatenate([qp.W, [alpha * qp.W[row], qp.W[active[0]]]])
        aug = LiftedQP.from_matrices(H=qp.H, F=qp.F, G=G, S=S, W=W,
                                     N=qp.N, n_u=qp.n_u)

        res = solve(aug, theta)
        assert res.status is SolveStatus.OPTIMAL
        assert len(res.active_set) > 0
        # The reported candidate must itself be a nonsingular system.
        assert kkt_solve(aug, res.active_set, theta) is not None
        worst_dz = max(worst_dz, float(np.linalg.norm(res.z_star - ref.z_star)))

        # The full tight set (duplicates included) violates independence;
        # reduction must land on an independent subset, same minimizer.
        fat = ActiveSet.from_indices(sorted(set(active) | {qp.p_tilde, qp.p_tilde + 1}))
        licq = reduce_to_licq(aug, fat, theta)
        assert kkt_solve(aug, licq, theta) is not None
        z_red, _ = kkt_solve(aug, licq, theta)
        worst_reduced = max(worst_reduced, float(np.linalg.norm(z_red - ref.z_star)))
        done += 1
    ok = worst_dz <= 1e-8 and worst_reduced <= 1e-8
    report(capsys, "degeneracy-handling", ok,
           f"50/50 optimal with nonsingular systems, max dz {worst_dz:.2e}, "
           f"max dz after reduction {worst_reduced:.2e} (tol 1e-08)")


def test_horizon_sweep_table(sweep_rows, capsys):
    """Row structure and closed-loop costs of the horizon sweep."""
    by_n = {row.N: row for row in sweep_rows}
    problems = []

    for n in (10, 20, 30, 40, 50):
        row = by_n[n]
        if row.p_tilde != 6 * n - 2 or row.log2_candidates != row.p_tilde:
            problems.append(f"N={n} row structure {row.p_tilde}/{row.log2_candidates}")
    # Frozen candidate counts, three digits each (loosely rounded: 2^298 is
    # 5.09e89 against the quoted 5.06e89, so allow a 1% band).
    for n, quoted in ((10, 2.88e17), (20, 3.32e35), (40, 4.41e71), (50, 5.06e89)):
        if not np.isclose(2.0 ** by_n[n].log2_candidates, quoted, rtol=1e-2):
            problems.append(f"N={n} candidate count")
    if by_n[30].log2_candidates != 178:
        problems.append("N=30 exponent")

    j = {n: by_n[n].J_d for n in (10, 20, 30, 40, 50)}
    if not (j[10] > j[20] > j[30] >= j[40]):
        problems.append(f"cost ordering {j}")
    if abs(j[30] - 123.0) > 12.3:
        problems.append(f"J_d(30) = {j[30]:.2f} outside 123 +- 10%")
    if abs(j[10] - 148.0) > 14.8:
        problems.append(f"J_d(10) = {j[10]:.2f} outside 148 +- 10%")

    report(capsys, "horizon-sweep", not problems,
           "; ".join(problems) if problems else
           f"p = 6N-2 for all rows, J_d = {j[10]:.2f} > {j[20]:.2f} > "
           f"{j[30]:.2f} >= {j[40]:.2f} >= {j[50]:.2f}")


def test_perfect_model_run(warm_run, capsys):
    """Constraints, cost monotonicity, and decay over the 10 s reference loop."""
    r = warm_run
    m1 = np.array([lg.mean_x1 for lg in r.logs])
    m4 = np.array([lg.mean_x4 for lg in r.logs])
    u = np.abs(r.u_phys).max()
    j_opt = np.array([lg.J_opt for lg in r.logs])
    rises = np.diff(j_opt)[1:]          # ignore the step-0 transient
    ratio = r.norms[-1] / r.norms[0]

    problems = []
    if m1.max() > 0.45 + 1e-8:
        problems.append(f"mean x1 peak {m1.max():.6f}")
    if m4.min() < -0.3 - 1e-8:
        problems.append(f"mean x4 dip {m4.min():.6f}")
    if u > 0.5 + 1e-10:
        problems.append(f"input peak {u:.6f}")
    if rises.max() > 1e-9:
        problems.append(f"cost rise {rises.max():.2e}")
    if ratio >= 0.05:
        problems.append(f"final norm ratio {ratio:.4f}")
    report(capsys, "perfect-model-run", not problems,
           "; ".join(problems) if problems else
           f"x1 <= {m1.max():.6f}, x4 >= {m4.min():.6f}, |u| <= {u:.6f}, "
           f"max cost rise {rises.max():.1e}, final norm {100 * ratio:.2f}% of initial")


def test_imperfect_model_run(fd_run, fd_run_fine, capsys):
    """Grid-model loop on the 127- and 255-point grids: bounded overshoot and
    practical stability."""
    problems, details = [], []
    for r in (fd_run, fd_run_fine):
        grid = f"n_grid {r.config.n_grid}: "
        overshoot = r.means[:, 0].max() - 0.45
        u = np.abs(r.u_phys).max()

        delta = 0.05 * r.norms[0]
        inside = np.nonzero(r.norms <= delta)[0]
        entered = inside.size > 0
        stays = bool(entered and r.norms[inside[0]:].max() <= 2 * delta)

        if not 0.0 < overshoot <= 5e-3:
            problems.append(f"{grid}overshoot {overshoot:.3e}")
        if u > 0.5 + 1e-10:
            problems.append(f"{grid}input peak {u:.6f}")
        if not entered:
            problems.append(f"{grid}never entered the 5% ball")
        elif not stays:
            problems.append(f"{grid}left the 2-delta ball, peak {r.norms[inside[0]:].max():.4f}")
        else:
            details.append(f"{grid}overshoot +{overshoot:.2e} (<= 5e-03), entered the 5% ball "
                           f"at t = {inside[0] * SAMPLING_INTERVAL:.2f} s and stayed within 2x")
    report(capsys, "imperfect-model-run", not problems, "; ".join(problems or details))


def test_warm_start_payoff(warm_run, cold_run, capsys):
    """Warm-started searches should need a quarter of the cold-start solves."""
    steps = len(warm_run.logs)
    warm_avg = warm_run.total_kkt_solves / steps
    cold_avg = cold_run.total_kkt_solves / steps
    ratio = warm_avg / cold_avg
    ok = ratio <= 0.25
    report(capsys, "warm-start-payoff", ok,
           f"warm {warm_avg:.3f} vs cold {cold_avg:.3f} solves/step over "
           f"{steps} steps, ratio {ratio:.3f} vs bound 0.25")


def test_infeasibility_certified(capsys):
    """Contradictory rows: the search certifies them with a Farkas ray that
    checks from ``G`` and ``W`` alone, and enumeration agrees."""
    # z1 >= 1 and z1 <= -1 cannot hold together; eight loose rows pad the
    # problem to ten constraints without changing the empty feasible set.
    G = np.array([
        [-1.0, 0.0], [1.0, 0.0],
        [1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0],
        [0.0, 1.0], [0.0, -1.0], [2.0, 1.0], [-2.0, -1.0],
    ])
    W = np.array([-1.0, -1.0, 7.0, 7.0, 7.0, 7.0, 5.0, 5.0, 9.0, 9.0])
    qp = LiftedQP.from_matrices(
        H=np.eye(2), F=np.zeros((2, 3)), G=G, S=np.zeros((10, 3)), W=W,
        N=2, n_u=1,
    )
    theta = np.zeros(3)

    res = solve(qp, theta)
    ref = enumerate_active_sets(qp, theta)
    ray = res.farkas
    ok = (res.status is SolveStatus.INFEASIBLE
          and ref.status is SolveStatus.INFEASIBLE
          and ray is not None and check_farkas(G, W, ray))
    report(capsys, "infeasibility-certificate", ok,
           f"search {res.status.value} after {res.stats.candidates_visited} "
           f"candidates with a Farkas ray on "
           f"{'no' if ray is None else int(np.count_nonzero(ray))} rows, "
           f"enumeration {ref.status.value}")
