"""Closed-loop harness: logging, determinism, warm starts, sweeps, CSV output."""
from dataclasses import fields, replace

import numpy as np
import pytest

from reference import numpy_shift_warm_set
from rfmpc import beam, lifting, sim
from rfmpc.lifting import LiftedQP, build as build_qp
from rfmpc.sim import SimulationConfig
from rfmpc.solver import ActiveSet, SolveStatus, check_farkas, solve


def short_cfg(**kw):
    base = dict(horizon=4, t_end=0.125, mode="perfect")
    base.update(kw)
    return SimulationConfig(**base)


@pytest.fixture(scope="module")
def short_run():
    return sim.run_closed_loop(short_cfg())


@pytest.fixture(scope="module")
def lost_feasibility():
    """``(qp, calls, error)`` of the N = 10 physical-bounds loop, which raises.

    ``calls`` holds ``(theta, result)`` of every solve, the failed one last.
    """
    calls = []

    def recording(qp, theta, warm, tol):
        calls.append((theta, solve(qp, theta, warm, tol)))
        return calls[-1][1]

    bench = beam.make_benchmark(N=10)
    qp = build_qp(bench.problem)
    with pytest.raises(sim.RecursiveFeasibilityError) as error:
        sim.run_closed_loop(short_cfg(horizon=10, t_end=1.0), bench=bench, qp=qp,
                            solver_fn=recording)
    return qp, calls, error.value


class TestConfig:
    def test_step_count_rounding(self):
        assert SimulationConfig(t_end=10.0).n_steps == 1280
        assert SimulationConfig(t_end=0.125).n_steps == 16

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            sim.run_closed_loop(short_cfg(mode="exact"))

    @pytest.mark.parametrize("t_end", [-1.0, float("inf"), float("nan")])
    def test_t_end_must_be_finite_and_nonnegative(self, t_end):
        with pytest.raises(ValueError, match="t_end"):
            sim.run_closed_loop(short_cfg(t_end=t_end))

    def test_zero_t_end_is_an_empty_run(self):
        res = sim.run_closed_loop(short_cfg(t_end=0.0))
        assert res.logs == [] and res.states.shape == (1, 36) and res.j_cum == 0.0
        assert res.u_phys.shape == (0, 2)


class TestClosedLoop:
    def test_log_and_trace_shapes(self, short_run):
        assert len(short_run.logs) == 16
        assert short_run.states.shape == (17, 36)
        assert short_run.means.shape == (17, 2)
        assert short_run.norms.shape == (17,)
        assert short_run.logs[0].step == 0
        assert short_run.logs[-1].time == pytest.approx(15 * beam.SAMPLING_INTERVAL)

    def test_energy_decreases(self, short_run):
        assert short_run.norms[0] == pytest.approx(1.0, abs=1e-9)
        assert short_run.norms[-1] < short_run.norms[0]
        assert short_run.j_cum > 0
        assert short_run.j_cum == pytest.approx(short_run.logs[-1].J_cum)

    def test_physical_inputs_logged(self, short_run):
        u = short_run.u_phys
        assert u.shape == (16, 2)
        assert np.all(np.abs(u) <= 0.5 + 1e-10)

    def test_deterministic_repetition(self, short_run):
        again = sim.run_closed_loop(short_cfg())
        np.testing.assert_array_equal(again.u_phys, short_run.u_phys)
        np.testing.assert_array_equal(again.states, short_run.states)

    def test_cold_start_same_controls(self, short_run):
        # Warm starting changes the search path, never the minimizer.
        cold = sim.run_closed_loop(short_cfg(warm_start=False))
        np.testing.assert_allclose(cold.u_phys, short_run.u_phys, atol=1e-12)

    def test_fd_mode_runs(self):
        cfg = short_cfg(mode="fd", t_end=0.0625)
        res = sim.run_closed_loop(cfg)
        assert len(res.logs) == 8
        assert np.all(np.isfinite(res.norms))
        # The observer sees the same initial profiles up to projection error.
        assert res.norms[0] == pytest.approx(1.0, rel=1e-3)

    def test_reused_benchmark(self, short_run):
        bench = beam.make_benchmark(N=4)
        res = sim.run_closed_loop(short_cfg(), bench=bench)
        np.testing.assert_allclose(res.u_phys, short_run.u_phys, atol=1e-12)

    def test_tight_short_horizon_loses_feasibility(self):
        # Under the tight physical input bounds the N = 2 controller steers
        # into a state with no admissible input sequence before t = 0.5; the
        # index space is small enough to certify that by exhaustion.
        cfg = SimulationConfig(horizon=2, t_end=0.5, mode="perfect",
                               bound_scaling="physical")
        with pytest.raises(sim.RecursiveFeasibilityError, match="no admissible"):
            sim.run_closed_loop(cfg)

    def test_mismatched_benchmark_rejected(self):
        # A bench or QP built for another horizon than the config's would
        # plan over a horizon the config does not name.
        bench = beam.make_benchmark(N=4)
        with pytest.raises(ValueError, match="does not match"):
            sim.run_closed_loop(short_cfg(horizon=5), bench=bench)
        with pytest.raises(ValueError, match="does not match"):
            sim.run_closed_loop(short_cfg(), bench=bench,
                                qp=build_qp(beam.make_benchmark(N=3).problem))

    def test_mismatched_bound_convention_rejected(self):
        # A physical-bounds bench under a reciprocal config would run the
        # tight bounds while the config names the loose ones.
        bench = beam.make_benchmark(N=4)
        with pytest.raises(ValueError, match="does not match"):
            sim.run_closed_loop(short_cfg(bound_scaling="reciprocal"), bench=bench)
        assert bench.bound_scaling == "physical"
        recip = beam.make_benchmark(N=4, bound_scaling="reciprocal")
        res = sim.run_closed_loop(short_cfg(bound_scaling="reciprocal"), bench=recip)
        assert len(res.logs) == 16
        # A QP lifted from the physical-bounds problem under a reciprocal
        # bench and config: the bench matches, the QP's bounds do not.
        with pytest.raises(ValueError, match="does not match"):
            sim.run_closed_loop(short_cfg(bound_scaling="reciprocal", t_end=0.5), bench=recip,
                                qp=build_qp(bench.problem))

    def test_mismatched_plant_rejected(self):
        # A plant for another grid or basis than the run's, or any plant in
        # perfect mode, would run a loop that the config does not name.
        bench = beam.make_benchmark(N=4)
        plant = beam.make_fd_plant(bench.galerkin, 127)
        runs = [(short_cfg(mode="fd", n_grid=255), bench),
                (short_cfg(), bench),
                (short_cfg(mode="fd"), beam.make_benchmark(12, N=4))]
        for cfg, run_bench in runs:
            with pytest.raises(ValueError, match="does not match"):
                sim.run_closed_loop(cfg, bench=run_bench, plant=plant)
        res = sim.run_closed_loop(short_cfg(mode="fd"), bench=bench, plant=plant)
        assert len(res.logs) == 16

    def test_large_basis_loop_keeps_the_bounds(self):
        # 160 states (40 members per component) against the reference loop's 36:
        # the loop completes within the mean bounds, with fewer KKT solves (216 against 348).
        bench = beam.make_benchmark(40, N=30)
        run = sim.run_closed_loop(SimulationConfig(), bench=bench)
        assert len(run.logs) == 1280
        assert run.means[:, 0].max() <= 0.45 + 1e-8
        assert run.means[:, 1].min() >= -0.3 - 1e-8
        assert run.total_kkt_solves == 216

    @pytest.mark.parametrize("n_basis, warm_total, cold_max", [(9, 340, 32), (40, 340, 47)])
    def test_long_horizon_search_counts(self, n_basis, warm_total, cold_max):
        # The paper's regime: N = 150 (n_z = 300, 898 rows) over 10 s, on 36
        # and 160 states.  The warm loop's KKT-solve total, and the largest
        # count of a cold re-solve of every fourth visited state, are pinned
        # as measured: the warm total does not grow with the plant.
        bench = beam.make_benchmark(n_basis, N=150)
        queries = []

        def recording(qp, theta, warm, tol):
            queries.append((qp, theta, tol))
            return solve(qp, theta, warm=warm, tol=tol)

        run = sim.run_closed_loop(SimulationConfig(horizon=150), bench=bench, solver_fn=recording)
        assert len(run.logs) == 1280
        cold = [solve(qp, theta, tol=tol) for qp, theta, tol in queries[::4]]
        assert {res.status for res in cold} == {SolveStatus.OPTIMAL}
        assert run.total_kkt_solves == warm_total
        assert max(res.stats.kkt_solves for res in cold) == cold_max

    def test_physical_bounds_lose_feasibility_with_a_certificate(self, lost_feasibility):
        # At N = 10 the physical input bounds cannot hold the beam past step
        # 75.  The search certifies it with a Farkas ray at its first
        # rank-deficient candidate, after 15 of n_z = 20 KKT solves, instead
        # of spending its budget.
        qp, calls, error = lost_feasibility
        assert "at step 75 " in str(error)
        theta, res = calls[-1]
        assert len(calls) == 76
        assert (res.stats.kkt_solves, res.stats.licq_failures) == (15, 1)
        b = qp.W + qp.S @ theta.as_vector()
        assert check_farkas(qp.G, b, res.farkas)

    @pytest.mark.parametrize("horizon, kkt_solves", [(30, 33), (50, 31), (150, 33)])
    def test_detection_does_not_scale_with_the_horizon(self, lost_feasibility, horizon,
                                                       kkt_solves):
        # The step-75 state has no admissible input at longer horizons either.
        # Solved cold, the ray is found at the first rank-deficient candidate,
        # after a horizon-independent number of KKT solves, not after n_z of
        # them (60, 100 and 300).
        theta = lost_feasibility[1][-1][0]
        qp = build_qp(beam.make_benchmark(N=horizon).problem)
        res = solve(qp, theta)
        assert res.status is SolveStatus.INFEASIBLE
        assert check_farkas(qp.G, qp.W + qp.S @ theta.as_vector(), res.farkas)
        assert (res.stats.kkt_solves, res.stats.licq_failures) == (kkt_solves, 1)

    def test_budget_exhaustion_surfaces(self):
        cfg = short_cfg(t_end=0.5, horizon=10, max_kkt_solves=0)
        with pytest.raises(sim.BudgetExhaustedError, match="budget exhausted"):
            sim.run_closed_loop(cfg)
        assert issubclass(sim.BudgetExhaustedError, RuntimeError)


class TestPostLoopLogs:
    """The logs derived after the loop against their per-step definitions."""

    @pytest.mark.parametrize("mode", ["perfect", "fd"])
    def test_logs_match_per_step_definitions(self, mode, monkeypatch):
        # 96 steps: one full block of the post-loop pass and a partial one.
        cfg = short_cfg(mode=mode, t_end=0.75, bound_scaling="reciprocal")
        bench = beam.make_benchmark(N=4, bound_scaling="reciprocal")
        qp = build_qp(bench.problem)
        steps, plant_states = [], []

        def recording(qp_, theta, warm, tol):
            steps.append((theta, solve(qp_, theta, warm=warm, tol=tol)))
            return steps[-1][1]

        calls = {"fd_plant_step": 0, "evaluate_lifted_cost": 0}

        def counting(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(module, name, wrapper)

        counting(sim, "evaluate_lifted_cost")
        fd = None
        if mode == "fd":
            fd = beam.make_fd_plant(bench.galerkin, cfg.n_grid)
            observe = fd.observe
            monkeypatch.setattr(fd, "observe",
                                lambda s: (plant_states.append(s), observe(s))[1])
            counting(beam, "fd_plant_step")
        run = sim.run_closed_loop(cfg, bench=bench, plant=fd, qp=qp, solver_fn=recording)

        assert len(run.logs) == len(steps) == 96
        # The names a tracer patches: one plant step per step, one cost per block.
        assert calls == {"fd_plant_step": 96 if mode == "fd" else 0, "evaluate_lifted_cost": 2}
        assert any(len(res.active_set) for _, res in steps)
        w, g = bench.problem.weights, bench.galerkin
        j_cum = 0.0
        for n, (log, (theta, res)) in enumerate(zip(run.logs, steps)):
            x, u = theta.x, res.u_first
            du = u - theta.u_prev
            j_cum += float(x @ (w.Q[0] @ x) + u @ (w.R[0] @ u) + du @ (w.V[0] @ du))
            j_opt = lifting.evaluate_lifted_cost(qp, res.u_seq, theta)
            assert log.J_opt == pytest.approx(j_opt, rel=1e-12, abs=0)
            assert log.J_cum == pytest.approx(j_cum, rel=1e-12, abs=0)
            u_ph = u / bench.u_scale
            assert (log.u1, log.u2) == (u_ph[0], u_ph[1])
            assert (log.active_set, log.candidates, log.licq_failures, log.kkt_solves,
                    log.wall_time) == (str(res.active_set), res.stats.candidates_visited,
                                       res.stats.licq_failures, res.stats.kkt_solves,
                                       res.stats.wall_time)
            np.testing.assert_array_equal(run.states[n], x)
            assert all(type(getattr(log, f.name)) is float
                       for f in fields(log) if f.type == "float")
        assert run.j_cum == log.J_cum

        if mode == "perfect":
            ref_means = [(g.mean_row(0) @ x, g.mean_row(3) @ x) for x in run.states]
            ref_norms = [np.sqrt(x @ (g.M_mass @ x)) for x in run.states]
        else:
            assert len(plant_states) == len(run.states)
            # Step 0 is measured on the initial grid state, the later steps on
            # the grid of the observed plant state.
            grid = [beam.initial_grid_state(fd)] + [fd.to_grid(s) for s in plant_states[1:]]
            np.testing.assert_array_equal(fd.from_grid(grid[0]), plant_states[0])
            ref_means = [(fd.mean(y, 0), fd.mean(y, 3)) for y in grid]
            ref_norms = [np.sqrt(sum(fd.trapz_w @ fd.component(y, c) ** 2 for c in range(4)))
                         for y in grid]
        np.testing.assert_allclose(run.means, ref_means, rtol=1e-12, atol=0)
        np.testing.assert_allclose(run.norms, ref_norms, rtol=1e-12, atol=0)
        assert [[log.mean_x1, log.mean_x4] for log in run.logs] == run.means[:-1].tolist()


class TestWarmShift:
    @pytest.fixture(scope="class")
    def qp3(self):
        # Stage 0 bounds the 4 inputs; stages 1 and 2 add 2 state rows each.
        return build_qp(beam.make_benchmark(N=3).problem)

    def test_map_over_beam_rows(self, qp3):
        offsets = qp3.stage_offsets
        assert qp3.p_tilde == 16
        shift = sim.warm_shift_map(qp3)
        assert len(shift) == 16 and all(type(j) is int for j in shift)
        for i, (k, local) in enumerate(offsets):
            if k == 2:                      # last stage: held in place
                assert shift[i] == i
            elif k == 1 and local < 4:      # input rows slide to stage 0
                assert offsets[shift[i]] == (0, local)
            else:                           # stage 0, stage-1 state rows
                assert shift[i] == -1

    def test_shifted_sets(self, qp3):
        shift = sim.warm_shift_map(qp3)
        assert sim.shift_warm_set(ActiveSet(0), shift) == ActiveSet(0)
        # (1, 0) -> (0, 0); (1, 5) and (0, 2) are dropped; (2, 4) stays.
        active = ActiveSet.from_indices([4, 9, 2, 14])
        assert sim.shift_warm_set(active, shift) == ActiveSet.from_indices([0, 14])
        for mask in range(0, 1 << 16, 97):
            active = ActiveSet(mask)
            shifted = sim.shift_warm_set(active, shift)
            assert len(shifted) <= len(active)
            assert all(0 <= i < 16 for i in shifted.indices())

    def test_python_map_is_the_numpy_map(self, warm_run, fd_run):
        # Every set the N = 30 perfect and fd loops produce, and 1000 random
        # masks at each of N = 10, 30 and 150, map as they did on numpy.
        def same(active, shift):
            assert sim.shift_warm_set(active, shift) == numpy_shift_warm_set(active, np.array(shift))

        shift30 = sim.warm_shift_map(build_qp(beam.make_benchmark(N=30).problem))
        sets = {log.active_set for run in (warm_run, fd_run) for log in run.logs}
        assert len(sets) > 20
        for text in sets:
            same(ActiveSet(int(text, 16)), shift30)
        rng = np.random.default_rng(33)
        for N in (10, 30, 150):
            shift = shift30 if N == 30 else sim.warm_shift_map(build_qp(beam.make_benchmark(N=N).problem))
            p = len(shift)
            for density in rng.uniform(0.0, 0.2, size=1000):
                same(ActiveSet.from_indices((rng.random(p) < density).nonzero()[0]), shift)

    def test_unstaged_rows(self):
        # from_matrices labels every row stage 0.
        def qp(N):
            return LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)), G=np.eye(2),
                                          S=np.zeros((2, 1)), W=np.ones(2), N=N, n_u=2 // N)
        assert sim.warm_shift_map(qp(1)) == [0, 1]
        assert sim.warm_shift_map(qp(2)) == [-1, -1]

    def test_loop_passes_shifted_set(self):
        cfg = SimulationConfig(horizon=4, t_end=0.5, bound_scaling="reciprocal")
        bench = beam.make_benchmark(N=4, bound_scaling="reciprocal")
        qp = build_qp(bench.problem)
        shift = sim.warm_shift_map(qp)
        calls = []

        def recording(qp_, theta, warm, tol):
            res = solve(qp_, theta, warm=warm, tol=tol)
            calls.append((warm, res.active_set))
            return res

        sim.run_closed_loop(cfg, bench=bench, qp=qp, solver_fn=recording)
        assert calls[0][0] is None
        for (_, prev), (warm, _) in zip(calls, calls[1:]):
            assert warm == sim.shift_warm_set(prev, shift)
        # Some step's set leaves a row that the shift moves.
        assert any(warm is not None and len(warm) and warm != prev
                   for (_, prev), (warm, _) in zip(calls, calls[1:]))


class TestSweep:
    def test_single_cell(self):
        cfg = SimulationConfig(t_end=0.0625, mode="perfect", bound_scaling="reciprocal")
        rows = list(sim.benchmark_sweep([3], cfg=cfg))
        assert len(rows) == 1
        row = rows[0]
        assert row.N == 3
        assert row.p_tilde == 16
        assert row.log2_candidates == 16
        assert row.runtime_s > 0
        assert row.J_d > 0

    def test_rows_are_yielded_as_runs_finish(self, monkeypatch):
        cfg = SimulationConfig(t_end=0.03125, mode="perfect", bound_scaling="reciprocal")
        runs, run_closed_loop = [], sim.run_closed_loop

        def counting(run_cfg, **kwargs):
            runs.append(run_cfg.horizon)
            return run_closed_loop(run_cfg, **kwargs)

        monkeypatch.setattr(sim, "run_closed_loop", counting)
        sweep = sim.benchmark_sweep([3, 2], cfg=cfg)
        assert runs == []  # nothing runs before the first row is asked for
        assert next(sweep).N == 3 and runs == [3]
        assert next(sweep).N == 2 and runs == [3, 2]
        assert next(sweep, None) is None


class TestCsv:
    def test_step_round_trip(self, tmp_path, short_run):
        path = tmp_path / "steps.csv"
        sim.write_step_csv(path, short_run)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == sim.STEP_CSV_COLUMNS
        assert len(lines) == 2 + len(short_run.logs)
        first = lines[2].split(",")
        assert first[0] == "0"
        assert float(first[2]) == short_run.logs[0].u1  # %.17g is exact

    def test_zero_timing_is_reproducible(self, tmp_path, short_run):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, run in ((a, short_run), (b, sim.run_closed_loop(short_cfg()))):
            sim.write_step_csv(path, replace(run, logs=[sim.zero_timing(log) for log in run.logs]))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_timing_copies_and_zeroes_only_the_timings(self, short_run):
        log = short_run.logs[-1]
        assert log.wall_time > 0.0
        zeroed = sim.zero_timing(log)
        assert zeroed is not log and log.wall_time > 0.0
        assert zeroed == replace(log, wall_time=0.0)
        row = sim.BenchmarkRow(N=3, runtime_s=1.5, J_d=2.25, p_tilde=16, log2_candidates=16)
        assert sim.zero_timing(row) == replace(row, runtime_s=0.0)

    @staticmethod
    def per_field_row(record, zero_timing=False):
        """The CSV line rendered one field at a time, by each value's type."""
        cells = []
        for f in fields(record):
            v = 0.0 if zero_timing and f.metadata.get("timing") else getattr(record, f.name)
            cells.append(f"{v:.17g}" if isinstance(v, float) else str(v))
        return ",".join(cells)

    @pytest.mark.parametrize("zero_timing", [False, True])
    def test_template_matches_per_field_rendering(self, zero_timing, short_run):
        odd = [float("nan"), -0.0, np.float64(0.1), np.float64(-2.5e-300), float("inf"),
               1.0 / 3.0, 123456789.0, np.float64("nan")]
        records = list(short_run.logs)
        for i, v in enumerate(odd):
            w = odd[(i + 3) % len(odd)]
            records.append(sim.StepLog(step=i, time=v, u1=w, u2=-v, J_opt=v, J_cum=w,
                                       mean_x1=v, mean_x4=w, active_set=hex(i << 40),
                                       candidates=i, licq_failures=2 ** 60 + i,
                                       kkt_solves=0, wall_time=v))
            records.append(sim.BenchmarkRow(N=i, runtime_s=w, J_d=v,
                                            p_tilde=i, log2_candidates=i))
        for record in records:
            shown = sim.zero_timing(record) if zero_timing else record
            assert sim.csv_row(shown) == self.per_field_row(record, zero_timing)

    def test_benchmark_table(self, tmp_path):
        rows = [sim.BenchmarkRow(N=3, runtime_s=1.5, J_d=2.25, p_tilde=16, log2_candidates=16)]
        path = tmp_path / "table.csv"
        sim.write_benchmark_csv(path, rows)
        assert path.read_text().splitlines() == [sim.BENCHMARK_CSV_COLUMNS, "3,1.5,2.25,16,16"]
        sim.write_benchmark_csv(path, map(sim.zero_timing, rows))
        lines = path.read_text().splitlines()
        assert lines[0] == sim.BENCHMARK_CSV_COLUMNS
        assert lines[1] == "3,0,2.25,16,16"
