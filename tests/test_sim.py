"""Closed-loop harness: logging, determinism, solver variants, CSV output."""
import numpy as np
import pytest

from rfmpc import beam, sim
from rfmpc.lifting import LiftedQP, build as build_qp
from rfmpc.sim import SimulationConfig
from rfmpc.solver import ActiveSet, check_farkas, solve


def short_cfg(**kw):
    base = dict(horizon=4, t_end=0.125, mode="perfect")
    base.update(kw)
    return SimulationConfig(**base)


@pytest.fixture(scope="module")
def short_run():
    return sim.run_closed_loop(short_cfg())


class TestConfig:
    def test_step_count_rounding(self):
        assert SimulationConfig(t_end=10.0, h=2.0 ** -7).n_steps == 1280
        assert SimulationConfig(t_end=0.125, h=2.0 ** -7).n_steps == 16

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            sim.run_closed_loop(short_cfg(mode="exact"))


class TestClosedLoop:
    def test_log_and_trace_shapes(self, short_run):
        assert len(short_run.logs) == 16
        assert short_run.states.shape == (17, 36)
        assert short_run.means.shape == (17, 2)
        assert short_run.norms.shape == (17,)
        assert short_run.logs[0].step == 0
        assert short_run.logs[-1].time == pytest.approx(15 * 2.0 ** -7)

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

    def test_dual_reference_same_controls(self, short_run):
        viaduale = sim.run_closed_loop(short_cfg(), solver_fn=sim.dual_solver_fn)
        np.testing.assert_allclose(viaduale.u_phys, short_run.u_phys, atol=1e-6)

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
        # A bench or QP built for another step size or horizon than the
        # config's would be stepped and logged on the config's clock.
        bench = beam.make_benchmark(N=4)
        with pytest.raises(ValueError, match="does not match"):
            sim.run_closed_loop(short_cfg(h=2.0 ** -6), bench=bench)
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

    def test_physical_bounds_lose_feasibility_with_a_certificate(self):
        # At N = 10 the physical input bounds cannot hold the beam past step
        # 75.  The search stalls there and certifies it with a Farkas ray
        # after n_z KKT solves instead of spending its budget.
        calls = []

        def recording(qp, theta, warm, tol):
            calls.append((theta, solve(qp, theta, warm, tol)))
            return calls[-1][1]

        bench = beam.make_benchmark(N=10)
        qp = build_qp(bench.problem)
        with pytest.raises(sim.RecursiveFeasibilityError, match="at step 75 "):
            sim.run_closed_loop(short_cfg(horizon=10, t_end=1.0), bench=bench, qp=qp,
                                solver_fn=recording)
        theta, res = calls[-1]
        assert len(calls) == 76
        assert res.stats.kkt_solves == qp.n_z
        b = qp.W + qp.S @ np.concatenate([theta.x, theta.u_prev])
        assert check_farkas(qp.G, b, res.farkas)

    def test_budget_exhaustion_surfaces(self):
        cfg = short_cfg(t_end=0.5, horizon=10, max_kkt_solves=0)
        with pytest.raises(RuntimeError, match="budget exhausted"):
            sim.run_closed_loop(cfg)


class TestWarmShift:
    @pytest.fixture(scope="class")
    def qp3(self):
        # Stage 0 bounds the 4 inputs; stages 1 and 2 add 2 state rows each.
        return build_qp(beam.make_benchmark(N=3).problem)

    def test_map_over_beam_rows(self, qp3):
        offsets = qp3.stage_offsets
        assert qp3.p_tilde == 16
        shift = sim.warm_shift_map(qp3)
        assert shift.shape == (16,)
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
            assert all(0 <= i < 16 for i in shifted)

    def test_unstaged_rows(self):
        # from_matrices labels every row stage 0.
        def qp(N):
            return LiftedQP.from_matrices(H=np.eye(2), F=np.zeros((2, 1)), G=np.eye(2),
                                          S=np.zeros((2, 1)), W=np.ones(2), N=N, n_u=2 // N)
        np.testing.assert_array_equal(sim.warm_shift_map(qp(1)), [0, 1])
        np.testing.assert_array_equal(sim.warm_shift_map(qp(2)), [-1, -1])

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
        rows = sim.benchmark_sweep([3], cfg=cfg)
        assert len(rows) == 1
        row = rows[0]
        assert row.N == 3
        assert row.algorithm == "empc"
        assert row.p_tilde == 16
        assert row.log2_candidates == 16
        assert row.runtime_s > 0
        assert row.J_d > 0

    def test_variants_agree_on_cost(self):
        cfg = SimulationConfig(t_end=0.0625, mode="perfect", bound_scaling="reciprocal")
        rows = sim.benchmark_sweep([3], algorithms=("empc", "dual"), cfg=cfg)
        costs = {r.algorithm: r.J_d for r in rows}
        assert costs["empc"] == pytest.approx(costs["dual"], rel=1e-6)

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            sim.benchmark_sweep([3], algorithms=("simplex",))

    def test_progress_callback(self):
        cfg = SimulationConfig(t_end=0.03125, mode="perfect", bound_scaling="reciprocal")
        seen = []
        sim.benchmark_sweep([3], cfg=cfg, progress=seen.append)
        assert len(seen) == 1
        assert seen[0].N == 3


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
        sim.write_step_csv(a, short_run, zero_timing=True)
        sim.write_step_csv(b, sim.run_closed_loop(short_cfg()), zero_timing=True)
        assert a.read_bytes() == b.read_bytes()

    def test_benchmark_table(self, tmp_path):
        rows = [sim.BenchmarkRow(N=3, algorithm="empc", runtime_s=1.5,
                                 J_d=2.25, p_tilde=16, log2_candidates=16)]
        path = tmp_path / "table.csv"
        sim.write_benchmark_csv(path, rows, zero_timing=True)
        lines = path.read_text().splitlines()
        assert lines[0] == sim.BENCHMARK_CSV_COLUMNS
        assert lines[1] == "3,empc,0,2.25,16,16"
