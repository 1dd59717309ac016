"""Beam discretization: basis, Galerkin operators, Cayley step, FD plant."""
import numpy as np
import pytest
from scipy import linalg, special
from scipy.integrate import solve_ivp

from reference import fd_energy, fd_generator
from rfmpc import beam, lifting, problem as pb, sim


@pytest.fixture(scope="module")
def galerkin():
    return beam.assemble()


@pytest.fixture(scope="module")
def fd(galerkin):
    return beam.make_fd_plant(galerkin)


class TestLegendreBasis:
    def test_matches_reference_legendre(self):
        # Difference and sum members against scipy's shifted Legendre polynomials.
        n = 40
        xi = np.linspace(0.0, 1.0, 41)
        basis = beam.build_basis(n)
        L = np.column_stack([special.eval_sh_legendre(k, xi) for k in range(n + 1)])
        for c in (0, 2):
            np.testing.assert_allclose(basis.eval_component(c, xi)[:, :-1], L[:, :n - 1] - L[:, 1:n],
                                       rtol=0, atol=1e-13)
        for c in (1, 3):
            np.testing.assert_allclose(basis.eval_component(c, xi), L[:, :n] + L[:, 1:], rtol=0, atol=1e-13)

    def test_boundary_member_is_the_monomial(self):
        xi = np.linspace(0.0, 1.0, 41)
        basis = beam.build_basis(40)
        for c in (0, 2):
            np.testing.assert_allclose(basis.eval_component(c, xi)[:, -1], xi ** beam.M_BOUNDARY,
                                       rtol=0, atol=1e-14)

    def test_orthogonality(self):
        # <L_j, L_k> = delta_jk / (2k + 1), so the mass block of the sums
        # L_k + L_{k+1} is tridiagonal with known entries.
        n = 40
        g = beam.assemble(n)
        k = np.arange(n)
        off = 1.0 / (2 * k[:-1] + 3)
        want = np.diag(1.0 / (2 * k + 1) + 1.0 / (2 * k + 3)) + np.diag(off, 1) + np.diag(off, -1)
        for c in (1, 3):
            s = g.component_slices[c]
            np.testing.assert_allclose(g.M_mass[s, s], want, rtol=0, atol=1e-13)

    def test_component_sizes(self, galerkin):
        assert galerkin.basis.sizes == [9, 9, 9, 9]
        assert galerkin.n_state == 36

    @pytest.mark.parametrize("n_basis", [0, -2])
    def test_basis_needs_a_member(self, n_basis):
        with pytest.raises(ValueError, match=f"n_basis = {n_basis} must be at least 1"):
            beam.build_basis(n_basis)

    def test_one_member_per_component(self):
        g = beam.assemble(1)
        assert g.basis.sizes == [1, 1, 1, 1]
        assert np.abs(np.linalg.eigvals(g.generator()).real).max() < 1e-12

    def test_displacement_basis_vanishes_at_actuated_end(self, galerkin):
        # Components 1 and 3 satisfy the homogeneous boundary condition at
        # xi = 1 for every basis function except the boundary monomial, which
        # is exactly the handle the input enters through.
        for c in (0, 2):
            vals = galerkin.basis.eval_component(c, np.array([1.0]))[0]
            np.testing.assert_allclose(vals[:-1], 0.0, atol=1e-12)
            assert vals[-1] == pytest.approx(1.0)

    def test_momentum_basis_vanishes_at_clamped_end(self, galerkin):
        for c in (1, 3):
            vals = galerkin.basis.eval_component(c, np.array([0.0]))[0]
            np.testing.assert_allclose(vals, 0.0, atol=1e-12)

    def test_reconstruct(self, galerkin):
        xi = np.linspace(0, 1, 11)
        a = np.zeros(9)
        a[0] = 2.0
        vals = galerkin.basis.reconstruct(1, a, xi)
        np.testing.assert_allclose(
            vals, 2.0 * galerkin.basis.eval_component(1, xi)[:, 0]
        )


class TestGalerkinOperators:
    def test_mass_matrix_spd(self, galerkin):
        M = galerkin.M_mass
        np.testing.assert_allclose(M, M.T, atol=1e-14)
        assert np.min(np.linalg.eigvalsh(M)) > 0
        assert np.linalg.cond(M) == pytest.approx(317.887, rel=1e-3)

    def test_stiffness_skew(self, galerkin):
        K = galerkin.K_stiff
        assert np.max(np.abs(K + K.T)) < 1e-12 * np.max(np.abs(K))

    def test_generator_is_lossless(self, galerkin):
        # Skew stiffness against the mass inner product: purely oscillatory.
        eigs = np.linalg.eigvals(galerkin.generator())
        assert np.max(np.abs(eigs.real)) < 1e-10

    @pytest.mark.parametrize("n_basis, cond_bound", [(25, 1.5e4), (30, 2.5e4), (40, 6e4), (60, 2e5)])
    def test_large_basis_is_lossless(self, n_basis, cond_bound):
        # Measured cond(M): 1.06e4, 1.91e4, 4.73e4 and 1.67e5.
        g = beam.assemble(n_basis)
        assert np.max(np.abs(np.linalg.eigvals(g.generator()).real)) < 1e-10
        assert np.linalg.cond(g.M_mass) < cond_bound

    def test_mean_rows_exact(self, galerkin):
        # The boundary monomial xi^12 integrates to 1/13.
        row = galerkin.mean_row(0)
        alpha = np.zeros(36)
        alpha[8] = 1.0  # last basis function of component 1
        assert row @ alpha == pytest.approx(1.0 / 13.0, abs=1e-14)
        # Means only touch their own component block.
        assert np.count_nonzero(row[9:]) == 0

    def test_mean_rows_match_quadrature(self, galerkin):
        rng = np.random.default_rng(6)
        x_g, w_g = np.polynomial.legendre.leggauss(32)
        xi = 0.5 * (x_g + 1.0)
        w = 0.5 * w_g
        for c in (0, 3):
            a = rng.normal(size=9)
            alpha = np.zeros(36)
            alpha[galerkin.component_slices[c]] = a
            direct = np.sum(w * galerkin.basis.reconstruct(c, a, xi))
            assert galerkin.mean_row(c) @ alpha == pytest.approx(direct, abs=1e-10)

    def test_input_enters_through_actuated_end(self, galerkin):
        B = galerkin.B_in
        assert B.shape == (36, 2)
        # Input 1 forces the momentum block (component 2), input 2 the
        # angular momentum block (component 4); nothing else.
        nz = np.nonzero(np.any(B != 0.0, axis=1))[0]
        slices = galerkin.component_slices
        assert all(slices[1].start <= i < slices[1].stop or
                   slices[3].start <= i < slices[3].stop for i in nz)


class TestCayley:
    def test_unit_circle(self, galerkin):
        plant = beam.cayley_discretize(galerkin)
        mags = np.abs(np.linalg.eigvals(plant.A_d))
        np.testing.assert_allclose(mags, 1.0, atol=1e-12)

    def test_resolvent_identity(self, galerkin):
        plant = beam.cayley_discretize(galerkin)
        A0 = galerkin.generator()
        sigma = 2.0 / beam.SAMPLING_INTERVAL
        lhs = (sigma * np.eye(36) - A0) @ plant.A_d
        rhs = sigma * np.eye(36) + A0
        np.testing.assert_allclose(lhs, rhs, atol=1e-8 * sigma)

    def test_free_step_preserves_energy(self, galerkin):
        plant = beam.cayley_discretize(galerkin)
        M = galerkin.M_mass
        rng = np.random.default_rng(12)
        for _ in range(3):
            x = rng.normal(size=36)
            x_next = plant.A_d @ x
            assert x_next @ M @ x_next == pytest.approx(x @ M @ x, rel=1e-10)


class TestBenchmarkProblem:
    def test_row_counts(self):
        for N in (3, 10):
            p = beam.make_benchmark(N=N).problem
            assert p.constraints.p_tilde == 6 * N - 2
            assert p.constraints.rows_per_stage[0] == 4
            assert all(r == 6 for r in p.constraints.rows_per_stage[1:])
            assert p.constraints.p_hat == 0

    def test_validates_and_lifts(self):
        p = beam.make_benchmark(N=3).problem
        assert pb.validate(p) == []
        qp = lifting.build(p)
        assert qp.p_tilde == 16
        assert qp.n_z == 6

    def test_bound_scaling_conventions(self):
        h = beam.SAMPLING_INTERVAL
        phys = beam.make_benchmark(N=2, bound_scaling="physical").problem
        recip = beam.make_benchmark(N=2, bound_scaling="reciprocal").problem
        np.testing.assert_allclose(phys.constraints.d[0], np.sqrt(h) * 0.5)
        np.testing.assert_allclose(recip.constraints.d[0], 0.5 / np.sqrt(h))
        # State bounds are in physical units in either convention.
        np.testing.assert_allclose(phys.constraints.d[1][4:], [0.45, 0.3])
        np.testing.assert_allclose(recip.constraints.d[1][4:], [0.45, 0.3])

    def test_unknown_scaling_rejected(self):
        with pytest.raises(ValueError, match="bound_scaling"):
            beam.make_benchmark(N=2, bound_scaling="inverse")

    def test_weights(self):
        h = beam.SAMPLING_INTERVAL
        p = beam.make_benchmark(N=2).problem
        g = beam.assemble()
        np.testing.assert_allclose(p.weights.Q[0], h * 100.0 * g.M_mass, atol=1e-12)
        np.testing.assert_allclose(p.weights.R[0], np.eye(2))
        np.testing.assert_allclose(p.weights.V[0], (0.1 / h**2) * np.eye(2))
        np.testing.assert_allclose(p.weights.V[-1], 0.0)  # no terminal rate penalty
        np.testing.assert_allclose(p.weights.P, 0.0)


class TestInitialCondition:
    def test_unit_energy_norm(self, galerkin):
        alpha, errors = beam.project_initial_condition(galerkin)
        M = galerkin.M_mass
        assert np.sqrt(alpha @ M @ alpha) == pytest.approx(1.0, abs=1e-9)
        assert max(errors) < 1e-6

    def test_rest_components_are_zero(self, galerkin):
        alpha, _ = beam.project_initial_condition(galerkin)
        np.testing.assert_allclose(alpha[galerkin.component_slices[0]], 0.0, atol=1e-12)
        np.testing.assert_allclose(alpha[galerkin.component_slices[3]], 0.0, atol=1e-12)

    def test_profile_pointwise_accuracy(self, galerkin):
        alpha, _ = beam.project_initial_condition(galerkin)
        xi = np.linspace(0, 1, 33)
        a2 = alpha[galerkin.component_slices[1]]
        np.testing.assert_allclose(
            galerkin.basis.reconstruct(1, a2, xi), np.sin(np.pi * xi / 2), atol=1e-7
        )


class TestFiniteDifferencePlant:
    def test_difference_matrix_exact_on_linear(self):
        n = 17
        D = beam._diff_matrix(n, 1.0 / (n - 1))
        grid = np.linspace(0, 1, n)
        np.testing.assert_allclose(D @ np.ones(n), 0.0, atol=1e-12)
        np.testing.assert_allclose(D @ grid, np.ones(n), atol=1e-10)

    def test_shapes(self, fd):
        assert fd.n_grid == 127
        assert fd.observer.shape == (36, 508)
        state = fd.from_grid(beam.initial_grid_state(fd))
        assert state.shape == (506,)
        assert fd.to_grid(state).shape == (508,)
        assert fd.to_grid(np.stack([state] * 3)).shape == (3, 508)
        assert fd.observe(state).shape == (36,)

    def test_boundary_enforcement(self, fd):
        y = np.ones(508)
        y2 = fd.enforce_bc(y, np.array([0.25, -0.5]))
        n = fd.n_grid
        assert y2[n - 1] == 0.25
        assert y2[n] == 0.0
        assert y2[2 * n + n - 1] == -0.5
        assert y2[3 * n] == 0.0

    def test_grid_round_trip(self, fd):
        y = fd.enforce_bc(np.random.default_rng(5).normal(size=508), np.array([0.25, -0.5]))
        state = fd.from_grid(y)
        np.testing.assert_allclose(state[-2:], [0.25, -0.5], rtol=1e-15)
        np.testing.assert_allclose(fd.to_grid(state), y, rtol=0, atol=1e-13)

    def test_free_evolution_conserves_energy(self, fd):
        y = beam.initial_grid_state(fd)
        e0 = fd_energy(fd, y)
        s = fd.from_grid(y)
        for _ in range(4):
            s = beam.fd_plant_step(fd, s, np.zeros(2))
        assert fd_energy(fd, fd.to_grid(s)) == pytest.approx(e0, rel=1e-7)

    def test_step_matches_high_order_reference(self, fd):
        h = beam.SAMPLING_INTERVAL
        u = np.array([0.3, -0.2])
        A, B = fd_generator(fd)
        forcing = B @ u
        ref = beam.initial_grid_state(fd)
        s = fd.from_grid(ref)
        for _ in range(8):
            s = beam.fd_plant_step(fd, s, u)
            y = fd.to_grid(s)
            ref = solve_ivp(
                lambda t, s: A @ s + forcing, (0.0, h), fd.enforce_bc(ref, u),
                method="DOP853", rtol=1e-12, atol=1e-14,
            ).y[:, -1]
            assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n_grid", [10, 33, 127])
    def test_step_matches_dense_expm_reference(self, galerkin, n_grid):
        # The exact zero-order-hold step as the top rows of one dense matrix
        # exponential (Van Loan, IEEE TAC 1978).
        fd = beam.make_fd_plant(galerkin, n_grid)
        h = beam.SAMPLING_INTERVAL
        A, B = fd_generator(fd)
        n, m = B.shape
        step = linalg.expm(np.block([[A * h, B * h], [np.zeros((m, n + m))]]))[:n]
        rng = np.random.default_rng(n_grid)
        y = beam.initial_grid_state(fd)
        s = fd.from_grid(y)
        for u in rng.uniform(-1.0, 1.0, size=(200, 2)):
            y = step @ np.concatenate([fd.enforce_bc(y, u), u])
            s = beam.fd_plant_step(fd, s, u)
            assert np.linalg.norm(fd.to_grid(s) - y) <= 1e-12 * np.linalg.norm(y)
        alpha = fd.observer @ y
        assert np.linalg.norm(fd.observe(s) - alpha) <= 1e-12 * np.linalg.norm(alpha)

    @pytest.mark.parametrize("n_grid", [10, 33, 127])
    def test_modes_diagonalize_the_generator(self, galerkin, n_grid):
        # Checked in extended precision: a float64 SVD alone leaves L^T P R
        # off-diagonal by 7, 17 and 34 ulps of max(sigma) on these grids.
        fd = beam.make_fd_plant(galerkin, n_grid)
        md = fd._modes
        root = np.sqrt(np.tile(fd.trapz_w, 4))
        P = root[md.idx_a, None] * fd_generator(fd)[0][np.ix_(md.idx_a, md.idx_b)] / root[md.idx_b]
        L = (md.grid_a * root[md.idx_a, None]).astype(np.longdouble)
        R = (md.grid_b * root[md.idx_b, None]).astype(np.longdouble)
        eps = np.finfo(float).eps
        residual = L.T @ P.astype(np.longdouble) @ R - np.diag(md.sigma)
        assert np.abs(residual).max() <= 4 * eps * md.sigma.max()
        for V in (L, R):
            assert np.abs(V.T @ V - np.eye(len(V))).max() <= 8 * eps

    def test_step_keeps_boundary_entries_pinned(self, fd):
        u = np.array([0.25, -0.5])
        s = beam.fd_plant_step(fd, fd.from_grid(beam.initial_grid_state(fd)), u)
        y = fd.to_grid(s)
        n = fd.n_grid
        pinned = [n - 1, n, 2 * n + n - 1, 3 * n]
        np.testing.assert_array_equal(y[pinned], fd.enforce_bc(y, u)[pinned])

    def test_free_step_energy_drift_is_roundoff(self, fd):
        y = beam.initial_grid_state(fd)
        e0 = fd_energy(fd, y)
        s = fd.from_grid(y)
        for _ in range(4):
            s = beam.fd_plant_step(fd, s, np.zeros(2))
        assert fd_energy(fd, fd.to_grid(s)) == pytest.approx(e0, rel=1e-12)

    def test_step_matrix_built_once_per_plant(self, galerkin, monkeypatch):
        # The step operators are fields of the modal form, which the first
        # from_grid builds; nothing after it builds anything.
        calls = []
        original = beam._modal_form

        def counting(fd):
            calls.append(fd)
            return original(fd)

        monkeypatch.setattr(beam, "_modal_form", counting)
        fd = beam.make_fd_plant(galerkin)
        assert calls == []
        s = fd.from_grid(beam.initial_grid_state(fd))
        assert calls == [fd]
        u = np.array([0.1, 0.2])
        for _ in range(4):
            s = beam.fd_plant_step(fd, s, u)
        fd.observe(s)
        fd.to_grid(s)
        assert calls == [fd]
        # A fresh plant builds its own.
        fresh = beam.make_fd_plant(galerkin)
        beam.fd_plant_step(fresh, s, u)
        assert calls == [fd, fresh]

    @pytest.mark.parametrize("perturb", [
        lambda D: D - 1e-3 * np.eye(len(D)),  # a symmetric part of W D dissipates energy
        lambda D: D + 0.5 * np.eye(len(D), k=1) * (np.arange(len(D))[:, None] == 3),  # D[3, 4]
    ], ids=["damped", "asymmetric"])
    def test_non_lossless_model_rejected(self, galerkin, monkeypatch, perturb):
        # Difference matrices that are not summation-by-parts against the
        # trapezoidal weights.
        sbp = beam._diff_matrix
        monkeypatch.setattr(beam, "_diff_matrix", lambda n, delta: perturb(sbp(n, delta)))
        state = np.zeros(506)
        with pytest.raises(ValueError, match="not lossless"):
            beam.fd_plant_step(beam.make_fd_plant(galerkin), state, np.zeros(2))
        with pytest.raises(ValueError, match="not lossless"):
            beam.make_fd_plant(galerkin).observe(state)

    @pytest.mark.parametrize("n_grid", [127, 255])
    def test_measure_matches_grid_and_loop_needs_no_grid(self, galerkin, n_grid, monkeypatch):
        fd = beam.make_fd_plant(galerkin, n_grid)
        rng = np.random.default_rng(n_grid)
        states = rng.standard_normal((8, 4 * n_grid - 2))
        states[:, -2:] *= 10.0  # held inputs that dominate the pinned entries
        for s in states:
            y = fd.to_grid(s)
            ref_means = [np.trapezoid(fd.component(y, c), fd.grid) for c in (0, 3)]
            ref_norm = np.sqrt(sum(np.trapezoid(y_c**2, fd.grid) for y_c in np.split(y, 4)))
            means, norm = fd.measure(s)
            # A mean is at most the norm, the scale its roundoff is relative to.
            assert np.abs(means - ref_means).max() <= 1e-12 * ref_norm
            assert abs(norm - ref_norm) <= 1e-12 * ref_norm
        # Once its maps exist, a closed loop measures the plant without its grid.
        calls = []
        to_grid = fd.to_grid
        monkeypatch.setattr(fd, "to_grid", lambda s: (calls.append(1), to_grid(s))[1])
        cfg = sim.SimulationConfig(horizon=4, t_end=0.75, mode="fd", n_grid=n_grid,
                                   bound_scaling="reciprocal")
        sim.run_closed_loop(cfg, bench=beam.make_benchmark(N=4, bound_scaling="reciprocal"),
                            plant=fd)
        assert calls == []

    def test_block_diagonals_match_scipy(self, fd, galerkin):
        n = fd.n_grid
        slices = galerkin.component_slices
        np.testing.assert_array_equal(
            galerkin.M_mass, linalg.block_diag(*(galerkin.M_mass[s, s] for s in slices)))
        np.testing.assert_array_equal(fd.observer, linalg.block_diag(
            *(fd.observer[s, c * n : (c + 1) * n] for c, s in enumerate(slices))))

    def test_observer_recovers_coefficients(self, fd, galerkin):
        rng = np.random.default_rng(3)
        alpha = rng.normal(size=36)
        y = np.concatenate([
            galerkin.basis.reconstruct(c, alpha[galerkin.component_slices[c]], fd.grid)
            for c in range(4)
        ])
        np.testing.assert_allclose(fd.observer @ y, alpha, atol=1e-6)

    def test_coarsest_grid(self, galerkin):
        # 9 members per component; the momentum members vanish at the
        # clamped-end node, so the projection needs 10 grid points.
        for n_grid in (0, 1, 9):
            with pytest.raises(ValueError, match=f"n_grid = {n_grid} is too coarse"):
                beam.make_fd_plant(galerkin, n_grid)
        coarse = beam.make_fd_plant(galerkin, 10)
        alpha = np.random.default_rng(4).normal(size=36)
        y = np.concatenate([
            galerkin.basis.reconstruct(c, alpha[galerkin.component_slices[c]], coarse.grid)
            for c in range(4)
        ])
        np.testing.assert_allclose(coarse.observer @ y, alpha, atol=1e-6)

    def test_means_match_projection(self, fd, galerkin):
        y = beam.initial_grid_state(fd)
        alpha = fd.observe(fd.from_grid(y))
        assert fd.mean(y, 0) == pytest.approx(galerkin.mean_row(0) @ alpha, abs=1e-6)

    def test_initial_energy_near_half(self, fd):
        # ||x0|| = 1 in the energy norm, so the energy functional is 1/2.
        y = beam.initial_grid_state(fd)
        assert fd_energy(fd, y) == pytest.approx(0.5, rel=1e-3)


class TestBenchmarkBundle:
    def test_wiring(self):
        bench = beam.make_benchmark(N=4)
        assert bench.problem.horizon == 4
        assert beam.SAMPLING_INTERVAL == 2.0 ** -7
        assert bench.u_scale == pytest.approx(np.sqrt(beam.SAMPLING_INTERVAL))
        assert bench.galerkin.basis.sizes == [9, 9, 9, 9]
        assert bench.galerkin.mean_row(0) @ bench.x0 == pytest.approx(0.0, abs=1e-12)
        assert bench.x0.shape == (36,)
        np.testing.assert_allclose(bench.problem.constraints.d[1][4:], [0.45, 0.3])

    @pytest.mark.parametrize("N", [0, -1])
    def test_horizon_must_be_positive(self, N):
        with pytest.raises(ValueError, match=f"horizon N = {N} must be at least 1"):
            beam.make_benchmark(N=N)

    def test_one_assembly_and_discretization(self, monkeypatch):
        calls = []

        def counting(name):
            original = getattr(beam, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        for name in ("assemble", "cayley_discretize"):
            monkeypatch.setattr(beam, name, counting(name))
        bench = beam.make_benchmark(N=3)
        assert sorted(calls) == ["assemble", "cayley_discretize"]
        np.testing.assert_array_equal(bench.problem.prediction_model.A, bench.plant.A_d)
