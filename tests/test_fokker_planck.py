import math

import numpy as np
import pytest

from flowlab import fokker_planck
from flowlab.coefficients import builtin_coefficients
from flowlab.errors import ConfigError, SolverFailureError
from flowlab.fokker_planck import (
    FPGrid,
    GridSampler1D,
    density_factorization,
    diffusion_matrix,
    fp_solve,
    mc_measure,
    smooth_bump,
    suggest_radius,
    weak_error,
    write_solution_csv,
)
from flowlab.oracles import heat_variance, ou_pushforward_variance


class TestDiffusionMatrix:
    def test_triangular(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        field = builtin_coefficients("anisotropic", d=2, matrix=A)
        a = diffusion_matrix(field, 0.0, np.zeros((1, 2)))[0]
        np.testing.assert_allclose(a, [[5.0, 2.0], [2.0, 1.0]])

    def test_identity(self, translate1):
        a = diffusion_matrix(translate1, 0.0, np.zeros((3, 1)))
        np.testing.assert_allclose(a, np.ones((3, 1, 1)))

    def test_scalar(self):
        field = builtin_coefficients("anisotropic", d=1, matrix=[[2.0]])
        a = diffusion_matrix(field, 0.0, np.zeros((1, 1)))
        assert a[0, 0, 0] == pytest.approx(4.0)


class TestSolver:
    def test_heat_variance(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 1.0, 1e-3)
        target = heat_variance(1.0)
        assert abs(sol.grid.variance() - target) <= 0.01 * target

    def test_ou_variance(self, ou1):
        grid = FPGrid.gaussian(1, 8.0, 0.025)
        sol = fp_solve(ou1, grid, 0.0, 0.5, 1.25e-4)
        target = ou_pushforward_variance(1.0, 0.5)
        assert abs(sol.grid.variance() - target) <= 0.02 * target

    def test_symmetry_preserved(self, translate1):
        grid = FPGrid.gaussian(1, 6.0, 0.1)
        sol = fp_solve(translate1, grid, 0.0, 0.5, 2e-3)
        np.testing.assert_allclose(sol.grid.u, sol.grid.u[::-1], atol=1e-15)

    def test_zero_steps_returns_initial(self, translate1):
        grid = FPGrid.gaussian(1, 6.0, 0.1)
        sol = fp_solve(translate1, grid, 0.0, 0.0, 1e-3)
        np.testing.assert_array_equal(sol.grid.u, grid.u)

    @pytest.mark.parametrize("T, tau", [(-0.1, 1e-3), (0.1, 0.03), (0.1, 0.0)])
    def test_horizon_must_be_a_grid(self, translate1, T, tau):
        with pytest.raises(ConfigError):
            fp_solve(translate1, FPGrid.gaussian(1, 6.0, 0.1), 0.0, T, tau)

    def test_mass_audit(self, ou1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(ou1, grid, 0.0, 0.25, 5e-4)
        assert sol.audit_residual <= 1e-10
        ledger = abs((grid.mass() - sol.total_leakage + sol.total_clipped) - sol.grid.mass())
        assert ledger <= 1e-9

    def test_grid_convergence_second_order(self, translate1):
        target = heat_variance(0.5)
        errs = []
        for h, tau in ((0.2, 1e-2), (0.1, 2.5e-3)):
            grid = FPGrid.gaussian(1, 8.0, h)
            sol = fp_solve(translate1, grid, 0.0, 0.5, tau)
            ax = sol.grid.axis
            exact = np.exp(-(ax**2) / (2 * target)) / math.sqrt(2 * math.pi * target)
            errs.append(np.abs(sol.grid.u - exact).sum() * h)
        assert errs[1] <= errs[0] / 3.0

    def test_stability_bound_enforced(self, translate1):
        grid = FPGrid.gaussian(1, 6.0, 0.1)
        with pytest.raises(ConfigError):
            fp_solve(translate1, grid, 0.0, 0.1, 0.01)

    def test_clip_guard_trips(self, translate1):
        grid = FPGrid.gaussian(1, 6.0, 0.1)
        with pytest.raises(SolverFailureError):
            fp_solve(translate1, grid, 0.0, 0.1, 2e-3, max_clip_per_step=-1.0)

    def test_2d_heat_variance(self):
        field = builtin_coefficients("translate", d=2)
        grid = FPGrid.gaussian(2, 6.0, 0.1)
        sol = fp_solve(field, grid, 0.0, 0.5, 2e-3)
        assert sol.grid.variance() == pytest.approx(2.0 * heat_variance(0.5), rel=0.01)

    def test_2d_cross_terms(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        field = builtin_coefficients("anisotropic", d=2, matrix=A)
        grid = FPGrid.gaussian(2, 6.0, 0.1)
        sol = fp_solve(field, grid, 0.0, 0.25, 1e-3)
        # covariance evolves as C(t) = C0 + t a
        a = A @ A.T
        pts = sol.grid.points()
        w = sol.grid.u.reshape(-1) * sol.grid.h**2 / sol.grid.mass()
        mean = w @ pts
        centered = pts - mean
        cov = np.einsum("n,na,nb->ab", w, centered, centered)
        np.testing.assert_allclose(cov, np.eye(2) + 0.25 * a, atol=0.02)

    def test_radius_suggestion(self, translate1):
        r = suggest_radius(translate1, 1.0)
        assert 6.0 < r < 10.0

    def test_csv_export(self, translate1, tmp_path):
        grid = FPGrid.gaussian(1, 4.0, 0.5)
        sol = fp_solve(translate1, grid, 0.0, 0.1, 2e-2, n_frames=2)
        path = tmp_path / "sol.csv"
        write_solution_csv(sol, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,u"
        assert len(lines) > 17


class TestMonteCarloSide:
    def test_probability_conservation(self, translate1):
        est = mc_measure(translate1, ("gaussian", 500), lambda X: np.ones(X.shape[0]),
                         0.0, 0.2, 1e-2, seed=3)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_driftless_martingale(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        field = builtin_coefficients("anisotropic", d=2, matrix=A)
        est = mc_measure(field, ("gaussian", 20000), lambda X: X[:, 0], 0.0, 0.5, 2e-3, seed=5)
        assert abs(est.value) <= 3.0 * est.stderr

    def test_translate_second_moment(self, translate1):
        est = mc_measure(translate1, ("gaussian", 20000), lambda X: X[:, 0] ** 2,
                         0.0, 1.0, 2e-3, seed=7)
        assert abs(est.value - 2.0) <= 3.0 * est.stderr


class TestWeakError:
    def _phis(self):
        return [smooth_bump(c, 1.5) for c in (-1.0, 0.0, 1.0)]

    def test_degenerate_horizon(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.0, 1e-3)
        rep = weak_error(sol, translate1, ("gaussian", 40000), self._phis(),
                         0.0, 0.0, 1e-3, seed=11)
        assert rep.max_discrepancy <= 3.0 * max(m.stderr for m in rep.mc_values) + 1e-3

    def test_heat_agreement(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 1.0, 1e-3)
        coarse = fp_solve(translate1, FPGrid.gaussian(1, 8.0, 0.1), 0.0, 1.0, 4e-3)
        rep = weak_error(sol, translate1, ("gaussian", 50000), self._phis(),
                         0.0, 1.0, 2e-3, seed=13, fp_coarse=coarse)
        assert rep.max_discrepancy <= 2e-2
        assert rep.max_discrepancy <= 3.0 * rep.max_combined_bar()

    def test_labels_name_each_bump(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.2)
        sol = fp_solve(translate1, grid, 0.0, 0.0, 1e-2)
        phis = [smooth_bump(c, 1.5) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        rep = weak_error(sol, translate1, ("gaussian", 200), phis, 0.0, 0.0, 1e-2, seed=3)
        assert len(set(rep.labels)) == len(phis)
        assert rep.labels[0] == "bump(c=-2,w=1.5)"
        assert smooth_bump((1.0, -0.5), 0.25).__name__ == "bump(c=(1,-0.5),w=0.25)"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mc_values_equal_mc_measure(self, translate1, threads):
        # 10000 paths make two chunks, so threads=2 runs them on the pool
        grid = FPGrid.gaussian(1, 8.0, 0.2)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-2)
        phis = self._phis()
        rep = weak_error(sol, translate1, ("gaussian", 10000), phis, 0.0, 0.25, 1e-2,
                         seed=19, threads=threads)
        for phi, mc in zip(phis, rep.mc_values):
            ref = mc_measure(translate1, ("gaussian", 10000), phi, 0.0, 0.25, 1e-2,
                             seed=19, threads=threads)
            assert (mc.value, mc.stderr) == (ref.value, ref.stderr)

    def test_simulates_one_ensemble(self, translate1, monkeypatch):
        calls = []
        real = fokker_planck.simulate_ensemble

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fokker_planck, "simulate_ensemble", counted)
        grid = FPGrid.gaussian(1, 8.0, 0.2)
        sol = fp_solve(translate1, grid, 0.0, 0.1, 1e-2)
        weak_error(sol, translate1, ("gaussian", 500), self._phis(), 0.0, 0.1, 1e-2, seed=5)
        assert len(calls) == 1

    def test_support_outside_domain(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-3)
        phi = smooth_bump(20.0, 1.0)
        rep = weak_error(sol, translate1, ("gaussian", 2000), [phi], 0.0, 0.25, 1e-2, seed=17)
        assert rep.fp_values[0] == 0.0
        assert rep.mc_values[0].value == 0.0


class TestFactorization:
    def test_grid_sampler_moments(self):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sampler = GridSampler1D(grid)
        x = sampler.sample(200000, seed=19)[:, 0]
        assert abs(x.mean()) <= 0.02
        assert abs(x.var() - 1.0) <= 0.02

    def test_degenerate_horizon_binning_only(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.0, 1e-3)
        rep = density_factorization(translate1, grid, sol, 0.0, 0.0, 400000, 1e-3, seed=23)
        assert rep.l1_discrepancy <= 2e-2

    def test_translate_quarter_horizon(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-3)
        rep = density_factorization(translate1, grid, sol, 0.0, 0.25, 200000, 1e-3, seed=29)
        assert rep.l1_discrepancy <= 5e-2
        assert rep.out_of_domain_fraction <= 1e-4
        assert rep.flagged_mass <= 1e-3

    def test_flagging_not_averaging(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-3)
        rep = density_factorization(translate1, grid, sol, 0.0, 0.25, 2000, 1e-2, seed=31,
                                    min_count=50)
        assert rep.n_flagged_cells > 0
        assert rep.n_valid_cells + rep.n_flagged_cells == grid.u.shape[0]
