import dataclasses
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

from conftest import make_sine_field


# ---------------------------------------------------------------------------
# reference: the step and the loop as first written, fresh arrays every step
# ---------------------------------------------------------------------------

def _reference_step_1d(u, a, b, h, tau):
    G = a * u
    Gpad = np.concatenate([[0.0], G, [0.0]])
    upad = np.concatenate([[0.0], u, [0.0]])
    bpad = np.concatenate([[b[0]], b, [b[-1]]])
    bf = 0.5 * (bpad[:-1] + bpad[1:])
    diff_flux = 0.5 * (Gpad[1:] - Gpad[:-1]) / h
    adv_flux = np.maximum(bf, 0.0) * upad[:-1] + np.minimum(bf, 0.0) * upad[1:]
    F = diff_flux - adv_flux
    u_new = u + (tau / h) * (F[1:] - F[:-1])
    boundary = -tau * (F[-1] - F[0])
    return u_new, boundary


def _reference_step_2d(u, a, b, h, tau):
    a11, a12, a22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    b1, b2 = b[..., 0], b[..., 1]
    G11, G12, G22 = a11 * u, a12 * u, a22 * u

    def pad(v, axis):
        shape = list(v.shape)
        shape[axis] = 1
        z = np.zeros(shape)
        return np.concatenate([z, v, z], axis=axis)

    def centered(v, axis):
        vp = pad(v, axis)
        if axis == 0:
            return (vp[2:, :] - vp[:-2, :]) / (2.0 * h)
        return (vp[:, 2:] - vp[:, :-2]) / (2.0 * h)

    def edge_extend(v, axis):
        if axis == 0:
            return np.concatenate([v[:1, :], v, v[-1:, :]], axis=0)
        return np.concatenate([v[:, :1], v, v[:, -1:]], axis=1)

    def face_flux(G_diag, cross_term, bvel, uv, axis):
        Gp = pad(G_diag, axis)
        up = pad(uv, axis)
        cp = pad(cross_term, axis)
        bp = edge_extend(bvel, axis)
        if axis == 0:
            diff = 0.5 * (Gp[1:, :] - Gp[:-1, :]) / h
            cross = 0.5 * (cp[1:, :] + cp[:-1, :])
            bf = 0.5 * (bp[1:, :] + bp[:-1, :])
            adv = np.maximum(bf, 0.0) * up[:-1, :] + np.minimum(bf, 0.0) * up[1:, :]
        else:
            diff = 0.5 * (Gp[:, 1:] - Gp[:, :-1]) / h
            cross = 0.5 * (cp[:, 1:] + cp[:, :-1])
            bf = 0.5 * (bp[:, 1:] + bp[:, :-1])
            adv = np.maximum(bf, 0.0) * up[:, :-1] + np.minimum(bf, 0.0) * up[:, 1:]
        return diff + 0.5 * cross - adv

    DyG12 = centered(G12, 1)
    DxG12 = centered(G12, 0)
    Fx = face_flux(G11, DyG12, b1, u, axis=0)
    Fy = face_flux(G22, DxG12, b2, u, axis=1)
    u_new = u + (tau / h) * ((Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1]))
    boundary = -tau * h * (
        (Fx[-1, :] - Fx[0, :]).sum() + (Fy[:, -1] - Fy[:, 0]).sum()
    )
    return u_new, boundary


def _reference_solve(field, grid, s, T, tau):
    """(u, mass_series, leak_series, clip_series, audit_residual) of the reference loop."""
    pts = grid.points()
    shape = grid.u.shape
    time_dep = field.sigma_time_dependent or field.b_time_dependent

    def coeffs(t):
        a = diffusion_matrix(field, t, pts)
        b = np.asarray(field.b(t, pts), dtype=float)
        if grid.d == 1:
            return a.reshape(-1), b.reshape(-1)
        return a.reshape(shape + (2, 2)), b.reshape(shape + (2,))

    step = _reference_step_1d if grid.d == 1 else _reference_step_2d
    n_steps = int(round((T - s) / tau))
    vol = grid.h**grid.d
    a_cur, b_cur = coeffs(s)
    u = grid.u.copy()
    masses, leaks, clips = [], [], []
    audit = 0.0
    for k in range(n_steps):
        if time_dep and k > 0:
            a_cur, b_cur = coeffs(s + k * tau)
        mass_before = u.sum() * vol
        u_new, boundary = step(u, a_cur, b_cur, grid.h, tau)
        mass_after = u_new.sum() * vol
        audit = max(audit, abs((mass_after - mass_before) + boundary))
        clips.append(-float(u_new[u_new < 0].sum()) * vol)
        np.maximum(u_new, 0.0, out=u_new)
        u = u_new
        masses.append(u.sum() * vol)
        leaks.append(boundary)
    return u, np.array(masses), np.array(leaks), np.array(clips), audit


def _reference_csv(sol):
    """The solution CSV as written by one f-string per row."""
    ax = sol.grid.axis
    lines = ["t,x,u\n" if sol.grid.d == 1 else "t,x1,x2,u\n"]
    for t, u in sol.frames:
        if sol.grid.d == 1:
            lines += [f"{t:.17g},{x:.17g},{v:.17g}\n" for x, v in zip(ax, u)]
        else:
            lines += [f"{t:.17g},{x1:.17g},{x2:.17g},{u[i, j]:.17g}\n"
                      for i, x1 in enumerate(ax) for j, x2 in enumerate(ax)]
    return "".join(lines).encode()


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).view(np.uint64)


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
        assert lines[0] == "t,x,u" and len(lines) == 1 + 3 * 17
        assert path.read_bytes() == _reference_csv(sol)

    @pytest.mark.parametrize("T, n_frames, steps", [(0.07, 4, [2, 4, 5, 7]), (0.05, 2, [2, 5])])
    def test_n_frames_saves_that_many(self, translate1, T, n_frames, steps):
        # 7 steps into 4 frames and 5 into 2: round(i n_steps / n_frames), no step twice
        tau = 0.01
        sol = fp_solve(translate1, FPGrid.gaussian(1, 4.0, 0.5), 0.0, T, tau, n_frames=n_frames)
        full = fp_solve(translate1, FPGrid.gaussian(1, 4.0, 0.5), 0.0, T, tau, n_frames=len(sol.mass_series))
        assert len(sol.frames) == 1 + n_frames
        by_step = dict(enumerate(full.frames))
        for (t, u), k in zip(sol.frames[1:], steps):
            assert t == by_step[k][0] and np.array_equal(u, by_step[k][1])

    def test_csv_export_2d(self, tmp_path):
        field = builtin_coefficients("ou_linear", d=2, a=1.0)
        sol = fp_solve(field, FPGrid.gaussian(2, 2.0, 0.25), 0.0, 0.05, 5e-3, n_frames=2)
        path = tmp_path / "sol.csv"
        write_solution_csv(sol, path)
        assert len(sol.frames) == 3
        assert path.read_bytes() == _reference_csv(sol)


class TestGridLayout:
    @pytest.mark.parametrize("d", [1, 2])
    def test_points_are_the_ij_meshgrid(self, d):
        grid = FPGrid.gaussian(d, 1.0, 0.25)
        ax = -1.0 + 0.25 * np.arange(9)
        coords = np.meshgrid(*[ax] * d, indexing="ij")
        expected = np.stack([c.ravel() for c in coords], axis=-1)
        assert grid.points().shape == (9**d, d)
        np.testing.assert_array_equal(_bits(grid.points()), _bits(expected))

    @pytest.mark.parametrize("d", [1, 2])
    def test_from_density_samples_at_arange(self, d):
        R, h = 8.0, 0.05
        seen = []

        def density(pts):
            seen.append(pts.copy())
            return np.ones(len(pts))

        grid = FPGrid.from_density(d, R, h, density)
        ax = np.arange(-R, R + h / 2, h)
        coords = np.meshgrid(*[ax] * d, indexing="ij")
        expected = np.stack([c.ravel() for c in coords], axis=-1)
        assert len(seen) == 1 and grid.u.shape == (ax.size,) * d
        np.testing.assert_array_equal(_bits(seen[0]), _bits(expected))
        # the evaluation points are not the ``axis`` property's in the last bits
        assert not np.array_equal(ax, grid.axis)


class TestStepBitwise:
    """fp_solve's step computes the reference step's floats bit for bit, zero signs included."""

    @pytest.mark.parametrize("case", ["ou_linear-2", "anisotropic-2", "anisotropic-ou-drift-2",
                                      "ou_linear-2-time-dependent", "translate-1", "ou_linear-1",
                                      "sine-1", "sine-ou-drift-1", "ou_linear-1-time-dependent"])
    def test_matches_reference_loop(self, case):
        ou2 = builtin_coefficients("ou_linear", d=2, a=1.0)
        ou1 = builtin_coefficients("ou_linear", d=1, a=2.0)
        sine = make_sine_field()
        # a 2 x 3 matrix: a12 != 0, so the cross terms are non-zero
        aniso = builtin_coefficients("anisotropic", d=2, matrix=[[1.0, 0.5, 0.2], [-0.3, 0.8, 0.4]])
        field, grid, T, tau = {
            "ou_linear-2": (ou2, FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
            "anisotropic-2": (aniso, FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
            # cross, diffusion and advection terms all non-zero: their order shows in the bits
            "anisotropic-ou-drift-2": (dataclasses.replace(aniso, b=ou2.b),
                                       FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
            # the step is rebuilt at every step
            "ou_linear-2-time-dependent": (dataclasses.replace(ou2, b_time_dependent=True),
                                           FPGrid.gaussian(2, 2.0, 0.1), 0.02, 1e-3),
            "translate-1": (builtin_coefficients("translate", d=1), FPGrid.gaussian(1, 6.0, 0.05),
                            0.1, 1e-3),
            "ou_linear-1": (ou1, FPGrid.gaussian(1, 6.0, 0.05), 0.1, 5e-4),
            # a varies in space: the diffusion flux differs from face to face
            "sine-1": (sine, FPGrid.gaussian(1, 6.0, 0.05), 0.02, 1e-4),
            "sine-ou-drift-1": (dataclasses.replace(sine, b=ou1.b), FPGrid.gaussian(1, 6.0, 0.05), 0.02, 1e-4),
            "ou_linear-1-time-dependent": (dataclasses.replace(ou1, b_time_dependent=True),
                                           FPGrid.gaussian(1, 4.0, 0.1), 0.02, 1e-3),
        }[case]
        sol = fp_solve(field, grid, 0.0, T, tau)
        u, masses, leaks, clips, audit = _reference_solve(field, grid, 0.0, T, tau)
        assert len(masses) == round(T / tau)
        np.testing.assert_array_equal(_bits(sol.grid.u), _bits(u))
        np.testing.assert_array_equal(_bits(sol.mass_series), _bits(masses))
        np.testing.assert_array_equal(_bits(sol.leak_series), _bits(leaks))
        np.testing.assert_array_equal(_bits(sol.clip_series), _bits(clips))
        np.testing.assert_array_equal(_bits(sol.audit_residual), _bits(audit))


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
