import dataclasses
import math

import numpy as np
import pytest

from flowlab import fokker_planck, sde
from flowlab.coefficients import builtin_coefficients
from flowlab.density import run_density_ensemble
from flowlab.errors import ConfigError, ExplosionError, SolverFailureError
from flowlab.fokker_planck import (
    FPGrid,
    GridSampler1D,
    density_factorization,
    diffusion_matrix,
    fp_solve,
    mc_flows,
    mc_measure,
    smooth_bump,
    weak_error,
    write_solution_csv,
)
from flowlab.oracles import heat_variance, ou_pushforward_variance

from conftest import make_sine_field


# ---------------------------------------------------------------------------
# references: the step as plain array expressions and the loop as first
# written, fresh arrays every step
# ---------------------------------------------------------------------------

def _reference_step_1d(u, a, b, h, tau):
    """The face-coefficient step in fp_solve's operation order: F = α U+ - β U-, times τ/h."""
    U, A = np.pad(u, 1), np.pad(a, 1)
    bpad = np.pad(b, 1, mode="edge")
    bf = 0.5 * (bpad[1:] + bpad[:-1])
    alpha = (tau / h) * (A[1:] / (2.0 * h) - np.minimum(bf, 0.0))
    beta = (tau / h) * (A[:-1] / (2.0 * h) + np.maximum(bf, 0.0))
    F = alpha * U[1:] - beta * U[:-1]
    return u + (F[1:] - F[:-1]), -h * (F[-1] - F[0])


def _reference_step_2d(u, a, b, h, tau):
    """As ``_reference_step_1d`` per axis, plus the cross term D[p] + D[p + s] (computed even when a12 = 0)."""
    U = np.pad(u, 1)
    G = ((tau / (8.0 * h * h)) * np.pad(a[..., 0, 1], 1)) * U
    # axis 0's faces read the derivative of G along axis 1, axis 1's along axis 0
    D0, D1 = G[:, 2:] - G[:, :-2], G[2:, :] - G[:-2, :]
    cross = (D0[:-1] + D0[1:], D1[:, :-1] + D1[:, 1:])
    F = []
    for i, (hi, lo) in enumerate([((slice(1, None), slice(1, -1)), (slice(None, -1), slice(1, -1))),
                                  ((slice(1, -1), slice(1, None)), (slice(1, -1), slice(None, -1)))]):
        A, bpad = np.pad(a[..., i, i], 1), np.pad(b[..., i], 1, mode="edge")
        bf = 0.5 * (bpad[hi] + bpad[lo])
        alpha = (tau / h) * (A[hi] / (2.0 * h) - np.minimum(bf, 0.0))
        beta = (tau / h) * (A[lo] / (2.0 * h) + np.maximum(bf, 0.0))
        F.append(alpha * U[hi] - beta * U[lo] + cross[i])
    Fx, Fy = F
    u_new = u + ((Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1]))
    boundary = -h**2 * ((Fx[-1, :] - Fx[0, :]).sum() + (Fy[:, -1] - Fy[:, 0]).sum())
    return u_new, boundary


def _flux_order_step_1d(u, a, b, h, tau):
    """The step in the flux order of the first solver: fluxes in mass units, scaled by τ/h last."""
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


def _flux_order_step_2d(u, a, b, h, tau):
    """As ``_flux_order_step_1d`` in d = 2, with the cross term."""
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


def _reference_solve(field, grid, s, T, tau, steps=(_reference_step_1d, _reference_step_2d)):
    """(u, mass_series, leak_series, clip_series, audit_residual) of the reference loop on ``steps`` (d = 1, 2)."""
    pts = grid.points()
    shape = grid.u.shape
    time_dep = field.sigma_time_dependent or field.b_time_dependent

    def coeffs(t):
        a = diffusion_matrix(field, t, pts)
        b = np.asarray(field.b(t, pts), dtype=float)
        if grid.d == 1:
            return a.reshape(-1), b.reshape(-1)
        return a.reshape(shape + (2, 2)), b.reshape(shape + (2,))

    step = steps[grid.d - 1]
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


def suggest_radius(field, T, tail_mass=1e-8):
    """Truncation radius: γ_d tail below ``tail_mass`` plus drift excursion."""
    from scipy.special import ndtri

    r_gauss = -ndtri(tail_mass / (2.0 * field.d))
    return float(r_gauss + field.growth_const * T + math.sqrt(field.d))


def _sigma_2d(sigma12):
    """σ(t, x) = [[1, σ12(t, x1)], [0, 1]] on (..., 2) points, as a field's ``sigma``."""

    def sigma(t, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1] + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = 1.0
        out[..., 0, 1] = sigma12(t, X[..., 0])
        return out

    return sigma


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

    @pytest.mark.parametrize("sigma", ["ou_linear", "anisotropic"])
    def test_mass_audit_2d(self, sigma):
        ou2 = builtin_coefficients("ou_linear", d=2, a=1.0)
        # the 2 x 3 σ gives a12 = 0.18, so the cross term's fluxes enter the ledger too
        field = ou2 if sigma == "ou_linear" else dataclasses.replace(builtin_coefficients(
            "anisotropic", d=2, matrix=[[1.0, 0.5, 0.2], [-0.3, 0.8, 0.4]]), b=ou2.b)
        grid = FPGrid.gaussian(2, 4.0, 0.1)
        sol = fp_solve(field, grid, 0.0, 0.25, 1e-3)
        assert sol.audit_residual <= 1e-10
        ledger = abs((grid.mass() - sol.total_leakage + sol.total_clipped) - sol.grid.mass())
        assert ledger <= 1e-9

    def test_clipping_step_closes_the_ledger(self):
        field, grid, T, tau = _step_case("spike-cross-2")
        sol = fp_solve(field, grid, 0.0, T, tau)
        assert sol.clip_series[0] > 0 and sol.total_clipped > 0
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

    def test_clip_guard_trips(self, translate1, monkeypatch):
        monkeypatch.setattr(fokker_planck, "MAX_CLIP_PER_STEP", -1.0)
        grid = FPGrid.gaussian(1, 6.0, 0.1)
        with pytest.raises(SolverFailureError):
            fp_solve(translate1, grid, 0.0, 0.1, 2e-3)

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
    def test_from_density_samples_at_points(self, d):
        R, h = 8.0, 0.05
        seen = []

        def density(pts):
            seen.append(pts.copy())
            return np.ones(len(pts))

        grid = FPGrid.from_density(d, R, h, density)
        assert len(seen) == 1 and grid.u.shape == (321,) * d
        np.testing.assert_array_equal(_bits(seen[0]), _bits(grid.points()))
        assert grid.axis[-1] == pytest.approx(R, rel=1e-12)

    @pytest.mark.parametrize("R, h", [(1.0, 0.7), (1.0, 0.8), (8.0, 0.03)])
    def test_refuses_a_step_that_does_not_divide_2R(self, R, h):
        with pytest.raises(ConfigError, match="does not divide"):
            FPGrid.gaussian(1, R, h)


STEP_CASES = ["ou_linear-2", "anisotropic-2", "anisotropic-ou-drift-2", "ou_linear-2-time-dependent",
              "translate-1", "ou_linear-1", "sine-1", "sine-ou-drift-1", "ou_linear-1-time-dependent",
              "diagonal-ou-drift-2", "partial-cross-2", "cross-from-t>s-2-time-dependent", "spike-cross-2"]


def _step_case(case):
    """(field, grid, T, tau) of one of ``STEP_CASES``."""
    ou2 = builtin_coefficients("ou_linear", d=2, a=1.0)
    ou1 = builtin_coefficients("ou_linear", d=1, a=2.0)
    sine = make_sine_field()
    # a 2 x 3 matrix: a12 != 0, so the cross terms are non-zero
    aniso = builtin_coefficients("anisotropic", d=2, matrix=[[1.0, 0.5, 0.2], [-0.3, 0.8, 0.4]])
    # a12 = 0.3 max(0, x1 - 1): zero on most of the grid, so the step must read every point
    partial = dataclasses.replace(ou2, sigma=_sigma_2d(lambda t, x1: 0.3 * np.maximum(0.0, x1 - 1.0)))
    # a12 = 10 t: zero at t = s, so the step refreshed at s has no cross term and the later refreshes do
    late = dataclasses.replace(ou2, sigma=_sigma_2d(lambda t, x1: np.full_like(x1, 10.0 * t)),
                               sigma_time_dependent=True)
    # mass 1e-5 on one cell of a zero grid: the cross term undershoots beside it, so steps clip
    spike = np.zeros((41, 41))
    spike[20, 20] = 1e-5 / 0.1**2
    return {
        "ou_linear-2": (ou2, FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
        "anisotropic-2": (aniso, FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
        # cross, diffusion and advection terms all non-zero: their order shows in the bits
        "anisotropic-ou-drift-2": (dataclasses.replace(aniso, b=ou2.b),
                                   FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
        # the step is refreshed at every step
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
        # a12 = 0 and a11 != a22: no cross term, unequal diffusion fluxes
        "diagonal-ou-drift-2": (dataclasses.replace(
            builtin_coefficients("anisotropic", d=2, matrix=[[1.0, 0.0], [0.0, 0.6]]), b=ou2.b),
            FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
        "partial-cross-2": (partial, FPGrid.gaussian(2, 3.0, 0.1), 0.05, 1e-3),
        "cross-from-t>s-2-time-dependent": (late, FPGrid.gaussian(2, 2.0, 0.1), 0.02, 1e-3),
        "spike-cross-2": (builtin_coefficients("anisotropic", d=2, matrix=[[1.0, 0.9], [0.0, 0.45]]),
                          FPGrid(d=2, R=2.0, h=0.1, u=spike), 0.01, 1e-3),
    }[case]


class TestStepBitwise:
    """fp_solve's step computes the reference step's floats bit for bit, zero signs included."""

    @pytest.mark.parametrize("case", STEP_CASES)
    def test_matches_reference_loop(self, case):
        field, grid, T, tau = _step_case(case)
        sol = fp_solve(field, grid, 0.0, T, tau)
        u, masses, leaks, clips, audit = _reference_solve(field, grid, 0.0, T, tau)
        assert len(masses) == round(T / tau)
        np.testing.assert_array_equal(_bits(sol.grid.u), _bits(u))
        np.testing.assert_array_equal(_bits(sol.mass_series), _bits(masses))
        np.testing.assert_array_equal(_bits(sol.leak_series), _bits(leaks))
        np.testing.assert_array_equal(_bits(sol.clip_series), _bits(clips))
        np.testing.assert_array_equal(_bits(sol.audit_residual), _bits(audit))


class TestStepFluxOrder:
    """fp_solve's step stays within roundoff of the flux-order step it replaced."""

    @pytest.mark.parametrize("case", STEP_CASES)
    def test_close_to_flux_order_loop(self, case):
        field, grid, T, tau = _step_case(case)
        sol = fp_solve(field, grid, 0.0, T, tau)
        u, masses, leaks, clips, audit = _reference_solve(
            field, grid, 0.0, T, tau, steps=(_flux_order_step_1d, _flux_order_step_2d))
        # u to 1e-13 max|u|; leakage to the mass of that error on one layer of cells, the
        # other mass series to its mass on every cell
        tol_u = 1e-13 * np.abs(u).max()
        n, d, h = u.shape[0], grid.d, grid.h
        np.testing.assert_allclose(sol.grid.u, u, rtol=0, atol=tol_u)
        np.testing.assert_allclose(sol.leak_series, leaks, rtol=0, atol=tol_u * n ** (d - 1) * h**d)
        for new, old in ((sol.mass_series, masses), (sol.clip_series, clips), (sol.audit_residual, audit)):
            np.testing.assert_allclose(new, old, rtol=0, atol=tol_u * n**d * h**d)


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
        # as many factorization starts, so the weak-error flow is the companion and sees no step
        xT, _ = mc_flows(translate1, 40000, GridSampler1D(grid).sample(40000, 11), 0.0, 0.0, 1e-3, seed=11)
        rep = weak_error(sol, xT, self._phis())
        assert rep.max_discrepancy <= 3.0 * max(m.stderr for m in rep.mc_values) + 1e-3

    def test_heat_agreement(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 1.0, 1e-3)
        coarse = fp_solve(translate1, FPGrid.gaussian(1, 8.0, 0.1), 0.0, 1.0, 4e-3)
        xT, _ = mc_flows(translate1, 50000, None, 0.0, 1.0, 2e-3, seed=13)
        rep = weak_error(sol, xT, self._phis(), fp_coarse=coarse)
        assert rep.max_discrepancy <= 2e-2
        assert rep.max_discrepancy <= 3.0 * rep.max_combined_bar()

    def test_labels_name_each_bump(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.2)
        sol = fp_solve(translate1, grid, 0.0, 0.0, 1e-2)
        phis = [smooth_bump(c, 1.5) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        rep = weak_error(sol, mc_flows(translate1, 200, None, 0.0, 0.0, 1e-2, seed=3)[0], phis)
        assert len(set(rep.labels)) == len(phis)
        assert rep.labels[0] == "bump(c=-2,w=1.5)"
        assert smooth_bump((1.0, -0.5), 0.25).__name__ == "bump(c=(1,-0.5),w=0.25)"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mc_values_equal_mc_measure(self, translate1, threads):
        # 10000 paths make two chunks, so threads=2 runs one in a forked worker
        grid = FPGrid.gaussian(1, 8.0, 0.2)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-2)
        phis = self._phis()
        xT, _ = mc_flows(translate1, 10000, None, 0.0, 0.25, 1e-2, seed=19, threads=threads)
        rep = weak_error(sol, xT, phis)
        for phi, mc in zip(phis, rep.mc_values):
            ref = mc_measure(translate1, ("gaussian", 10000), phi, 0.0, 0.25, 1e-2,
                             seed=19, threads=threads)
            assert (mc.value, mc.stderr) == (ref.value, ref.stderr)

    @pytest.mark.parametrize("n_samples", [0, 300, 500, 700])
    def test_simulates_one_ensemble(self, translate1, monkeypatch, n_samples):
        # both flows of a section, whichever is larger, run in one ensemble
        calls = []
        real = fokker_planck.simulate_ensemble

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fokker_planck, "simulate_ensemble", counted)
        grid = FPGrid.gaussian(1, 8.0, 0.2)
        sol = fp_solve(translate1, grid, 0.0, 0.1, 1e-2)
        starts = GridSampler1D(grid).sample(n_samples, 5) if n_samples else None
        xT, _ = mc_flows(translate1, 500, starts, 0.0, 0.1, 1e-2, seed=5)
        weak_error(sol, xT, self._phis())
        assert len(calls) == 1

    def test_support_outside_domain(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-3)
        phi = smooth_bump(20.0, 1.0)
        rep = weak_error(sol, mc_flows(translate1, 2000, None, 0.0, 0.25, 1e-2, seed=17)[0], [phi])
        assert rep.fp_values[0] == 0.0
        assert rep.mc_values[0].value == 0.0


def _factorization(field, grid, fp, s, t, n_samples, dt, seed, trajectories=1000):
    """``density_factorization`` of ``n_samples`` starts drawn from the grid density, from ``mc_flows``."""
    sampler = GridSampler1D(grid)
    _, flow = mc_flows(field, trajectories, sampler.sample(n_samples, seed), s, t, dt, seed)
    return density_factorization(fp, sampler, *flow)


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
        # more weak-error starts, so the factorization flow is the companion and sees no step
        rep = _factorization(translate1, grid, sol, 0.0, 0.0, 400000, 1e-3, seed=23, trajectories=400001)
        assert rep.l1_discrepancy <= 2e-2

    def test_translate_quarter_horizon(self, translate1):
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-3)
        rep = _factorization(translate1, grid, sol, 0.0, 0.25, 200000, 1e-3, seed=29)
        assert rep.l1_discrepancy <= 5e-2
        assert rep.out_of_domain_fraction <= 1e-4
        assert rep.flagged_mass <= 1e-3

    def test_flagging_not_averaging(self, translate1, monkeypatch):
        monkeypatch.setattr(fokker_planck, "MIN_CELL_COUNT", 50)
        grid = FPGrid.gaussian(1, 8.0, 0.05)
        sol = fp_solve(translate1, grid, 0.0, 0.25, 1e-3)
        rep = _factorization(translate1, grid, sol, 0.0, 0.25, 2000, 1e-2, seed=31)
        assert rep.n_flagged_cells > 0
        assert rep.n_valid_cells + rep.n_flagged_cells == grid.u.shape[0]

    def test_sampler_takes_the_last_cell_for_the_largest_uniform(self, monkeypatch):
        # at R = 8, h = 0.025 the rounded CDF ends at 0.999999999999999, below the largest uniform
        grid = FPGrid.gaussian(1, 8.0, 0.025)
        sampler = GridSampler1D(grid)
        assert sampler.cdf[-1] < 1.0 - 2.0**-53
        monkeypatch.setattr(fokker_planck, "uniform_open", lambda gen, n: np.full(n, 1.0 - 2.0**-53))
        x = sampler.sample(3, seed=1)[:, 0]
        assert np.all(x == grid.axis[-1] + (0.5 - 2.0**-53) * grid.h)


class TestSharedRun:
    """A section's two flows from one run equal, bit for bit, each flow run alone."""

    TRAJECTORIES = 300
    DT = 1e-2

    @pytest.fixture(scope="class")
    def case(self):
        field = make_sine_field()
        grid = FPGrid.gaussian(1, 4.0, 0.2)
        return field, GridSampler1D(grid), fp_solve(field, grid, 0.0, 0.05, 1e-3)

    @staticmethod
    def _phis():
        return [smooth_bump(-0.5, 1.5), smooth_bump(1.0, 2.0)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cap", [None, 64, 97])
    @pytest.mark.parametrize("n_samples", [400, 300, 200, 0])
    @pytest.mark.parametrize("t", [0.0, 0.05])
    def test_equals_separate_runs(self, case, monkeypatch, t, n_samples, cap, threads):
        field, sampler, sol = case
        n, dt, seed = self.TRAJECTORIES, self.DT, 7
        starts = sampler.sample(n_samples, seed) if n_samples else None
        # the references run at the default chunk cap, the shared run at ``cap``
        mc_refs = [mc_measure(field, ("gaussian", n), phi, 0.0, t, dt, seed, threads=threads)
                   for phi in self._phis()]
        if starts is not None:
            ens, rec = run_density_ensemble(field, 0.0, t, starts, dt, seed, threads=threads)
            factor_ref = density_factorization(sol, sampler, starts, ens.xT, rec)
        if cap is not None:
            monkeypatch.setattr(sde, "_chunk_cap", lambda: cap)
        weak_xT, flow = mc_flows(field, n, starts, 0.0, t, dt, seed, threads=threads)

        mc = weak_error(sol, weak_xT, self._phis()).mc_values
        assert [(e.value, e.stderr) for e in mc] == [(e.value, e.stderr) for e in mc_refs]
        if starts is None:
            assert flow is None
            return
        x0, xT, record = flow
        assert np.array_equal(x0, starts)
        assert np.array_equal(xT, ens.xT) and np.array_equal(record.log_ktilde, rec.log_ktilde)
        assert density_factorization(sol, sampler, *flow) == factor_ref
        if t == 0.0:
            assert np.array_equal(xT, starts) and np.array_equal(record.log_ktilde, np.zeros(n_samples))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cap", [None, 64, 97])
    def test_companion_explosion(self, monkeypatch, threads, cap):
        # b = 6e9 sign(x) beyond |x| = 5: a start there passes the explosion radius at step 2;
        # the γ starts of the run stay far inside, so only the companion explodes
        field = dataclasses.replace(
            builtin_coefficients("translate", d=1),
            b=lambda t, X: 6e9 * np.sign(X) * (np.abs(X) > 5.0))
        starts = np.zeros((200, 1))
        bad = [3, 64, 130, 199]
        starts[bad, 0] = [10.0, -10.0, 7.0, 10.0]
        if cap is not None:
            monkeypatch.setattr(sde, "_chunk_cap", lambda: cap)
        with pytest.raises(ExplosionError) as err:
            mc_flows(field, self.TRAJECTORIES, starts, 0.0, 0.05, self.DT, seed=7, threads=threads)
        assert err.value.step == 2 and err.value.indices == bad
        assert str(err.value) == "4 trajectories exploded (earliest step 2)"
