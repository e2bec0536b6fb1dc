import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from flowlab import coefficients, config, oracles
from flowlab.coefficients import (
    CATALOG,
    drift_divergence_identity,
    RegularizationLevel,
    builtin_coefficients,
    cutoff,
    cutoff_grad,
    mollifier_mass_below,
    regularize,
    regularize_drift,
    regularize_sigma,
    time_mollifier,
    validate_hypotheses,
)
from flowlab.errors import CapabilityError
from flowlab.gaussian import HermiteTable, _delta, default_quadrature
from flowlab.oracles import gaussian_abs_moment

from conftest import make_sine_field


class TestCutoff:
    def test_plateau(self):
        pts = np.array([[2.0], [-2.5], [0.0]])
        np.testing.assert_allclose(cutoff(3, pts), 1.0)

    def test_vanishes_outside(self):
        pts = np.array([[6.0], [-5.0], [7.5]])
        np.testing.assert_allclose(cutoff(3, pts), 0.0)

    def test_gradient_bounded_by_one(self):
        radii = np.linspace(0.0, 8.0, 4001)[:, None]
        grad = cutoff_grad(3, radii)
        assert np.abs(grad).max() <= 1.0 + 1e-6
        # finite differences of the (tabulated) profile agree with the analytic slope
        h = 1e-6
        fd = (cutoff(3, radii + h) - cutoff(3, radii - h)) / (2 * h)
        np.testing.assert_allclose(fd, grad[:, 0], atol=1e-4)

    def test_range(self):
        pts = np.linspace(-9, 9, 301)[:, None]
        vals = cutoff(2, pts)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 20), x=st.floats(-50, 50))
    def test_cases_everywhere(self, n, x):
        v = float(cutoff(n, np.array([x])))
        if abs(x) <= n:
            assert v == pytest.approx(1.0, abs=1e-12)
        elif abs(x) >= n + 2:
            assert v == pytest.approx(0.0, abs=1e-12)
        else:
            assert 0.0 <= v <= 1.0


class TestTimeMollifier:
    def test_support(self):
        for n in (1, 4, 16):
            assert time_mollifier(n, 1.0 / n) == 0.0
            assert time_mollifier(n, -1.5 / n) == 0.0
            assert time_mollifier(n, 0.0) > 0.0

    def test_unit_mass(self):
        for n in (1, 3, 8):
            ts = np.linspace(-1.0 / n, 1.0 / n, 40001)
            assert trapezoid(time_mollifier(n, ts), ts) == pytest.approx(1.0, abs=1e-8)

    def test_symmetry(self):
        ts = np.linspace(0.0, 0.5, 100)
        np.testing.assert_allclose(time_mollifier(2, ts), time_mollifier(2, -ts))

    def test_mass_ramp(self):
        assert mollifier_mass_below(4, -0.25) == pytest.approx(0.0, abs=1e-12)
        assert mollifier_mass_below(4, 0.25) == pytest.approx(1.0, abs=1e-12)
        assert mollifier_mass_below(4, 0.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 4, 128])
    def test_ramp_is_exactly_one_past_the_support(self, n):
        dt = 1e-3
        for t in [k * dt for k in range(0, 1001, 7)] + [1.0 / n, 0.5 / n, 2.0]:
            ramp = mollifier_mass_below(n, t)
            if t * n >= 1.0:
                assert ramp == 1.0 and ramp == coefficients._bump_cdf(t * n)
            else:
                assert ramp == coefficients._bump_cdf(np.asarray(t) * n)
        ts = np.array([-0.5, 0.2, 0.7, 3.0]) / n
        assert np.array_equal(mollifier_mass_below(n, ts), coefficients._bump_cdf(ts * n))


class TestRegularizeSigma:
    def test_identity_inside_plateau(self, translate1, quad1):
        reg = regularize_sigma(translate1, RegularizationLevel(3), quad1)
        pts = np.array([[1.0], [-2.5]])
        np.testing.assert_allclose(reg.sigma(0.0, pts), translate1.sigma(0.0, pts), atol=1e-13)

    def test_vanishes_outside(self, translate1, quad1):
        reg = regularize_sigma(translate1, RegularizationLevel(3), quad1)
        np.testing.assert_allclose(reg.sigma(0.0, np.array([[6.0]])), 0.0, atol=1e-13)

    def test_linear_sigma_contraction(self, quad1):
        field = builtin_coefficients(
            "custom", d=1, m=1,
            sigma=lambda t, X: np.asarray(X, dtype=float)[..., None],
            b=lambda t, X: np.zeros_like(np.asarray(X, dtype=float)),
            sigma_jac=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1, 1)),
            delta_b_fn=lambda t, X: np.zeros(np.shape(X)[:-1]),
            growth_const=1.0, exp_const=0.1, name="linear_sigma",
        )
        reg = regularize_sigma(field, RegularizationLevel(8), quad1)
        val = reg.sigma(0.0, np.array([[1.0]]))[0, 0, 0]
        assert val == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-10)

    def test_analytic_jacobian_matches_fd(self, quad1):
        field = make_sine_field()
        reg = regularize_sigma(field, RegularizationLevel(4), quad1)
        pts = np.array([[0.5], [3.8], [4.6]])
        jac = reg.sigma_jacobian(0.0, pts)
        h = 1e-6
        fd = (reg.sigma(0.0, pts + h) - reg.sigma(0.0, pts - h)) / (2 * h)
        np.testing.assert_allclose(jac[:, 0, 0, 0], fd[:, 0, 0], atol=5e-5)

    def test_growth_constant_certified(self, quad1):
        field = make_sine_field()
        for n in (2, 8):
            reg = regularize_sigma(field, RegularizationLevel(n), quad1)
            assert reg.growth_const == pytest.approx(
                field.growth_const * (1.0 + gaussian_abs_moment(1))
            )
            rep = validate_hypotheses(reg, 0.5, quad1, tgrid=3)
            assert rep.growth_ok

    def test_uniform_convergence_smooth_field(self, quad1):
        field = make_sine_field()
        ball = np.linspace(-2.0, 2.0, 21)[:, None]
        sups = []
        for n in (2, 4, 8, 16):
            reg = regularize_sigma(field, RegularizationLevel(n), quad1)
            diff = reg.sigma(0.0, ball) - field.sigma(0.0, ball)
            sups.append(np.abs(diff).max())
        assert all(b < a for a, b in zip(sups[:-1], sups[1:]))
        assert sups[-1] < 0.1


def _mixed_sigma_field(with_jac=True):
    """d = 2, m = 3: σ = [[2 + sin x_2, 0, cos(x_1)/2], [0.3 sin x_1, 2, 0]], b = 0."""
    def sigma(t, X):
        x1, x2 = X[..., 0], X[..., 1]
        out = np.zeros(X.shape[:-1] + (2, 3))
        out[..., 0, 0] = 2.0 + np.sin(x2)
        out[..., 0, 2] = 0.5 * np.cos(x1)
        out[..., 1, 0] = 0.3 * np.sin(x1)
        out[..., 1, 1] = 2.0
        return out

    def sigma_jac(t, X):
        x1, x2 = X[..., 0], X[..., 1]
        out = np.zeros(X.shape[:-1] + (3, 2, 2))
        out[..., 0, 0, 1] = np.cos(x2)
        out[..., 0, 1, 0] = 0.3 * np.cos(x1)
        out[..., 2, 0, 0] = -0.5 * np.sin(x1)
        return out

    return builtin_coefficients(
        "custom", d=2, m=3, sigma=sigma, b=lambda t, X: np.zeros(np.shape(X)),
        sigma_jac=sigma_jac if with_jac else None,
        b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (2, 2)),
        growth_const=3.0, exp_const=0.04, name="mixed_sigma",
    )


def _raising_jac(t, X):
    raise AssertionError("sigma_jac read")


def _parent_sigma_jacobian(field, level, quad, t, X):
    """∇σ^n = ∇φ_n ⊗ P_ε σ + φ_n e^{-ε} P_ε ∇σ, from the analytic ∇σ."""
    eps = level.eps
    psig = coefficients.ou_smooth(lambda P: field.sigma(t, P), eps, X, quad)
    pjac = coefficients.ou_smooth(lambda P: field.sigma_jac(t, P), eps, X, quad)
    term1 = np.einsum("...b,...aj->...jab", cutoff_grad(level.n, X), psig)
    return term1 + cutoff(level.n, X)[..., None, None, None] * (math.exp(-eps) * pjac)


class TestSigmaJacobianRule:
    """∇σ^n is the kernel gradient of P_ε on every route: no ∇σ, no finite differences."""

    @staticmethod
    def _grid(n):
        axis = np.linspace(-(n + 3.0), n + 3.0, 21)
        return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)

    def test_sigma_jac_never_read_on_moving_nodes(self, quad2):
        field = replace(_mixed_sigma_field(), sigma_jac=_raising_jac)
        reg = regularize_sigma(field, RegularizationLevel(8), quad2)
        assert reg.sigma_jacobian(0.3, self._grid(8)).shape == (441, 3, 2, 2)

    def test_sigma_jac_never_read_off_the_table(self, quad1):
        field = replace(make_sine_field(), sigma_jac=_raising_jac)
        reg = regularize_sigma(field, RegularizationLevel(8), quad1)
        X = np.array([-30.0, -16.5, -9.0, 0.0, 9.5, 16.0, 17.0, 40.0])[:, None]
        assert reg.sigma_jacobian(0.0, X).shape == (8, 1, 1, 1)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matches_smoothed_analytic_jacobian(self, quad2, n):
        field, level = _mixed_sigma_field(), RegularizationLevel(n)
        X = self._grid(n)
        ref = _parent_sigma_jacobian(field, level, quad2, 0.3, X)
        jac = regularize_sigma(field, level, quad2).sigma_jacobian(0.3, X)
        np.testing.assert_allclose(jac, ref, rtol=0, atol=1e-12)

    def test_analytic_jacobian_not_needed(self, quad2):
        level, X = RegularizationLevel(8), self._grid(8)
        with_jac = regularize_sigma(_mixed_sigma_field(), level, quad2)
        without = regularize_sigma(_mixed_sigma_field(with_jac=False), level, quad2)
        assert np.array_equal(without.sigma_jacobian(0.3, X), with_jac.sigma_jacobian(0.3, X))


class TestRegularizeDrift:
    def test_constant_after_ramp(self, quad1):
        field = builtin_coefficients(
            "custom", d=1, m=1,
            sigma=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1)),
            b=lambda t, X: np.full(np.shape(X)[:-1] + (1,), 0.7),
            sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1, 1)),
            b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1)),
            delta_b_fn=None,
            growth_const=1.0, exp_const=0.25, name="const_drift",
        )
        reg = regularize_drift(field, RegularizationLevel(4), quad1)
        val = reg.b(0.5, np.array([[1.2]]))
        np.testing.assert_allclose(val, 0.7, rtol=1e-12)

    def test_sign_smooths_to_zero_at_origin(self, sign1, quad1):
        reg = regularize_drift(sign1, RegularizationLevel(8), quad1)
        val = reg.b(0.5, np.zeros((1, 1)))
        assert abs(val[0, 0]) <= 1e-12

    def test_zero_drift_stays_zero(self, translate1, quad1):
        reg = regularize_drift(translate1, RegularizationLevel(8), quad1)
        np.testing.assert_allclose(reg.b(0.3, np.array([[1.0], [-2.0]])), 0.0, atol=1e-15)

    def test_delta_b_routes_agree_for_smooth_drift(self, ou1, quad1):
        # the commutation identity matches the direct divergence when div b
        # has no singular part
        level = RegularizationLevel(8)
        reg = regularize_drift(ou1, level, quad1)
        identity = drift_divergence_identity(ou1, level, quad1)
        pts = np.array([[0.0], [0.4], [-1.3]])
        np.testing.assert_allclose(identity(0.5, pts), reg.evaluate(0.5, pts).delta_b, atol=1e-8)

    def test_delta_b_sign_drift_singular_part(self, sign1, quad1):
        # for the sign drift, div b carries a point mass at the kink that the
        # a.e. representative |x| cannot see: the identity route and the true
        # divergence of the smoothed field differ exactly by its OU image
        level = RegularizationLevel(8)
        eps = level.eps
        reg = regularize_drift(sign1, level, quad1)
        identity = drift_divergence_identity(sign1, level, quad1)
        pts = np.array([[0.0], [0.4], [-1.3]])
        gap = identity(0.5, pts) - reg.evaluate(0.5, pts).delta_b
        decay = math.exp(-eps)
        spread = math.sqrt(1.0 - decay**2)
        dirac_image = (
            2.0 * math.exp(eps)
            * np.exp(-((decay * pts[:, 0] / spread) ** 2) / 2.0)
            / (spread * math.sqrt(2.0 * math.pi))
        )
        np.testing.assert_allclose(gap, dirac_image, rtol=0.05)

    def test_growth_bound_after_mollification(self, sign1, quad1):
        reg = regularize_drift(sign1, RegularizationLevel(4), quad1)
        xs = np.linspace(-5, 5, 41)[:, None]
        bound = sign1.growth_const * (1.0 + gaussian_abs_moment(1)) * (1.0 + np.abs(xs[:, 0]))
        for t in (0.0, 0.1, 0.7):
            vals = np.abs(reg.b(t, xs)[:, 0])
            assert np.all(vals <= bound + 1e-9)

    def test_drift_convergence_in_d1_norm(self, sign1, quad1):
        # || b^n - b || in the (d+1)-power space-time Gaussian norm decreases
        times = np.linspace(0.0, 0.5, 9)
        X = quad1.nodes
        logw = quad1.log_weights
        norms = []
        for n in (4, 8, 16, 32):
            reg = regularize_drift(sign1, RegularizationLevel(n), quad1)
            acc = []
            for t in times:
                diff = np.abs(reg.b(t, X)[:, 0] - sign1.b(t, X)[:, 0])
                acc.append(np.exp(logsumexp(logw + 2.0 * np.log(np.maximum(diff, 1e-300)))))
            norms.append(trapezoid(acc, times) ** 0.5)
        assert all(b < a for a, b in zip(norms[:-1], norms[1:]))

    @pytest.mark.parametrize("n", [4, 8, 32, 128])
    def test_sign_drift_smooth_in_fact(self, sign1, quad1, n):
        # the d = 1 table gives b^n = P_ε[sign] up to its node rule, and ∇b^n is
        # the derivative of the b^n computed, not of a nearby field
        reg = regularize_drift(sign1, RegularizationLevel(n), quad1)
        xs = np.linspace(-4.0, 4.0, 1601)[:, None]
        t, h, eps = 0.7, 1e-6, 1.0 / n
        b = reg.b(t, xs)[:, 0]
        fd = (reg.b(t, xs + h)[:, 0] - reg.b(t, xs - h)[:, 0]) / (2 * h)
        jac = reg.b_jacobian(t, xs)[:, 0, 0]
        assert np.abs(jac - fd).max() <= 1e-6
        assert np.abs(b - oracles.smoothed_sign(1.0, eps, xs[:, 0])).max() <= 1e-4
        grad = oracles.smoothed_sign_grad(1.0, eps, xs[:, 0])
        assert np.abs(jac - grad).max() <= 1e-4 * grad.max()

    def test_table_beyond_radius_uses_moving_nodes(self, sign1, quad1, monkeypatch):
        level = RegularizationLevel(8)
        reg = regularize(sign1, level, quad1)
        monkeypatch.setattr(coefficients, "ou_smooth_table", lambda *args, **kwargs: None)
        moving = regularize(sign1, level, quad1)
        far = np.array([[-30.0], [25.0], [1e3]])
        mixed = np.array([[0.3], [-30.0], [2.0], [25.0]])
        for name in ("sigma", "sigma_jacobian", "b", "b_jacobian"):
            assert np.array_equal(getattr(reg, name)(0.5, far), getattr(moving, name)(0.5, far))
            got = getattr(reg, name)(0.5, mixed)
            assert np.array_equal(got[[1, 3]], getattr(moving, name)(0.5, mixed[[1, 3]]))
            assert np.array_equal(got[[0, 2]], getattr(reg, name)(0.5, mixed[[0, 2]]))

    def test_measurable_only_flag_cleared(self, sign1, quad1):
        reg = regularize_drift(sign1, RegularizationLevel(4), quad1)
        assert not reg.b_measurable_only
        assert sign1.b_measurable_only


@pytest.fixture
def moving(monkeypatch):
    """Build a regularized field on the moving-node rule, with no d = 1 table."""
    def build(regularizer, field, level, quad):
        with monkeypatch.context() as m:
            m.setattr(coefficients, "ou_smooth_table", lambda *args, **kwargs: None)
            return regularizer(field, level, quad)
    return build


class TestTablesMatchMovingNodes:
    """The d = 1 tables against the moving-node rule they replace, on smooth inputs."""

    @pytest.mark.parametrize("n", [4, 32])
    def test_sine_sigma_and_jacobian(self, quad1, moving, n):
        field = make_sine_field()
        level = RegularizationLevel(n)
        table = regularize_sigma(field, level, quad1)
        ref = moving(regularize_sigma, field, level, quad1)
        xs = np.linspace(-(n + 3.0), n + 3.0, 2001)[:, None]
        np.testing.assert_allclose(table.sigma(0.2, xs), ref.sigma(0.2, xs), rtol=0, atol=1e-6)
        np.testing.assert_allclose(
            table.sigma_jacobian(0.2, xs), ref.sigma_jacobian(0.2, xs), rtol=0, atol=1e-6
        )

    @pytest.mark.parametrize("n", [4, 32])
    def test_ou_drift_and_jacobian(self, ou1, quad1, moving, n):
        level = RegularizationLevel(n)
        table = regularize_drift(ou1, level, quad1)
        ref = moving(regularize_drift, ou1, level, quad1)
        xs = np.linspace(-8.0, 8.0, 2001)[:, None]
        for t in (0.0, 0.5 / n, 0.6):
            np.testing.assert_allclose(table.b(t, xs), ref.b(t, xs), rtol=0, atol=1e-6)
            np.testing.assert_allclose(table.b_jacobian(t, xs), ref.b_jacobian(t, xs), rtol=0, atol=1e-6)


class TestOffTableRoute:
    """NaN, ±inf and |x| > TABLE_RADIUS reach the moving-node route, never a table index."""

    def test_routes(self):
        seen = {"on": [], "off": []}

        def on(x):
            seen["on"].append(x.copy())
            return 2.0 * x

        def off(P):
            seen["off"].append(P[:, 0].copy())
            return np.full(P.shape[0], -1.0)

        X = np.array([0.5, np.nan, -16.0, np.inf, 16.0, -np.inf, 16.5, -17.0, 3.0])[:, None]
        out = coefficients._on_table(X, on, off)
        inside = np.array([0.5, -16.0, 16.0, 3.0])
        assert np.array_equal(seen["on"][0], inside)
        np.testing.assert_array_equal(seen["off"][0], [np.nan, np.inf, -np.inf, 16.5, -17.0])
        assert np.array_equal(out[[0, 2, 4, 8]], 2.0 * inside) and (out[[1, 3, 5, 6, 7]] == -1.0).all()
        seen["on"].clear()
        coefficients._on_table(np.array([[-16.0], [16.0]]), on, off)
        assert len(seen["on"]) == 1 and len(seen["off"]) == 1

    def test_nonfinite_point_never_reaches_a_table(self, monkeypatch, sign1, quad1):
        looked_up = []
        real = HermiteTable._cells
        monkeypatch.setattr(HermiteTable, "_cells",
                            lambda table, x: looked_up.append(np.asarray(x).copy()) or real(table, x))
        field = regularize_sigma(sign1, RegularizationLevel(4), quad1)  # σ = Id: finite off the table
        X = np.array([0.3, np.nan, np.inf, -np.inf, 20.0, -1.0])[:, None]
        with np.errstate(invalid="ignore"):
            field.sigma(0.0, X)
            field.sigma_jacobian(0.0, X)
        assert len(looked_up) == 2
        for x in looked_up:
            assert np.array_equal(x, [0.3, -1.0])


class TestSigmaTableCut:
    """σ^n's table keeps |x| < n + 2 plus one zero cell a side, and reads the full table's floats."""

    @pytest.mark.parametrize("n", [4, 8])
    def test_cut_equals_full_table(self, monkeypatch, n):
        field, level = make_sine_field(), RegularizationLevel(n)
        cut = coefficients._sigma_table(field, level)
        with monkeypatch.context() as m:
            m.setattr(coefficients.HermiteTable, "cut", lambda table, lo, hi: table)
            full = coefficients._sigma_table(field, level)
        # left edges of the kept cells: one all-zero cell beyond |x| = n + 2 on each side
        edge = full.x0 + full.h * np.arange(cut.first, cut.first + cut.coef.shape[0])
        assert edge[1] <= -(n + 2.0) < edge[2] and edge[-2] < n + 2.0 <= edge[-1]
        assert not cut.coef[0].any() and not cut.coef[-1].any()
        assert cut.coef.shape[0] < full.coef.shape[0]
        xs = np.linspace(-16.0, 16.0, 64001)
        assert np.array_equal(cut(xs), full(xs))
        assert np.array_equal(cut.derivative(xs), full.derivative(xs))


class TestTimeDependentRoutes:
    """The routes for time-dependent σ and b, which no config field reaches."""

    @pytest.mark.parametrize("n", [4, 32])
    def test_time_convolved_drift_matches_after_ramp(self, ou1, quad1, moving, n):
        # for t >= 1/n the whole mollifier support lies in [0, t], so a drift
        # flagged time-dependent must regularize to the time-independent result
        level = RegularizationLevel(n)
        timed = regularize_drift(replace(ou1, b_time_dependent=True), level, quad1)
        ref = moving(regularize_drift, ou1, level, quad1)
        xs = np.linspace(-8.0, 8.0, 201)[:, None]
        for t in (1.0 / n, 0.7):
            b = ref.b(t, xs)
            np.testing.assert_allclose(timed.b(t, xs), b, rtol=0, atol=1e-12 * np.abs(b).max())
            jac = ref.b_jacobian(t, xs)
            np.testing.assert_allclose(timed.b_jacobian(t, xs), jac, rtol=0, atol=1e-12 * np.abs(jac).max())

    @pytest.mark.parametrize("n", [2, 8])
    def test_time_dependent_sigma(self, quad1, n):
        # σ_t = (1 + t) I is constant in x, so σ^n_t = φ_n (1 + t) I
        field = builtin_coefficients(
            "custom", d=1, m=1,
            sigma=lambda t, X: np.full(np.shape(X)[:-1] + (1, 1), 1.0 + t),
            b=lambda t, X: np.zeros(np.shape(X)),
            sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1, 1)),
            b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1)),
            growth_const=2.0, exp_const=0.1, sigma_time_dependent=True, name="ramp_sigma",
        )
        reg = regularize(field, RegularizationLevel(n), quad1)
        xs = np.linspace(-(n + 3.0), n + 3.0, 301)[:, None]
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(reg.sigma(t, xs)[:, 0, 0], cutoff(n, xs) * (1.0 + t), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                reg.sigma_jacobian(t, xs)[:, 0, 0, 0], cutoff_grad(n, xs)[:, 0] * (1.0 + t), rtol=0, atol=1e-12
            )


def _separate_deltas(field, t, X):
    """δ(σ_t) and δ(b_t) from separate calls of each coefficient map."""
    sig = np.asarray(field.sigma(t, X), dtype=float)
    delta_sigma = _delta(sig, X, field.sigma_jacobian(t, X))
    if field.delta_b_fn is not None:
        delta_b = np.asarray(field.delta_b_fn(t, X), dtype=float)
    else:
        delta_b = _delta(np.asarray(field.b(t, X), dtype=float), X, field.b_jacobian(t, X))
    return delta_sigma, delta_b


def _parent_phi(field, t, X):
    """Φ as the density module summed it before ``evaluate`` existed."""
    sig = np.asarray(field.sigma(t, X), dtype=float)
    jac = field.sigma_jacobian(t, X)
    return (
        _separate_deltas(field, t, X)[1]
        + 0.5 * np.einsum("...am,...am->...", sig, sig)
        + 0.5 * np.einsum("...jab,...jba->...", jac, jac)
    )


class TestEvaluate:
    @pytest.mark.parametrize("key", [
        "translate1", "translate2", "ou1", "sign1", "sign1_n8", "sine_field",
    ])
    def test_matches_separate_calls_bitwise(self, request, quad1, key):
        if key == "translate2":
            field = builtin_coefficients("translate", d=2)
        elif key == "sign1_n8":
            field = regularize(request.getfixturevalue("sign1"), RegularizationLevel(8), quad1)
        else:
            field = request.getfixturevalue(key)
        X = np.random.default_rng(5).normal(size=(33, field.d)) * 2.0
        t = 0.3
        ev = field.evaluate(t, X)
        delta_sigma, delta_b = _separate_deltas(field, t, X)
        assert np.array_equal(ev.delta_sigma, delta_sigma)
        assert np.array_equal(ev.delta_b, delta_b)
        assert np.array_equal(ev.phi, _parent_phi(field, t, X))

    def test_derivatives_computed_on_first_read(self, sine_field):
        calls = Counter()

        def counted(name, fn):
            def wrapper(t, X):
                calls[name] += 1
                return fn(t, X)
            return wrapper

        # δ(b) from the drift's Jacobian, not a declared δ(b)
        field = replace(sine_field, delta_b_fn=None, **{
            name: counted(name, getattr(sine_field, name)) for name in ("sigma", "b", "sigma_jac", "b_jac")
        })
        ev = field.evaluate(0.3, np.linspace(-2.0, 2.0, 9)[:, None])
        assert calls == {"sigma": 1, "b": 1}
        for _ in range(2):
            ev.phi, ev.delta_sigma2, ev.grad_hs2, ev.delta_b, ev.delta_sigma
        assert calls == {"sigma": 1, "b": 1, "sigma_jac": 1, "b_jac": 1}


class TestValidateHypotheses:
    def test_sigma_integral_translate(self, quad1):
        field = builtin_coefficients("translate", d=1, lam=0.25)
        rep = validate_hypotheses(field, 1.0, quad1, tgrid=5)
        assert rep.sigma_T == pytest.approx(math.sqrt(2.0), rel=1e-6)
        assert not rep.divergent

    def test_min_eigenvalue_identity(self, translate1, quad1):
        rep = validate_hypotheses(translate1, 1.0, quad1, tgrid=3)
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert rep.ellipticity_ok

    def test_growth_ratio_by_construction(self, quad1):
        field = builtin_coefficients(
            "custom", d=1, m=1,
            sigma=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1)),
            b=lambda t, X: (2.0 * (1.0 + np.abs(X))),
            sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1, 1)),
            delta_b_fn=lambda t, X: 2.0 * (1.0 + np.abs(X[..., 0])) * X[..., 0] - 2.0 * np.sign(X[..., 0]),
            growth_const=2.0, exp_const=0.05, name="fast_growth",
        )
        rep = validate_hypotheses(field, 1.0, quad1, tgrid=3)
        assert rep.growth_ratio == pytest.approx(2.0, rel=1e-9)

    def test_divergence_flag(self, quad1):
        field = builtin_coefficients("translate", d=1, lam=0.25)
        rep = validate_hypotheses(field, 1.0, quad1, tgrid=3, log_cap=0.1)
        assert rep.divergent and rep.sigma_T == math.inf

    @pytest.mark.parametrize("tgrid", [17, (0.0, 0.1, 0.35, 0.5, 0.9, 1.0)])
    def test_sigma_integral_is_scipy_trapezoid_bitwise(self, sine_field, ou1, quad1, tgrid):
        times = np.linspace(0.0, 1.0, tgrid) if np.isscalar(tgrid) else np.asarray(tgrid)
        for field in (sine_field, ou1):
            values = (field.evaluate(t, quad1.nodes) for t in times)
            log_inner = [
                logsumexp(quad1.log_weights + field.exp_const * (ev.grad_hs2 + ev.delta_sigma2 + np.abs(ev.delta_b)))
                for ev in values
            ]
            expected = float(trapezoid(np.exp(log_inner), times))
            assert validate_hypotheses(field, 1.0, quad1, tgrid=tgrid).sigma_T == expected


class TestCatalog:
    def test_translate_metadata(self, translate1):
        assert translate1.c1 == 1.0
        assert translate1.growth_const == 1.0
        pts = np.array([[2.0]])
        np.testing.assert_allclose(translate1.evaluate(0.0, pts).delta_sigma, [[2.0]])

    def test_ou_divergence(self, ou1):
        pts = np.array([[0.0], [1.0], [2.0]])
        np.testing.assert_allclose(ou1.evaluate(0.0, pts).delta_b, 1.0 - pts[:, 0] ** 2)

    def test_sign_drift(self, sign1):
        pts = np.array([[0.5], [-3.0]])
        vals = sign1.b(0.0, pts)
        np.testing.assert_allclose(np.abs(vals[:, 0]), 1.0)
        assert sign1.b_measurable_only
        np.testing.assert_allclose(sign1.evaluate(0.0, pts).delta_b, np.abs(pts[:, 0]))

    def test_anisotropic(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        field = builtin_coefficients("anisotropic", d=2, matrix=A)
        assert field.m == 2
        assert field.c1 == pytest.approx(np.linalg.eigvalsh(A @ A.T)[0])
        pts = np.array([[1.0, -1.0]])
        np.testing.assert_allclose(field.evaluate(0.0, pts).delta_sigma[0], A.T @ pts[0])

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            builtin_coefficients("brownian_bridge", d=1)
        with pytest.raises(ValueError):
            builtin_coefficients("ou_linear", d=1, rate=2.0)

    def test_measurable_drift_jacobian_refused(self, sign1):
        with pytest.raises(CapabilityError):
            sign1.b_jacobian(0.0, np.array([[1.0]]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("key", sorted(config.FIELD_PARAMS))
    def test_config_fields_meet_their_hypotheses(self, key, d):
        """Every field a config can build, at its defaults, passes its own declared metadata."""
        field = builtin_coefficients(key, d=d)
        rep = validate_hypotheses(field, 1.0, default_quadrature(d))
        assert rep.ellipticity_ok and rep.min_eigenvalue == field.c1
        assert rep.growth_ok
        assert math.isfinite(rep.sigma_T)

    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_unknown_parameter_rejected(self, key):
        with pytest.raises(ValueError, match="bogus"):
            builtin_coefficients(key, d=2, bogus=1.0)

    def test_config_params_read_off_the_catalog(self):
        # anisotropic's matrix has no default, so no config can build it
        assert config.FIELD_PARAMS == {"translate": (), "ou_linear": ("a",), "sign_drift": ("beta",)}

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("key, a", [("translate", 0.0), ("ou_linear", 1.0), ("ou_linear", 2.5)])
    def test_closed_forms(self, key, a, d):
        """δ(b) = a (d - |x|^2) (a = 0 for translate) and δ(σ) = x, exactly."""
        field = builtin_coefficients(key, d=d, **({"a": a} if key == "ou_linear" else {}))
        X = np.random.default_rng(d).standard_normal((50, d))
        ev = field.evaluate(0.3, X)
        assert np.array_equal(ev.delta_b, a * (d - np.einsum("ka,ka->k", X, X)))
        assert np.array_equal(ev.delta_sigma, X)


def test_full_pipeline_composition(sign1, quad1):
    reg = regularize(sign1, RegularizationLevel(8), quad1)
    pts = np.array([[0.3], [-0.9]])
    assert reg.sigma(0.0, pts).shape == (2, 1, 1)
    assert np.isfinite(reg.evaluate(0.25, pts).delta_b).all()
    assert not reg.b_measurable_only
