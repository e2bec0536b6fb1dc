import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import logsumexp

from flowlab import coefficients, config, oracles, sde
from flowlab.coefficients import (
    CATALOG,
    CoefficientField,
    RegularizationLadder,
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
from flowlab.convergence import KrylovAccumulator, _SupDeviation
from flowlab.density import DensityAccumulator, run_density_ensemble
from flowlab.errors import CapabilityError
from flowlab.gaussian import HermiteStack, _delta, default_quadrature
from flowlab.oracles import gaussian_abs_moment

from conftest import TangentReference, make_mixed_sigma_field, make_sine_field


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
        field = CoefficientField(
            d=1, m=1,
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

    def test_growth_constant_certified(self, quad1, monkeypatch):
        monkeypatch.setattr(coefficients, "HYPOTHESIS_TGRID", 3)
        field = make_sine_field()
        for n in (2, 8):
            reg = regularize_sigma(field, RegularizationLevel(n), quad1)
            assert reg.growth_const == pytest.approx(
                field.growth_const * (1.0 + gaussian_abs_moment(1))
            )
            rep = validate_hypotheses(reg, 0.5, quad1)
            assert rep.growth_ratio <= reg.growth_const

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
        field = replace(make_mixed_sigma_field(), sigma_jac=_raising_jac)
        reg = regularize_sigma(field, RegularizationLevel(8), quad2)
        assert reg.sigma_jacobian(0.3, self._grid(8)).shape == (441, 3, 2, 2)

    def test_sigma_jac_never_read_off_the_table(self, quad1):
        field = replace(make_sine_field(), sigma_jac=_raising_jac)
        reg = regularize_sigma(field, RegularizationLevel(8), quad1)
        X = np.array([-30.0, -16.5, -9.0, 0.0, 9.5, 16.0, 17.0, 40.0])[:, None]
        assert reg.sigma_jacobian(0.0, X).shape == (8, 1, 1, 1)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_matches_smoothed_analytic_jacobian(self, quad2, n):
        field, level = make_mixed_sigma_field(), RegularizationLevel(n)
        X = self._grid(n)
        ref = _parent_sigma_jacobian(field, level, quad2, 0.3, X)
        jac = regularize_sigma(field, level, quad2).sigma_jacobian(0.3, X)
        np.testing.assert_allclose(jac, ref, rtol=0, atol=1e-12)

    def test_analytic_jacobian_not_needed(self, quad2):
        level, X = RegularizationLevel(8), self._grid(8)
        with_jac = regularize_sigma(make_mixed_sigma_field(), level, quad2)
        without = regularize_sigma(make_mixed_sigma_field(with_jac=False), level, quad2)
        assert np.array_equal(without.sigma_jacobian(0.3, X), with_jac.sigma_jacobian(0.3, X))


def drift_divergence_identity(field, level, quad):
    """δ(b^n_t) of a time-independent drift through the identity e^{1/n} P_{1/n}[(δ(b) * χ_n)(t)].

    Valid only when the input field's δ(b) is the full adjoint-sense
    divergence.  For drifts whose pointwise representative drops a singular
    part (the sign drift: div(sign) carries a Dirac mass the a.e.
    representative |x| cannot see) this route and the true divergence of the
    smoothed field differ by the smoothed singular part; it is a cross-check
    for smooth inputs, not a route of the pipeline.
    """
    eps = level.eps

    def delta_b(t, X):
        ramp = float(mollifier_mass_below(level.n, t))
        smoothed = coefficients.ou_smooth(lambda P: field.evaluate(max(t, 0.0), P).delta_b, eps, X, quad)
        return math.exp(eps) * ramp * smoothed

    return delta_b


class TestRegularizeDrift:
    def test_constant_after_ramp(self, quad1):
        field = CoefficientField(
            d=1, m=1,
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
        monkeypatch.setattr(coefficients, "ou_smooth_stack", lambda *args, **kwargs: None)
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
        assert reg.b_jac is not None
        assert sign1.b_jac is None


@pytest.fixture
def moving(monkeypatch):
    """Build a regularized field on the moving-node rule, with no d = 1 table."""
    def build(regularizer, field, level, quad):
        with monkeypatch.context() as m:
            m.setattr(coefficients, "ou_smooth_stack", lambda *args, **kwargs: None)
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

    @staticmethod
    def _lookups(monkeypatch):
        """The points of every table read from now on (a stack of one, read at x[None]), one array per read."""
        looked_up = []
        real = HermiteStack._cells

        def cells(stack, X):
            assert np.shape(X)[0] == 1
            looked_up.append(np.asarray(X)[0].copy())
            return real(stack, X)

        monkeypatch.setattr(HermiteStack, "_cells", cells)
        return looked_up

    X = np.array([0.3, np.nan, np.inf, -np.inf, 20.0, -1.0])[:, None]

    def test_nonfinite_point_never_reaches_a_table(self, monkeypatch, quad1):
        looked_up = self._lookups(monkeypatch)
        sine = make_sine_field()  # σ = 2 + sin x, read at 0 for a non-finite x: finite off the table
        finite = replace(sine, sigma=lambda t, X: sine.sigma(t, np.nan_to_num(X, posinf=0.0, neginf=0.0)))
        field = regularize_sigma(finite, RegularizationLevel(4), quad1)
        with np.errstate(invalid="ignore"):
            field.sigma(0.0, self.X)
            field.sigma_jacobian(0.0, self.X)
        # σ^n reads P_ε σ and ∇σ^n reads ∇P_ε σ at the points on the table; the
        # P_ε σ that ∇σ^n reads at the points off the plateau holds none of them
        assert all(np.isfinite(x).all() and (np.abs(x) <= 16.0).all() for x in looked_up)
        assert np.array_equal(looked_up[0], [0.3, -1.0]) and np.array_equal(looked_up[1], [0.3, -1.0])
        assert len(looked_up) == 3 and looked_up[2].size == 0

    def test_constant_sigma_reads_no_table(self, monkeypatch, sign1, quad1):
        # σ = Id is its own smoothing: σ^n and ∇σ^n read no table, b^n and ∇b^n one lookup each
        looked_up = self._lookups(monkeypatch)
        field = regularize(sign1, RegularizationLevel(4), quad1)
        with np.errstate(invalid="ignore"):
            field.sigma(0.0, self.X)
            field.sigma_jacobian(0.0, self.X)
            assert looked_up == []
            X = self.X[~np.isnan(self.X[:, 0])]  # sign(NaN) is no drift value
            field.b(0.0, X)
            field.b_jacobian(0.0, X)
        assert len(looked_up) == 2
        assert np.array_equal(looked_up[0], [0.3, -1.0]) and np.array_equal(looked_up[1], [0.3, -1.0])


class TestCutoffProductRule:
    """σ^n = φ_n · P_ε σ and ∇σ^n = ∇φ_n ⊗ P_ε σ + φ_n ∇P_ε σ on every route, P_ε σ alone on the plateau."""

    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("key", ["translate", "sign_drift"])
    def test_unit_sigma_gives_the_cutoff(self, quad1, key, n):
        # σ = 1 is declared constant, so P_ε σ = 1 and ∇P_ε σ = 0 exactly: σ^n is φ_n and ∂σ^n is φ_n'
        reg = regularize_sigma(builtin_coefficients(key, d=1), RegularizationLevel(n), quad1)
        xs = np.linspace(-(n + 3.0), n + 3.0, 20001)[:, None]
        assert np.array_equal(reg.sigma(0.4, xs)[:, 0, 0], cutoff(n, xs))
        assert np.array_equal(reg.sigma_jacobian(0.4, xs)[:, 0, 0, 0], cutoff_grad(n, xs)[:, 0])

    @pytest.mark.parametrize("n", [4, 8])
    def test_identity_in_d2_gives_the_cutoff_times_identity(self, quad2, n):
        # ∂σ^{aj}/∂x_b = ∂_b φ_n δ_aj: exactly 0 on the plateau, ∇φ_n ⊗ Id off it
        reg = regularize_sigma(builtin_coefficients("sign_drift", d=2), RegularizationLevel(n), quad2)
        axis = np.linspace(-(n + 3.0), n + 3.0, 61)
        X = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        eye = np.eye(2)
        assert np.array_equal(reg.sigma(0.4, X), cutoff(n, X)[:, None, None] * eye)
        jac = reg.sigma_jacobian(0.4, X)
        assert np.array_equal(jac, np.einsum("kb,aj->kjab", cutoff_grad(n, X), eye))
        plateau = np.abs(X).max(axis=-1) <= n / math.sqrt(2.0)
        assert plateau.any() and not jac[plateau].any()

    def test_constant_declaration(self, sign1, quad1):
        # σ^n is not constant; b^n leaves σ, and so its declaration, as it is
        level = RegularizationLevel(4)
        assert np.array_equal(sign1.sigma_const, [[1.0]])
        assert regularize_sigma(sign1, level, quad1).sigma_const is None
        assert regularize_drift(sign1, level, quad1).sigma_const is sign1.sigma_const
        assert regularize(sign1, level, quad1).sigma_const is None
        assert make_sine_field().sigma_const is None

    @pytest.mark.parametrize("case", ["d=1 table", "d=2 moving nodes"])
    def test_plateau_reads_the_smoothed_values_as_they_are(self, quad1, quad2, monkeypatch, case):
        n = 8
        if case == "d=1 table":
            field, quad, t = make_sine_field(), quad1, 0.0
            chunk = np.linspace(-n, n, 161)[:, None]
            far = np.array([[n + 1.0]])
        else:
            field, quad, t = make_mixed_sigma_field(), quad2, 0.3
            axis = np.linspace(-n / math.sqrt(2.0), n / math.sqrt(2.0), 12)
            chunk = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
            far = np.array([[n + 1.0, 0.0]])
        reg = regularize_sigma(field, RegularizationLevel(n), quad)
        calls = []
        real = coefficients.cutoff
        monkeypatch.setattr(coefficients, "cutoff", lambda *a: calls.append(1) or real(*a))
        plateau = reg.sigma(t, chunk), reg.sigma_jacobian(t, chunk)
        assert calls == []
        extended = np.concatenate([chunk, far])
        product = reg.sigma(t, extended)[:-1], reg.sigma_jacobian(t, extended)[:-1]
        assert calls == [1, 1]
        assert np.array_equal(plateau[0], product[0]) and np.array_equal(plateau[1], product[1])


class TestChunkIndependence:
    """A path's arithmetic is its own: the chunk it runs in does not change its bits."""

    STARTS_PAST_TABLE = np.linspace(-24.0, 24.0, 301)[:, None]  # |x| up to 24, past the d = 1 tables

    @staticmethod
    def _same_at_every_cut(monkeypatch, run):
        """``run()``, a tuple of per-path arrays, at the default chunk cap, 64 and 97: the same bits."""
        runs = []
        for cap in (None, 64, 97):
            if cap is not None:
                monkeypatch.setattr(sde, "_chunk_cap", lambda cap=cap: cap)
            runs.append(run())
        for other in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], other))

    @staticmethod
    def _density(field, starts):
        def run():
            ens, acc = run_density_ensemble(field, 0.0, 2e-3, starts, 1e-3, seed=3)
            return ens.xT, acc.log_ktilde
        return run

    def test_regularized_mixed_sigma_ensemble(self, quad2, monkeypatch):
        reg = regularize(make_mixed_sigma_field(), RegularizationLevel(8), quad2)  # d = 2, m = 3
        self._same_at_every_cut(monkeypatch, self._density(reg, ("gaussian", 301)))

    def test_regularized_sign_drift_in_d2(self, quad2, monkeypatch):
        reg = regularize(builtin_coefficients("sign_drift", d=2), RegularizationLevel(8), quad2)  # m = 2
        self._same_at_every_cut(monkeypatch, self._density(reg, ("gaussian", 301)))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("key", sorted(CATALOG))
    def test_catalog_fields(self, monkeypatch, key, d):
        params = {"matrix": np.arange(1.0, d * (d + 1) + 1.0).reshape(d, d + 1) / 4.0} if key == "anisotropic" else {}
        field = builtin_coefficients(key, d=d, **params)
        self._same_at_every_cut(monkeypatch, self._density(field, ("gaussian", 301)))

    @pytest.mark.parametrize("key", ["sine", "sign_drift"])
    def test_regularized_level_in_d1_past_the_tables(self, quad1, monkeypatch, key):
        field = make_sine_field() if key == "sine" else builtin_coefficients(key, d=1)
        reg = regularize(field, RegularizationLevel(8), quad1)
        self._same_at_every_cut(monkeypatch, self._density(reg, self.STARTS_PAST_TABLE))

    def test_a_point_off_the_table_alone_or_among_others(self, quad1):
        # off the d = 1 table, σ^n smooths on moving nodes the points passed on to it: here
        # 16.7 alone, beside a point on the table (so again alone) and beside one off it
        reg = regularize(make_sine_field(), RegularizationLevel(64), quad1)
        bundles = [reg.evaluate(0.3, np.array(X)) for X in ([[16.7]], [[16.7], [0.1]], [[16.7], [18.0]])]
        for name in ("sigma", "delta_sigma", "phi"):
            first = [getattr(ev, name)[0].tobytes() for ev in bundles]
            assert first[1] == first[0] and first[2] == first[0], name

    @pytest.mark.parametrize("kind", ["density", "tangent", "krylov", "coupling"])
    def test_each_accumulator(self, sign1, quad1, monkeypatch, kind):
        reg = regularize(sign1, RegularizationLevel(8), quad1)
        if kind == "density":
            accs = (DensityAccumulator(1e-3),)
        elif kind == "tangent":
            accs = (TangentReference(1e-3),)
        elif kind == "krylov":
            accs = (KrylovAccumulator(lambda t, X: np.cos(X[..., 0]), 0.5, 1e-3),)
        else:
            # levels 2 and 4 beside the reference level 8, as one ladder: every level's endpoints and deviations
            reg, accs = RegularizationLadder(sign1, [2, 4, 8], quad1), (_SupDeviation(2),)
        per_path = {DensityAccumulator: ("S", "D"), TangentReference: ("logdet", "nonpositive"),
                    KrylovAccumulator: ("values",), _SupDeviation: ("sup_dev",)}

        def run():
            ens = sde.simulate_ensemble(reg, 0.0, 2e-3, self.STARTS_PAST_TABLE, 1e-3, seed=3, accumulators=accs)
            return (ens.xT,) + tuple(np.array(getattr(acc, name)) for acc in accs for name in per_path[type(acc)])

        self._same_at_every_cut(monkeypatch, run)


class TestSmoothingMemory:
    def test_a_d2_bundle_at_a_full_chunk_stays_small(self):
        """One (σ, b, Φ) bundle of a d = 2 sign_drift level at a chunk of 8192 points peaks under 64 MB.

        The drift declares no ∇b, so its kernel gradient moves the 64^2 nodes
        of the refined rule to every point: in one array, 8192 * 4096 * 2
        floats, 512 MiB.  In blocks, a few MB.
        """
        reg = regularize(builtin_coefficients("sign_drift", d=2), RegularizationLevel(8), default_quadrature(2))
        X = np.random.default_rng(0).normal(size=(8192, 2))
        tracemalloc.start()
        try:
            values = reg.evaluate(0.3, X)
            assert np.isfinite(values.sigma).all() and np.isfinite(values.b).all() and np.isfinite(values.phi).all()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestDerivativesFromFieldOrKernel:
    """∇σ and ∇b come from the field or from the kernel of P_ε, never from differences."""

    def test_undeclared_jacobians_refused_and_regularized(self, sine_field, ou1, quad1):
        no_sigma_jac = replace(sine_field, sigma_jac=None)
        no_b_jac = replace(ou1, b_jac=None)
        X = np.array([[0.3], [-1.2]])
        with pytest.raises(CapabilityError):
            no_sigma_jac.sigma_jacobian(0.3, X)
        with pytest.raises(CapabilityError):
            no_b_jac.b_jacobian(0.3, X)
        for field in (no_sigma_jac, no_b_jac):
            reg = regularize(field, RegularizationLevel(8), quad1)
            assert reg.sigma_jacobian(0.3, X).shape == (2, 1, 1, 1)
            assert reg.b_jacobian(0.3, X).shape == (2, 1, 1)
            assert np.isfinite(reg.evaluate(0.3, X).phi).all()

    @pytest.mark.parametrize("d, route", [(1, "table"), (1, "moving nodes"), (2, "moving nodes")])
    @pytest.mark.parametrize("key", ["ou_linear", "sign_drift"])
    def test_ramp_follows_the_smoothing(self, moving, key, d, route):
        field, level, quad = builtin_coefficients(key, d=d), RegularizationLevel(8), default_quadrature(d)
        reg = regularize_drift(field, level, quad) if route == "table" else moving(regularize_drift, field, level, quad)
        X = np.random.default_rng(d).normal(size=(9, d)) * 2.0
        X[-1, 0] = 20.0  # off the d = 1 table
        b1, jac1 = reg.b(1.0, X), reg.b_jacobian(1.0, X)
        for t in (0.0, 0.03, 0.06):
            ramp = mollifier_mass_below(8, t)
            assert np.array_equal(reg.b(t, X), ramp * b1)
            assert np.array_equal(reg.b_jacobian(t, X), ramp * jac1)

    @pytest.mark.parametrize("key, refined", [("sign_drift", True), ("ou_linear", False)])
    def test_drift_without_jacobian_gets_the_refined_gradient_rule(self, quad2, monkeypatch, key, refined):
        calls = []
        real = coefficients.refined_quadrature
        monkeypatch.setattr(coefficients, "refined_quadrature",
                            lambda quad, factor: calls.append(factor) or real(quad, factor=factor))
        reg = regularize_drift(builtin_coefficients(key, d=2), RegularizationLevel(8), quad2)
        reg.b_jacobian(0.5, np.array([[0.3, -0.4], [1.0, 2.0]]))
        assert calls == ([4] if refined else [])


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
        field = CoefficientField(
            d=1, m=1,
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


# rounding allowance of Σ_T's log-space trapezoid against scipy's linear one
SIGMA_T_RTOL = 1e-15


class TestValidateHypotheses:
    def test_sigma_integral_translate(self, quad1, monkeypatch):
        monkeypatch.setattr(coefficients, "HYPOTHESIS_TGRID", 5)
        field = builtin_coefficients("translate", d=1, lam=0.25)
        rep = validate_hypotheses(field, 1.0, quad1)
        assert rep.sigma_T == pytest.approx(math.sqrt(2.0), rel=1e-6)
        assert not rep.divergent

    def test_min_eigenvalue_identity(self, translate1, quad1, monkeypatch):
        monkeypatch.setattr(coefficients, "HYPOTHESIS_TGRID", 3)
        rep = validate_hypotheses(translate1, 1.0, quad1)
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert translate1.c1 - rep.min_eigenvalue <= coefficients.HYPOTHESIS_TOL

    def test_growth_ratio_by_construction(self, quad1, monkeypatch):
        monkeypatch.setattr(coefficients, "HYPOTHESIS_TGRID", 3)
        field = CoefficientField(
            d=1, m=1,
            sigma=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1)),
            b=lambda t, X: (2.0 * (1.0 + np.abs(X))),
            sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1, 1)),
            delta_b_fn=lambda t, X: 2.0 * (1.0 + np.abs(X[..., 0])) * X[..., 0] - 2.0 * np.sign(X[..., 0]),
            growth_const=2.0, exp_const=0.05, name="fast_growth",
        )
        rep = validate_hypotheses(field, 1.0, quad1)
        assert rep.growth_ratio == pytest.approx(2.0, rel=1e-9)

    def test_divergence_flag(self, quad1, monkeypatch):
        # exp(10 |x|^2) is not γ-integrable; on GH-32 nodes its log integral passes LOG_CAP
        monkeypatch.setattr(coefficients, "HYPOTHESIS_TGRID", 3)
        rep = validate_hypotheses(builtin_coefficients("translate", d=1, lam=10.0), 1.0, quad1)
        assert rep.divergent and rep.sigma_T == math.inf

    @pytest.mark.parametrize("name", ["sine", "ou_linear", "sign_drift_n8"])
    def test_sigma_integral_is_scipy_trapezoid_bitwise(self, sine_field, ou1, sign1, quad1, name):
        # Σ_T's log-space trapezoid against scipy's linear one on the uniform HYPOTHESIS_TGRID
        # nodes: bit for bit on the two time-independent fields, and within SIGMA_T_RTOL on a
        # regularized level, whose drift ramp varies in time (measured: one ulp, 2.2e-16)
        fields = {"sine": lambda: sine_field, "ou_linear": lambda: ou1,
                  "sign_drift_n8": lambda: regularize(sign1, RegularizationLevel(8), quad1)}
        field = fields[name]()
        times = np.linspace(0.0, 1.0, coefficients.HYPOTHESIS_TGRID)
        log_inner = [
            logsumexp(quad1.log_weights + field.exp_const * (ev.grad_hs2 + ev.delta_sigma2 + np.abs(ev.delta_b)))
            for ev in (field.evaluate(t, quad1.nodes) for t in times)
        ]
        assert np.ptp(log_inner) > 0.01 if name == "sign_drift_n8" else np.ptp(log_inner) == 0.0
        expected = float(trapezoid(np.exp(log_inner), times))
        sigma_T = validate_hypotheses(field, 1.0, quad1).sigma_T
        if name == "sign_drift_n8":
            assert sigma_T == pytest.approx(expected, rel=SIGMA_T_RTOL, abs=0.0)
        else:
            assert sigma_T == expected


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
        assert sign1.b_jac is None
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
        assert rep.min_eigenvalue == field.c1
        assert rep.growth_ratio <= field.growth_const
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
    assert sign1.b_jac is None and reg.b_jac is not None
