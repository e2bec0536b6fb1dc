import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowlab.errors import CapabilityError, EvaluationError
from flowlab.gaussian import (
    TABLE_RADIUS,
    GaussianQuadrature,
    HermiteTable,
    VectorFieldHandle,
    default_quadrature,
    fd_jacobian,
    gauss_divergence,
    gauss_expectation,
    gauss_log_expectation,
    matrix_divergence,
    ou_smooth,
    ou_smooth_grad,
    ou_smooth_table,
)
from flowlab.oracles import gaussian_abs_moment, gaussian_exp_quadratic


class TestQuadrature:
    def test_weights_sum_to_one(self, quad1, quad2):
        assert abs(quad1.weights.sum() - 1.0) <= 1e-12
        assert abs(quad2.weights.sum() - 1.0) <= 1e-12

    def test_monomial_exactness_1d(self, quad1):
        # E[x^{2k}] = (2k-1)!! up to the declared degree
        moment = 1.0
        for k in range(1, 16):
            moment *= 2 * k - 1
            val = gauss_expectation(lambda x, k=k: x[:, 0] ** (2 * k), quad1)
            assert val == pytest.approx(moment, rel=1e-10)

    def test_monomial_exactness_2d(self, quad2):
        val = gauss_expectation(lambda x: x[:, 0] ** 2 * x[:, 1] ** 4, quad2)
        assert val == pytest.approx(3.0, rel=1e-10)
        assert gauss_expectation(lambda x: x[:, 0] * x[:, 1], quad2) == pytest.approx(0.0, abs=1e-14)

    def test_normalization(self, quad1):
        assert gauss_expectation(lambda x: np.ones(x.shape[0]), quad1) == pytest.approx(1.0)

    def test_unit_variance(self, quad1):
        assert gauss_expectation(lambda x: x[:, 0] ** 2, quad1) == pytest.approx(1.0)

    def test_abs_moment(self, quad1):
        # |y| has a kink; tensor rules converge slowly on it, hence the loose tol
        val = gauss_expectation(lambda x: np.abs(x[:, 0]), quad1)
        assert val == pytest.approx(gaussian_abs_moment(1), abs=2e-2)

    def test_nonfinite_integrand_reports_node(self, quad1):
        def bad(x):
            out = np.ones(x.shape[0])
            out[x[:, 0] > 2.0] = np.inf
            return out

        with pytest.raises(EvaluationError) as err:
            gauss_expectation(bad, quad1)
        assert err.value.node is not None and err.value.node[0] > 2.0

    def test_log_expectation(self, quad1_fine):
        val = gauss_log_expectation(lambda x: 0.25 * x[:, 0] ** 2, quad1_fine)
        assert math.exp(val) == pytest.approx(gaussian_exp_quadratic(0.25), rel=1e-8)

    def test_monte_carlo_fallback(self):
        q = default_quadrature(3)
        assert q.exactness == 0
        assert abs(q.weights.sum() - 1.0) <= 1e-12
        val = gauss_expectation(lambda x: (x**2).sum(axis=1), q)
        assert val == pytest.approx(3.0, abs=0.2)


class TestDivergence:
    def test_linear_field_1d(self):
        B = VectorFieldHandle(fn=lambda x: x)
        x = np.array([[0.5], [2.0], [-1.0]])
        np.testing.assert_allclose(gauss_divergence(B, x), x[:, 0] ** 2 - 1.0, rtol=1e-8, atol=1e-10)

    def test_rotation_field_2d(self):
        B = VectorFieldHandle(fn=lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1))
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
        np.testing.assert_allclose(gauss_divergence(B, pts), 0.0, atol=1e-7)

    def test_constant_field(self):
        B = VectorFieldHandle(fn=lambda x: np.ones_like(x))
        x = np.array([[1.7]])
        assert gauss_divergence(B, x)[0] == pytest.approx(1.7, abs=1e-9)

    def test_capability_error(self):
        B = VectorFieldHandle(fn=lambda x: np.sign(x), differentiable=False)
        with pytest.raises(CapabilityError):
            gauss_divergence(B, np.array([1.0]))

    def test_fd_matches_analytic(self):
        fn = lambda x: np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2], axis=-1)
        pts = np.array([[0.3, -1.2], [1.5, 0.4]])
        jac_fd = fd_jacobian(fn, pts)
        jac_true = np.empty((2, 2, 2))
        jac_true[:, 0, 0] = np.cos(pts[:, 0]) * pts[:, 1]
        jac_true[:, 0, 1] = np.sin(pts[:, 0])
        jac_true[:, 1, 0] = 2 * pts[:, 0]
        jac_true[:, 1, 1] = 0.0
        np.testing.assert_allclose(jac_fd, jac_true, rtol=1e-5, atol=1e-7)

    def test_matrix_divergence_identity(self):
        sig = lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))
        pts = np.array([[0.7, -0.3]])
        np.testing.assert_allclose(matrix_divergence(sig, pts)[0], pts[0], atol=1e-8)

    def test_matrix_divergence_single_column(self):
        # d=2, m=1 column (x2, -x1): divergence-free and orthogonal to x
        sig = lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)[..., None]
        pts = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(matrix_divergence(sig, pts), 0.0, atol=1e-7)

    def test_adjoint_identity_polynomials(self, quad1):
        # <B, grad f> and f delta(B) integrate identically for polynomial data
        cases = [
            (lambda x: x**3, lambda x: 3 * x**2, lambda x: x, lambda x: np.ones_like(x)),
            (lambda x: x**2 - 1, lambda x: 2 * x, lambda x: x**2, lambda x: 2 * x),
            (lambda x: x, lambda x: np.ones_like(x), lambda x: x**3 - x, lambda x: 3 * x**2 - 1),
        ]
        for f, df, bf, dbf in cases:
            B = VectorFieldHandle(fn=lambda x, bf=bf: bf(x), jac=lambda x, dbf=dbf: dbf(x)[..., None])
            lhs = gauss_expectation(lambda x, bf=bf, df=df: bf(x[:, 0]) * df(x[:, 0]), quad1)
            rhs = gauss_expectation(lambda x, f=f, B=B: f(x[:, 0]) * gauss_divergence(B, x), quad1)
            assert abs(lhs - rhs) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(
        fc=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
        bc=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
    )
    def test_adjoint_identity_random_polynomials(self, fc, bc):
        quad = GaussianQuadrature.gauss_hermite(1, 32)
        f = np.polynomial.Polynomial(fc)
        df = f.deriv()
        b = np.polynomial.Polynomial(bc)
        db = b.deriv()
        B = VectorFieldHandle(fn=lambda x: b(x), jac=lambda x: db(x)[..., None])
        lhs = gauss_expectation(lambda x: b(x[:, 0]) * df(x[:, 0]), quad)
        rhs = gauss_expectation(lambda x: f(x[:, 0]) * gauss_divergence(B, x), quad)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


class TestSmoothing:
    def test_linear_contraction(self, quad1):
        for eps in (0.1, 0.5, 2.0):
            val = ou_smooth(lambda p: p[:, 0], eps, np.array([1.3]), quad1)
            assert val == pytest.approx(math.exp(-eps) * 1.3, rel=1e-12)

    def test_preserves_constants(self, quad1):
        val = ou_smooth(lambda p: np.full(p.shape[0], 4.2), 0.7, np.array([2.0]), quad1)
        assert val == pytest.approx(4.2, rel=1e-14)

    def test_second_moment_identity(self, quad1):
        val = ou_smooth(lambda p: p[:, 0] ** 2, math.log(2.0), np.array([2.0]), quad1)
        assert val == pytest.approx(1.75, rel=1e-12)

    def test_gamma_invariance(self, quad1):
        for f in (lambda x: x[:, 0] ** 4, lambda x: x[:, 0] ** 3 - x[:, 0]):
            direct = gauss_expectation(f, quad1)
            smoothed = gauss_expectation(
                lambda pts: ou_smooth(lambda q: f(q), 0.3, pts, quad1), quad1
            )
            assert abs(smoothed - direct) <= 1e-8 * max(1.0, abs(direct))

    def test_semigroup_property(self, quad1):
        f = lambda p: p[:, 0] ** 3 + p[:, 0]
        x = np.array([[0.4], [-1.1]])
        once = ou_smooth(lambda p: ou_smooth(f, 0.2, p, quad1), 0.3, x, quad1)
        combined = ou_smooth(f, 0.5, x, quad1)
        np.testing.assert_allclose(once, combined, rtol=1e-10)

    def test_uniform_convergence_on_ball(self, quad1):
        # jointly continuous, linear growth: sup over the ball shrinks as eps -> 0
        f = lambda p: np.sin(p[:, 0]) + 0.5 * np.abs(p[:, 0])
        ball = np.linspace(-2.0, 2.0, 41)[:, None]
        sups = []
        for eps in (1.0, 0.5, 0.25, 0.125, 0.0625):
            sups.append(np.abs(ou_smooth(f, eps, ball, quad1) - f(ball)).max())
        assert all(b < a for a, b in zip(sups[:-1], sups[1:]))
        assert sups[-1] < 0.15

    def test_growth_bound(self, quad1):
        # |P_eps f| <= L (1 + M1)(1 + |x|) for |f| <= L(1 + |x|)
        L = 2.0
        fields = [
            lambda p: L * (1.0 + np.abs(p[:, 0])),
            lambda p: -L * (1.0 + np.abs(p[:, 0])),
            lambda p: L * p[:, 0],
        ]
        bound_const = L * (1.0 + gaussian_abs_moment(1))
        xs = np.linspace(-4.0, 4.0, 17)[:, None]
        for f in fields:
            for eps in (1.0, 0.5, 0.1, 0.01):
                vals = ou_smooth(f, eps, xs, quad1)
                assert np.all(np.abs(vals) <= bound_const * (1.0 + np.abs(xs[:, 0])) + 1e-9)

    def test_grad_kernel_matches_fd(self, quad1):
        f = lambda p: np.sin(p[:, 0])
        x = np.array([[0.6], [-0.2]])
        grad = ou_smooth_grad(f, 0.4, x, quad1)
        h = 1e-6
        fd = (ou_smooth(f, 0.4, x + h, quad1) - ou_smooth(f, 0.4, x - h, quad1)) / (2 * h)
        np.testing.assert_allclose(grad[:, 0], fd, atol=1e-6)

    def test_rejects_bad_eps(self, quad1):
        with pytest.raises(ValueError):
            ou_smooth(lambda p: p[:, 0], 0.0, np.array([1.0]), quad1)


class TestSmoothingTable:
    def test_quadratic_closed_form(self):
        # P_ε x^2 = ρ^2 x^2 + s^2 and its gradient 2 ρ^2 x, at every table point
        for eps in (1.0 / 4, 1.0 / 64):
            rho = math.exp(-eps)
            tab = ou_smooth_table(lambda p: p[:, 0] ** 2, eps)
            assert tab.x[0] < -TABLE_RADIUS and tab.x[-1] > TABLE_RADIUS
            np.testing.assert_allclose(tab.values, rho**2 * tab.x**2 + 1.0 - rho**2, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(tab.grads, 2.0 * rho**2 * tab.x, rtol=1e-12, atol=1e-11)

    def test_constant_and_tensor_values(self):
        tab = ou_smooth_table(lambda p: np.broadcast_to([[4.2, -1.0]], (p.shape[0], 1, 2)), 0.3)
        assert tab.values.shape == (tab.x.shape[0], 1, 2)
        np.testing.assert_allclose(tab.values, np.broadcast_to([[4.2, -1.0]], tab.values.shape), rtol=1e-14)
        assert np.abs(tab.grads).max() <= 1e-12

    def test_no_table_where_round_off_would_show(self):
        # samples reach about ±(TABLE_RADIUS + 10 s); e^{z^2} overflows there, e^z is 1e7 against e
        assert ou_smooth_table(lambda p: np.exp(p[:, 0] ** 2), 0.5) is None
        assert ou_smooth_table(lambda p: np.exp(p[:, 0]), 0.5) is None
        assert ou_smooth_table(lambda p: p[:, 0] ** 4, 0.5) is not None

    def test_matches_quadrature_on_smooth_integrand(self, quad1_fine):
        f = lambda p: np.sin(p[:, 0]) + 0.1 * p[:, 0] ** 3
        tab = ou_smooth_table(f, 0.2)
        pick = np.flatnonzero(np.abs(tab.x) <= 6.0)[::97]
        pts = tab.x[pick, None]
        np.testing.assert_allclose(tab.values[pick], ou_smooth(f, 0.2, pts, quad1_fine), atol=1e-11)
        np.testing.assert_allclose(tab.grads[pick], ou_smooth_grad(f, 0.2, pts, quad1_fine)[:, 0], atol=1e-10)


class TestHermiteTable:
    def test_reproduces_cubics_and_their_derivative(self):
        x = np.linspace(-3.0, 3.0, 61)
        p = np.polynomial.Polynomial([0.5, -1.0, 2.0, 0.7])
        table = HermiteTable.fit(x, p(x), p.deriv()(x))
        pts = np.linspace(-3.0, 3.0, 1001)
        np.testing.assert_allclose(table(pts), p(pts), rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.derivative(pts), p.deriv()(pts), rtol=0, atol=1e-11)

    def test_interpolates_node_values_and_slopes(self):
        x = np.linspace(0.0, 1.0, 11)
        vals = np.stack([np.sin(7 * x), np.cos(3 * x)], axis=-1)[:, None, :]
        slopes = np.stack([7 * np.cos(7 * x), -3 * np.sin(3 * x)], axis=-1)[:, None, :]
        table = HermiteTable.fit(x, vals, slopes)
        np.testing.assert_allclose(table(x), vals, atol=1e-14)
        np.testing.assert_allclose(table.derivative(x), slopes, atol=1e-12)
