import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

from flowlab import gaussian
from flowlab.coefficients import CoefficientField
from flowlab.errors import CapabilityError, EvaluationError
from flowlab.gaussian import (
    MAX_GH_ORDER,
    TABLE_RADIUS,
    GaussianQuadrature,
    HermiteTable,
    default_quadrature,
    gauss_expectation,
    logsumexp,
    ou_smooth,
    ou_smooth_grad,
    ou_smooth_stack,
    ou_smooth_table,
    spacetime_log_integral,
)
from flowlab.oracles import gaussian_abs_moment


def _drift_field(b, d, jac=None):
    """``CoefficientField`` with σ = Id, drift ``b(x)`` and ∇b ``jac(x)``; without ``jac`` it has no ∇b."""
    return CoefficientField(
        d=d, m=d,
        sigma=lambda t, X: np.broadcast_to(np.eye(d), np.shape(X)[:-1] + (d, d)),
        b=lambda t, X: b(X),
        b_jac=None if jac is None else (lambda t, X: jac(X)),
    )


def _delta_b(b, x, jac):
    """δ(b)(x) read off ``evaluate`` of ``_drift_field(b, jac=jac)``."""
    x = np.asarray(x, dtype=float)
    return _drift_field(b, x.shape[-1], jac).evaluate(0.0, x).delta_b


def _delta_sigma(sigma, x, m, jac):
    """δ of each column of σ(x), read off ``evaluate`` with the column Jacobians ``jac(x)``."""
    x = np.asarray(x, dtype=float)
    field = CoefficientField(
        d=x.shape[-1], m=m, sigma=lambda t, X: sigma(X), b=lambda t, X: np.zeros(np.shape(X)),
        sigma_jac=lambda t, X: jac(X),
    )
    return field.evaluate(0.0, x).delta_sigma


# ∂/∂x of the rotation (x_2, -x_1), at every point of x (..., 2)
_ROTATION_JAC = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestQuadrature:
    def test_no_order_beyond_d_2(self):
        assert default_quadrature(3).exactness == 0 and default_quadrature(3, order=0).exactness == 0
        with pytest.raises(ValueError):
            default_quadrature(3, order=8)

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

    @pytest.mark.parametrize("order", [0, MAX_GH_ORDER + 1, 1024])
    def test_order_outside_the_usable_range_refused(self, order):
        # refused before hermgauss runs, which at 371 and above would warn and give NaN weights
        with pytest.raises(ValueError, match="Gauss-Hermite order"):
            GaussianQuadrature.gauss_hermite(1, order)

    def test_nan_weight_refused(self):
        weights = np.full(4, 0.25)
        weights[2] = np.nan
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianQuadrature(d=1, nodes=np.zeros((4, 1)), weights=weights, exactness=0)

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

    def test_monte_carlo_fallback(self):
        q = default_quadrature(3)
        assert q.exactness == 0
        assert abs(q.weights.sum() - 1.0) <= 1e-12
        val = gauss_expectation(lambda x: (x**2).sum(axis=1), q)
        assert val == pytest.approx(3.0, abs=0.2)


class TestDivergence:
    def test_linear_field_1d(self):
        x = np.array([[0.5], [2.0], [-1.0]])
        jac = lambda x: np.ones(x.shape + (1,))
        np.testing.assert_allclose(_delta_b(lambda x: x, x, jac), x[:, 0] ** 2 - 1.0, rtol=1e-8, atol=1e-10)

    def test_rotation_field_2d(self):
        pts = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 0.0]])
        rotation = lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)
        jac = lambda x: np.broadcast_to(_ROTATION_JAC, x.shape[:-1] + (2, 2))
        np.testing.assert_allclose(_delta_b(rotation, pts, jac), 0.0, atol=1e-7)

    def test_constant_field(self):
        x = np.array([[1.7]])
        assert _delta_b(np.ones_like, x, lambda x: np.zeros(x.shape + (1,)))[0] == pytest.approx(1.7, abs=1e-9)

    def test_capability_error(self):
        ev = _drift_field(np.sign, 1).evaluate(0.0, np.array([[1.0]]))
        # σ and b evaluate; only reading δ(b) asks for the Jacobian a measurable drift lacks
        with pytest.raises(CapabilityError):
            ev.delta_b

    def test_matrix_divergence_identity(self):
        sig = lambda x: np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))
        pts = np.array([[0.7, -0.3]])
        jac = lambda x: np.zeros(x.shape[:-1] + (2, 2, 2))
        np.testing.assert_allclose(_delta_sigma(sig, pts, 2, jac)[0], pts[0], atol=1e-8)

    def test_matrix_divergence_single_column(self):
        # d=2, m=1 column (x2, -x1): divergence-free and orthogonal to x
        sig = lambda x: np.stack([x[..., 1], -x[..., 0]], axis=-1)[..., None]
        pts = np.array([[1.0, 2.0]])
        jac = lambda x: np.broadcast_to(_ROTATION_JAC, x.shape[:-1] + (1, 2, 2))
        np.testing.assert_allclose(_delta_sigma(sig, pts, 1, jac), 0.0, atol=1e-7)

    def test_adjoint_identity_polynomials(self, quad1):
        # <B, grad f> and f delta(B) integrate identically for polynomial data
        cases = [
            (lambda x: x**3, lambda x: 3 * x**2, lambda x: x, lambda x: np.ones_like(x)),
            (lambda x: x**2 - 1, lambda x: 2 * x, lambda x: x**2, lambda x: 2 * x),
            (lambda x: x, lambda x: np.ones_like(x), lambda x: x**3 - x, lambda x: 3 * x**2 - 1),
        ]
        for f, df, bf, dbf in cases:
            lhs = gauss_expectation(lambda x, bf=bf, df=df: bf(x[:, 0]) * df(x[:, 0]), quad1)
            rhs = gauss_expectation(
                lambda x, f=f, bf=bf, dbf=dbf: f(x[:, 0]) * _delta_b(bf, x, jac=lambda x: dbf(x)[..., None]),
                quad1,
            )
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
        lhs = gauss_expectation(lambda x: b(x[:, 0]) * df(x[:, 0]), quad)
        rhs = gauss_expectation(lambda x: f(x[:, 0]) * _delta_b(b, x, jac=lambda x: db(x)[..., None]), quad)
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


class TestSmoothingBlocks:
    """Moving-node smoothing in blocks of points gives the sums of one block, bit for bit."""

    FUNCTIONS = {
        "scalar": lambda P: np.sin(P[:, 0]) + np.abs(P).sum(axis=-1),
        "tensor": lambda P: np.einsum("na,nb->nab", np.cos(P), np.sign(P)),
    }

    @pytest.mark.parametrize("smooth", [ou_smooth, ou_smooth_grad])
    @pytest.mark.parametrize("f", sorted(FUNCTIONS))
    @pytest.mark.parametrize("n", [1025, 37, 2, 1, 0, None])  # None: a single point (d,)
    @pytest.mark.parametrize("points", [1, 3, None])  # a block's points; None: SMOOTH_BLOCK_FLOATS as set
    def test_blocks_give_the_one_block_bits(self, quad2, monkeypatch, smooth, f, n, points):
        k, d = quad2.nodes.shape
        x = np.random.default_rng(5).normal(size=(d,) if n is None else (n, d)) * 2.0
        sizes = []

        def counted(P):
            sizes.append(P.shape[0] // k)
            return self.FUNCTIONS[f](P)

        monkeypatch.setattr(gaussian, "SMOOTH_BLOCK_FLOATS", 1 << 62)
        whole = smooth(counted, 0.3, x, quad2)
        assert len(sizes) == 1
        monkeypatch.undo()
        if points is not None:
            monkeypatch.setattr(gaussian, "SMOOTH_BLOCK_FLOATS", points * k * d)
        block = max(2, gaussian.SMOOTH_BLOCK_FLOATS // (k * d))
        sizes.clear()
        blocked = smooth(counted, 0.3, x, quad2)
        assert blocked.shape == whole.shape and blocked.tobytes() == whole.tobytes()
        # every point once (a point alone in its call twice, as a block of two); no block
        # past its size, and none of one point among several
        count = 1 if n is None else n
        assert sum(sizes) == (2 if count == 1 else count)
        assert max(sizes) <= block + 1 and (len(sizes) > 1) == ((n or 1) > block + 1)
        assert min(sizes) >= 2 or len(sizes) == 1

    def test_non_finite_value_in_a_later_block(self, quad2, monkeypatch):
        monkeypatch.setattr(gaussian, "SMOOTH_BLOCK_FLOATS", 2 * quad2.nodes.size)
        x = np.zeros((9, 2))
        x[7] = 100.0  # f is infinite off |P_1| <= 50, so on every node moved to x_7 only
        with pytest.raises(EvaluationError):
            ou_smooth(lambda P: np.where(np.abs(P[:, 0]) <= 50.0, 1.0, np.inf), 0.3, x, quad2)


def _table_nodes(table):
    """The grid points of a ``HermiteTable`` up to its last cell's left edge."""
    return table.x0 + table.h * np.arange(table.coef.shape[1])


class TestSmoothingTable:
    def test_quadratic_closed_form(self):
        # P_ε x^2 = ρ^2 x^2 + s^2 and its gradient 2 ρ^2 x, at every table point
        for eps in (1.0 / 4, 1.0 / 64):
            rho = math.exp(-eps)
            tab = ou_smooth_table(lambda p: p[:, 0] ** 2, eps)
            assert tab.x0 < -TABLE_RADIUS and tab.x0 + tab.h * tab.coef.shape[1] > TABLE_RADIUS
            xs = _table_nodes(tab)
            np.testing.assert_allclose(tab(xs), rho**2 * xs**2 + 1.0 - rho**2, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(tab.derivative(xs), 2.0 * rho**2 * xs, rtol=1e-12, atol=1e-11)

    def test_constant_and_tensor_values(self):
        tab = ou_smooth_table(lambda p: np.broadcast_to([[4.2, -1.0]], (p.shape[0], 1, 2)), 0.3)
        xs = np.linspace(-TABLE_RADIUS, TABLE_RADIUS, 1001)
        assert tab.shape == (1, 2) and tab(xs).shape == (1001, 1, 2)
        np.testing.assert_allclose(tab(xs), np.broadcast_to([[4.2, -1.0]], (1001, 1, 2)), rtol=1e-14)
        assert np.abs(tab.derivative(xs)).max() <= 1e-12

    def test_no_table_where_round_off_would_show(self):
        # samples reach about ±(TABLE_RADIUS + 10 s); e^{z^2} overflows there, e^z is 1e7 against e
        assert ou_smooth_table(lambda p: np.exp(p[:, 0] ** 2), 0.5) is None
        assert ou_smooth_table(lambda p: np.exp(p[:, 0]), 0.5) is None
        assert ou_smooth_table(lambda p: p[:, 0] ** 4, 0.5) is not None

    def test_matches_quadrature_on_smooth_integrand(self, quad1_fine):
        f = lambda p: np.sin(p[:, 0]) + 0.1 * p[:, 0] ** 3
        tab = ou_smooth_table(f, 0.2)
        nodes = _table_nodes(tab)
        pts = nodes[np.abs(nodes) <= 6.0][::97, None]
        np.testing.assert_allclose(tab(pts[:, 0]), ou_smooth(f, 0.2, pts, quad1_fine), atol=1e-11)
        np.testing.assert_allclose(tab.derivative(pts[:, 0]), ou_smooth_grad(f, 0.2, pts, quad1_fine)[:, 0],
                                   atol=1e-10)


def _gather_formula(table, x):
    """Value and derivative by one gather from the (4, cells, k) planes, a clip of every index and out-of-place Horner."""
    u = (np.asarray(x, dtype=float) - table.x0) / table.h
    j = np.clip(np.floor(u).astype(np.intp), 0, table.coef.shape[1] - 1)
    tau = (u - j)[:, None]
    c = np.take(table.coef, j, axis=1)
    value = c[0] + tau * (c[1] + tau * (c[2] + tau * c[3]))
    slope = (c[1] + tau * (2.0 * c[2] + 3.0 * tau * c[3])) / table.h
    return value.reshape((-1,) + table.shape), slope.reshape((-1,) + table.shape)


class TestHermiteKernel:
    """The in-place kernel gives the floats of the plain gather formula, bit for bit."""

    @pytest.fixture(scope="class")
    def tables(self):
        rng = np.random.default_rng(17)
        x = np.linspace(-4.0, 4.0, 257)
        scalar = HermiteTable.fit(x, np.sin(3 * x), 3 * np.cos(3 * x))
        vals = rng.standard_normal((257, 1, 3))
        slopes = rng.standard_normal((257, 1, 3))
        return {"k=1": scalar, "k=3": HermiteTable.fit(x, vals, slopes)}

    @pytest.mark.parametrize("name", ["k=1", "k=3"])
    def test_equals_the_gather_formula(self, tables, name):
        table = tables[name]
        rng = np.random.default_rng(5)
        lo = table.x0
        hi = lo + table.coef.shape[1] * table.h
        inside = rng.uniform(lo, hi, 2000)
        edges = lo + table.h * np.arange(table.coef.shape[1] + 1)
        beyond = np.concatenate([rng.uniform(lo - 3.0, lo, 50), rng.uniform(hi, hi + 3.0, 50)])
        for pts in (inside, edges, np.concatenate([inside, beyond]), beyond):
            value, slope = _gather_formula(table, pts)
            assert np.array_equal(table(pts), value)
            assert np.array_equal(table.derivative(pts), slope)

    def test_clips_only_when_a_point_leaves_the_kept_cells(self, tables, monkeypatch):
        clips = []
        real = np.clip
        monkeypatch.setattr(np, "clip", lambda *a, **k: clips.append(1) or real(*a, **k))
        table = tables["k=1"]
        lo = table.x0
        table(lo + table.h * np.array([0.0, 0.5, 70.25]))
        assert clips == []
        table(np.array([lo - 0.01, lo + 1.0]))
        assert clips == [1]

    def test_empty_points(self, tables):
        for table in tables.values():
            assert table(np.empty(0)).shape == (0,) + table.shape
            assert table.derivative(np.empty(0)).shape == (0,) + table.shape


class TestLogSumExp:
    """``logsumexp`` returns scipy's float bit for bit, edge cases included."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(29)
        shapes = [(79,), (6250,), (33, 64), (64,), (3,)]
        for i in range(600):
            a = rng.standard_normal(shapes[i % 5]) * (1.0, 10.0, 300.0, 1000.0)[i % 4]
            flat = a.reshape(-1)
            kind = i % 10
            if kind == 1:
                flat[rng.integers(flat.size)] = np.inf
            elif kind == 2:
                flat[rng.integers(flat.size)] = -np.inf
            elif kind == 3:
                flat[rng.integers(flat.size)] = np.nan
            elif kind == 4:
                flat[:] = np.round(flat)                     # tied maxima
            elif kind == 5:
                flat[:] = -np.inf
            elif kind == 6:
                flat[: flat.size // 2] = flat.max()
            elif kind == 7:
                flat[:2] = np.inf, -np.inf
            yield a, scipy_logsumexp(a)

    def test_bitwise_scipy(self):
        for a, expected in self._cases():
            got = logsumexp(a)
            assert type(got) is type(expected)
            assert np.array_equal(got, expected, equal_nan=True) and np.signbit(got) == np.signbit(expected)

    def test_empty(self):
        assert logsumexp(np.array([])) == scipy_logsumexp(np.array([])) == -np.inf


class TestSpacetimeLogIntegral:
    # rounding allowance of the log-space sums against the same sums in linear arithmetic
    RTOL = 1e-13

    @pytest.mark.parametrize("d, n_times", [(1, 17), (2, 5), (1, 2)])
    def test_matches_the_linear_trapezoid(self, d, n_times):
        quad = default_quadrature(d, order=8)
        times = np.linspace(0.2, 0.7, n_times)
        v = np.random.default_rng(3).standard_normal((n_times, quad.weights.size))
        inner = np.exp(v) @ quad.weights
        w = np.full(n_times, times[1] - times[0])
        w[[0, -1]] /= 2.0
        log_integral, peak = spacetime_log_integral(v, times, quad)
        assert math.exp(log_integral) == pytest.approx(w @ inner, rel=self.RTOL)
        assert math.exp(peak) == pytest.approx(inner.max(), rel=self.RTOL)

    def test_past_double_range(self):
        # e^800 overflows a double; the log integral of the constant is 800 + log(t1 - t0)
        quad = default_quadrature(1)
        log_integral, peak = spacetime_log_integral(np.full((9, 32), 800.0), np.linspace(0.0, 0.5, 9), quad)
        assert log_integral == pytest.approx(800.0 + math.log(0.5), rel=1e-15)
        assert peak == pytest.approx(800.0, rel=1e-15)


class TestHermiteStack:
    """A stack of tables reads each row off its own table, bit for bit, and holds the tables once."""

    EPS = (1.0 / 4, 1.0 / 32, 1.0 / 128)

    def test_rows_read_their_own_tables(self):
        f = lambda p: np.sign(p) + 0.1 * np.sin(3.0 * p)  # (n, 1): one value a point
        stack = ou_smooth_stack(f, self.EPS, 1)
        rng = np.random.default_rng(11)
        inside = rng.uniform(-TABLE_RADIUS, TABLE_RADIUS, (3, 500))
        beyond = inside.copy()
        beyond[1, :7] = [-40.0, -17.0, 17.0, 30.0, np.nextafter(-TABLE_RADIUS, 0.0), 0.0, 16.0]
        for X in (inside, beyond, np.empty((3, 0))):
            rows = stack(X)
            assert rows.shape == X.shape + (1,)
            for table, eps, x, row in zip(stack.tables, self.EPS, X, rows):
                alone = ou_smooth_table(f, eps)
                assert np.array_equal(row, table(x)) and np.array_equal(row, alone(x))
                assert np.array_equal(table.derivative(x), alone.derivative(x))

    def test_tables_are_views_of_the_planes(self):
        stack = ou_smooth_stack(np.sign, self.EPS, 1)
        assert all(np.shares_memory(table.coef, stack.planes) for table in stack.tables)
        assert sum(table.coef.shape[1] for table in stack.tables) == stack.planes.shape[1]

    def test_no_stack_without_every_table(self):
        # e^z grows too fast for any table; at ε = 1e-9 the grid would pass TABLE_MAX_NODES
        assert ou_smooth_table(np.sign, 1e-9) is None
        assert ou_smooth_stack(np.exp, (1.0 / 4, 0.5), 1) is None
        assert ou_smooth_stack(np.sign, (1.0 / 4, 1e-9), 1) is None


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
