import math

import numpy as np
import pytest

from flowlab.coefficients import CoefficientField, builtin_coefficients
from flowlab.gaussian import GaussianQuadrature


@pytest.fixture(scope="session")
def quad1():
    return GaussianQuadrature.gauss_hermite(1, 32)


@pytest.fixture(scope="session")
def quad1_fine():
    return GaussianQuadrature.gauss_hermite(1, 64)


@pytest.fixture(scope="session")
def quad2():
    return GaussianQuadrature.gauss_hermite(2, 16)


@pytest.fixture(scope="session")
def translate1():
    return builtin_coefficients("translate", d=1)


@pytest.fixture(scope="session")
def ou1():
    return builtin_coefficients("ou_linear", d=1, a=1.0)


@pytest.fixture(scope="session")
def sign1():
    return builtin_coefficients("sign_drift", d=1, beta=1.0)


@pytest.fixture(scope="session")
def rocket1():
    """Unit noise under a drift of 1e9: every path leaves the explosion radius."""
    return CoefficientField(
        d=1, m=1,
        sigma=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1)),
        b=lambda t, X: 1e9 * np.ones(np.shape(X)),
        sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1, 1)),
        b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1)),
        growth_const=1e9, exp_const=0.1, name="rocket",
    )


def make_sine_field():
    """d = m = 1 field with genuinely varying diffusion: σ(x) = 2 + sin x, b = 0."""

    def sigma(t, X):
        return (2.0 + np.sin(X))[..., None]

    def sigma_jac(t, X):
        return np.cos(X)[..., None, None]

    def b(t, X):
        return np.zeros_like(np.asarray(X, dtype=float))

    return CoefficientField(
        d=1, m=1,
        sigma=sigma, b=b,
        sigma_jac=sigma_jac,
        b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1)),
        delta_b_fn=lambda t, X: np.zeros(np.shape(X)[:-1]),
        c1=1.0,
        growth_const=3.0,
        exp_const=0.04,
        name="sine_sigma",
    )


def make_mixed_sigma_field(with_jac=True):
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

    return CoefficientField(
        d=2, m=3, sigma=sigma, b=lambda t, X: np.zeros(np.shape(X)),
        sigma_jac=sigma_jac if with_jac else None,
        b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (2, 2)),
        growth_const=3.0, exp_const=0.04, name="mixed_sigma",
    )


@pytest.fixture(scope="session")
def sine_field():
    return make_sine_field()


def gauss_density(x):
    x = np.asarray(x, dtype=float)
    r2 = np.einsum("...a,...a->...", x, x)
    d = x.shape[-1]
    return np.exp(-r2 / 2.0) / (2.0 * math.pi) ** (d / 2.0)


class StoredStates:
    """Accumulator keeping every Euler state: ``paths`` is (n_traj, n_steps + 1, d).

    A reference for the streaming accumulators, which keep far less.
    """

    def __init__(self, n_steps, d):
        self.shape = (n_steps + 1, d)

    def alloc(self, n_traj, zeros):
        self.paths = zeros((n_traj,) + self.shape)

    def step(self, sl, k, t, X, dW, ev, X_next):
        if k == 0:
            self.paths[sl, 0] = X
        self.paths[sl, k + 1] = X_next


class TangentReference:
    """Accumulator of log|det J_T|, J_T the Jacobian of the Euler map x -> X_T(x).

    J_T is the product of the step factors I + Σ_j ∇σ^{.j} ΔW_j + ∇b dt,
    read from the step's ``ev.sigma_jac`` and the field's ``b_jacobian``, so
    log K(X_T(x)) = (|X_T|^2 - |x|^2)/2 - log|det J_T| (the change of
    variables of the flow) uses neither δ, nor Φ, nor the Itô correction.
    ``logdet`` is Σ log|det| of the factors and ``nonpositive`` counts the
    factors with det <= 0, where the Euler map is not a diffeomorphism.
    """

    def __init__(self, dt):
        self.dt = dt

    def alloc(self, n_traj, zeros):
        self.logdet = zeros(n_traj)
        self.nonpositive = zeros(n_traj)

    def step(self, sl, k, t, X, dW, ev, X_next):
        factor = np.einsum("njab,nj->nab", ev.sigma_jac, dW) + ev.field.b_jacobian(t, X) * self.dt
        factor += np.eye(X.shape[-1])
        sign, logabs = np.linalg.slogdet(factor)
        self.logdet[sl] += logabs
        self.nonpositive[sl] += sign <= 0

    def pushforward_logK(self, x0, xT):
        """log K at the endpoints xT of the paths from x0, by the change of variables."""
        return 0.5 * (np.einsum("na,na->n", xT, xT) - np.einsum("na,na->n", x0, x0)) - self.logdet
