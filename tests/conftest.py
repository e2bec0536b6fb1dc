import math

import numpy as np
import pytest

from flowlab.coefficients import builtin_coefficients
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
    return builtin_coefficients(
        "custom", d=1, m=1,
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

    return builtin_coefficients(
        "custom",
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
