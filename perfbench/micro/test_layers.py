"""Layer micro-benchmarks, each named after the per-layer metric it isolates.

Run with:  python3 -m pytest perfbench/micro --benchmark-only

Each benchmark times one layer call at a chunk size the desk workloads use
(one chunk of trajectories, one Euler step of a chunk, one PDE solve) and
checks what it returns, so a faster layer that returns something else fails
here before it reaches the end-to-end benchmark.
"""

import math

import numpy as np
import pytest

from flowlab.coefficients import RegularizationLevel, builtin_coefficients, regularize
from flowlab.density import DensityAccumulator, batch_statistic, theorem_bound_rhs
from flowlab.fokker_planck import FPGrid, fp_solve
from flowlab.gaussian import default_quadrature, ou_smooth
from flowlab.rng import brownian_increments, gaussian_points
from flowlab.sde import simulate_ensemble

SEED = 11
CHUNK = 2048     # trajectories per chunk
STEPS = 250      # Euler steps of the fp-translate horizon
DT = 1e-3


@pytest.fixture(scope="module")
def quad1():
    return default_quadrature(1)


@pytest.fixture(scope="module")
def points():
    return gaussian_points(SEED, CHUNK, 1)


def test_rng_busy_s(benchmark):
    """One chunk of increments, drawn trajectory by trajectory as the ensemble loops do."""

    def chunk():
        inc = np.empty((CHUNK, STEPS, 1))
        for j in range(CHUNK):
            inc[j] = brownian_increments(SEED, j, STEPS, 1, DT)
        return inc

    inc = benchmark(chunk)
    assert np.array_equal(inc[7], brownian_increments(SEED, 7, STEPS, 1, DT))
    assert abs(inc.std() / math.sqrt(DT) - 1.0) < 0.01


def test_sde_busy_s(benchmark):
    """A plain gamma_d-start ensemble of the translate field."""
    field = builtin_coefficients("translate", d=1)
    ens = benchmark(simulate_ensemble, field, 0.0, 0.1, ("gaussian", CHUNK), DT, SEED)
    assert ens.xT.shape == (CHUNK, 1)
    assert abs(np.var(ens.xT) - 1.1) < 0.1


@pytest.mark.parametrize("variant", ["plain", "sign_drift_n32"])
def test_density_accumulate_busy_s(benchmark, variant, quad1, points):
    """One step of the density accumulator over a chunk."""
    field = builtin_coefficients("sign_drift", d=1, beta=1.0)
    if variant == "sign_drift_n32":
        field = regularize(field, RegularizationLevel(32), quad1)
    dW = brownian_increments(SEED, 0, CHUNK, 1, DT)
    acc = DensityAccumulator(field, DT)
    acc.alloc(CHUNK)
    benchmark(acc.step, slice(0, CHUNK), 0, 0.01, points, dW)
    out = acc.finalize()
    assert np.all(np.isfinite(out["S"])) and np.all(np.isfinite(out["D"]))


def test_gaussian_ou_smooth_busy_s(benchmark, quad1, points):
    """P_eps of the sign drift at a chunk of points, as a regularized level evaluates it."""
    field = builtin_coefficients("sign_drift", d=1, beta=1.0)
    smoothed = benchmark(ou_smooth, lambda P: field.b(0.0, P), 1.0 / 32, points, quad1)
    assert smoothed.shape == (CHUNK, 1)
    assert np.all(np.abs(smoothed) <= 1.0 + 1e-12)
    order = np.argsort(points[:, 0])
    assert np.all(np.diff(smoothed[order, 0]) >= 0.0)   # smoothing keeps the drift monotone


def test_density_bound_busy_s(benchmark, quad1):
    """The L^p bound of the OU field by log-space quadrature."""
    field = builtin_coefficients("ou_linear", d=1, a=1.0)
    bound = benchmark(theorem_bound_rhs, field, 0.0, 0.05, 2.0, quad1)
    assert 1.0 < bound < 2.0


@pytest.mark.parametrize("d, R, h, tau, T", [(1, 8.0, 0.05, 5e-4, 0.05), (2, 4.0, 0.1, 2e-3, 0.1)])
def test_fokker_planck_fp_solve_busy_s(benchmark, d, R, h, tau, T):
    """A small explicit heat-equation solve on the grid."""
    field = builtin_coefficients("translate", d=d)
    grid0 = FPGrid.gaussian(d, R, h)
    sol = benchmark(fp_solve, field, grid0, 0.0, T, tau)
    assert sol.audit_residual <= 1e-10
    assert sol.grid.variance() == pytest.approx(d * (1.0 + T), rel=1e-2)


def test_density_stats_busy_s(benchmark):
    """A batched-stderr statistic over 10^5 values, as the estimators call it."""
    values = gaussian_points(SEED, 100_000, 1)[:, 0]
    est = benchmark(batch_statistic, values, lambda v: math.log(np.mean(np.exp(v))))
    assert est.value == pytest.approx(0.5, abs=0.02)
    assert 0.0 < est.stderr < 0.02
