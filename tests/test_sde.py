import math

import numpy as np
import pytest

from flowlab.coefficients import builtin_coefficients
from flowlab.errors import ConfigError, ExplosionError
from flowlab.rng import brownian_increments
from flowlab.sde import (
    BrownianPath,
    FlowEnsemble,
    empirical_modulus,
    flow_composition_check,
    make_grid,
    sample_brownian,
    simulate,
    simulate_ensemble,
)


class TestBrownianPath:
    def test_reproducible(self):
        a = sample_brownian(0.0, 1.0, 1e-2, 2, seed=9, index=5)
        b = sample_brownian(0.0, 1.0, 1e-2, 2, seed=9, index=5)
        assert np.array_equal(a.increments, b.increments)

    def test_stream_separation(self):
        a = sample_brownian(0.0, 1.0, 1e-2, 1, seed=9, index=5)
        b = sample_brownian(0.0, 1.0, 1e-2, 1, seed=9, index=6)
        c = sample_brownian(0.0, 1.0, 1e-2, 1, seed=10, index=5)
        assert not np.array_equal(a.increments, b.increments)
        assert not np.array_equal(a.increments, c.increments)

    def test_increment_scaling(self):
        dt = 1e-3
        path = sample_brownian(0.0, 100.0, dt, 1, seed=1, index=0)
        scaled = path.increments[:, 0] / math.sqrt(dt)
        n = scaled.shape[0]
        # sample variance of N(0,1) has std sqrt(2/n)
        assert abs(scaled.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)

    def test_mean_clt_bound(self):
        dt = 1e-2
        inc = brownian_increments(seed=3, index=0, n_steps=1_000_000, m=1, dt=dt)
        assert abs(inc.mean()) <= 5.0 / math.sqrt(1e6) * math.sqrt(dt)

    def test_values_cumulative(self):
        path = sample_brownian(0.0, 0.1, 1e-2, 2, seed=0, index=0)
        vals = path.values()
        assert vals.shape == (11, 2)
        np.testing.assert_allclose(vals[-1], path.increments.sum(axis=0))

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            make_grid(0.0, 1.0, 0.3)
        with pytest.raises(ConfigError):
            make_grid(0.0, 1.0, -0.1)


class TestSimulate:
    def test_frozen_path_stays_put(self, translate1):
        path = BrownianPath.zeros(0.0, 1.0, 1e-2, 1)
        traj = simulate(translate1, 0.0, 1.0, np.array([1.7]), path)
        np.testing.assert_array_equal(traj, np.full((101, 1), 1.7))

    def test_translate_is_exact(self, translate1):
        path = sample_brownian(0.0, 1.0, 1e-2, 1, seed=4, index=2)
        traj = simulate(translate1, 0.0, 1.0, np.array([0.3]), path)
        # sequential vs pairwise summation differ only at rounding level
        np.testing.assert_allclose(traj[:, 0], 0.3 + path.values()[:, 0], rtol=0, atol=5e-15)

    def test_constant_coefficients_exact(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        field = builtin_coefficients(
            "custom", d=2, m=2,
            sigma=lambda t, X: np.broadcast_to(A, np.shape(X)[:-1] + (2, 2)),
            b=lambda t, X: np.broadcast_to(np.array([0.3, -0.2]), np.shape(X)),
            sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (2, 2, 2)),
            b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (2, 2)),
            growth_const=3.0, exp_const=0.05, name="affine",
        )
        path = sample_brownian(0.0, 0.5, 1e-2, 2, seed=8, index=0)
        x0 = np.array([1.0, -1.0])
        traj = simulate(field, 0.0, 0.5, x0, path)
        wT = path.values()[-1]
        expected = x0 + A @ wT + np.array([0.3, -0.2]) * 0.5
        np.testing.assert_allclose(traj[-1], expected, rtol=1e-12)

    def test_ou_single_euler_step(self, ou1):
        path = BrownianPath.zeros(0.0, 0.01, 0.01, 1)
        traj = simulate(ou1, 0.0, 0.01, np.array([1.0]), path)
        assert traj[-1, 0] == pytest.approx(0.99)

    def test_degenerate_horizon(self, translate1):
        path = BrownianPath.zeros(0.0, 1.0, 1e-2, 1)
        traj = simulate(translate1, 0.0, 0.0, np.array([2.0]), path)
        np.testing.assert_array_equal(traj, [[2.0]])

    def test_explosion_guard(self, rocket1):
        path = sample_brownian(0.0, 1.0, 0.1, 1, seed=0, index=0)
        with pytest.raises(ExplosionError) as err:
            simulate(rocket1, 0.0, 1.0, np.array([0.0]), path)
        assert err.value.step is not None


class TestEnsemble:
    def test_single_matches_simulate(self, ou1):
        path = sample_brownian(0.0, 0.5, 1e-2, 1, seed=21, index=0)
        traj = simulate(ou1, 0.0, 0.5, np.array([0.7]), path)
        ens = simulate_ensemble(ou1, 0.0, 0.5, np.array([[0.7]]), 1e-2, seed=21, store_paths=True)
        np.testing.assert_array_equal(ens.paths[0], traj)
        np.testing.assert_array_equal(ens.xT[0], traj[-1])

    def test_worker_count_invariance(self, ou1):
        kw = dict(initials=("gaussian", 600), dt=1e-2, seed=5)
        a = simulate_ensemble(ou1, 0.0, 0.5, threads=1, **kw)
        b = simulate_ensemble(ou1, 0.0, 0.5, threads=8, **kw)
        assert np.array_equal(a.xT, b.xT)
        assert np.array_equal(a.x0, b.x0)

    def test_replica_layout(self, translate1):
        ens = simulate_ensemble(translate1, 0.0, 0.1, np.array([[1.0], [2.0]]), 1e-2, seed=0, replicas=3)
        assert ens.n_traj == 6
        np.testing.assert_array_equal(ens.x0[:, 0], [1, 1, 1, 2, 2, 2])

    def test_translate_pushforward_variance(self, translate1):
        ens = simulate_ensemble(translate1, 0.0, 1.0, ("gaussian", 20000), 1e-2, seed=12)
        var = ens.xT[:, 0].var()
        # Var X_T = 2; sample variance std ~ sqrt(2/n) * 2
        assert abs(var - 2.0) <= 3.0 * 2.0 * math.sqrt(2.0 / ens.n_traj)

    def test_explosions_aggregated(self, rocket1):
        with pytest.raises(ExplosionError) as err:
            simulate_ensemble(rocket1, 0.0, 1.0, ("gaussian", 16), 0.1, seed=0)
        # every reported index is a real trajectory and the first bad step is named
        assert err.value.indices and all(0 <= i < 16 for i in err.value.indices)
        assert err.value.step == 1


class TestStrongOrder:
    def test_ou_euler_error_halves(self, ou1):
        # reference: exact mean-reverting update on a 64x finer grid, same noise
        a = 1.0
        T = 1.0
        dt = 0.05
        refine = 64
        dtf = dt / refine
        n_paths = 4000
        errs = {}
        for factor in (1, 4):
            dtc = dt / factor
            err_abs = np.empty(n_paths)
            for j in range(n_paths):
                fine = brownian_increments(seed=77, index=j, n_steps=int(T / dtf), m=1, dt=dtf)[:, 0]
                xr = 1.0
                decay_f = math.exp(-a * dtf)
                for k in range(fine.shape[0]):
                    xr = decay_f * xr + math.exp(-a * dtf / 2.0) * fine[k]
                coarse = fine.reshape(-1, refine // factor).sum(axis=1)
                xe = 1.0
                for k in range(coarse.shape[0]):
                    xe = xe - a * xe * dtc + coarse[k]
                err_abs[j] = abs(xe - xr)
            errs[factor] = err_abs.mean()
        assert errs[4] <= errs[1] / 2.0

    def test_modulus_translate(self, translate1):
        ens = simulate_ensemble(
            translate1, 0.0, 0.5, ("gaussian", 2000), 1e-3, seed=31, store_paths=True
        )
        lengths, moments, exponent = empirical_modulus(ens, [0.05, 0.1, 0.2, 0.4])
        assert 1.8 <= exponent <= 2.2
        # increment fourth moment oracle: E|X_{t+l} - X_t|^4 = 3 l^2
        k = int(0.2 / 1e-3)
        inc = ens.paths[:, k, 0] - ens.paths[:, 0, 0]
        m4 = np.mean(inc**4)
        assert m4 == pytest.approx(3 * 0.2**2, rel=0.2)

    def test_modulus_frozen(self, translate1):
        paths = np.full((1500, 11, 1), 0.3)
        ens = FlowEnsemble(
            field_name="frozen", s=0.0, T=0.1, dt=0.01, seed=0,
            x0=paths[:, 0], xT=paths[:, -1], n_initials=1500, replicas=1, paths=paths,
        )
        _, moments, _ = empirical_modulus(ens, [0.02, 0.05])
        np.testing.assert_array_equal(moments, 0.0)

    def test_modulus_needs_trajectories(self, translate1):
        ens = simulate_ensemble(translate1, 0.0, 0.1, ("gaussian", 10), 1e-2, seed=0, store_paths=True)
        with pytest.raises(ConfigError):
            empirical_modulus(ens, [0.05])


class TestFlowComposition:
    def test_collapsed_middle(self, ou1):
        dev = flow_composition_check(ou1, 0.0, 0.5, 0.5, np.zeros((1, 1)), 1e-2, seed=2, replicas=50)
        assert dev == 0.0

    def test_translate_additive(self, translate1):
        dev = flow_composition_check(translate1, 0.0, 0.3, 0.7, ("gaussian", 20), 1e-2, seed=3, replicas=5)
        assert dev == 0.0

    def test_ou_within_tolerance(self, ou1):
        dt = 1e-3
        dev = flow_composition_check(ou1, 0.0, 0.5, 1.0, np.zeros((1, 1)), dt, seed=4, replicas=100)
        assert dev == 0.0

    def test_explosion_guard(self, rocket1):
        with pytest.raises(ExplosionError) as err:
            flow_composition_check(rocket1, 0.0, 0.5, 1.0, ("gaussian", 16), 0.1, seed=0)
        assert err.value.step == 1
        assert err.value.indices and all(0 <= i < 16 for i in err.value.indices)
