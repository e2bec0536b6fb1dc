import math

import numpy as np
import pytest

import flowlab.sde
from flowlab import rng
from flowlab.coefficients import builtin_coefficients
from flowlab.convergence import coupling_convergence
from flowlab.errors import ConfigError, ExplosionError
from flowlab.rng import brownian_increments, standard_normals, substream
from flowlab.sde import (
    BrownianPath,
    FlowEnsemble,
    empirical_modulus,
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


def _generator_draw(seed, index, n_steps, m, dt):
    """Increments through a ``substream`` generator: the path the block draw replays."""
    return standard_normals(seed, index, (n_steps, m)) * np.sqrt(dt)


class TestBlockDraw:
    @pytest.mark.parametrize(
        "seed, lo, count, n_steps, m",
        [   # blocks of 2**14 words
            (3, 0, 70, 500, 1),                 # 32 rows per block: blocks of 32, 32, 6
            (11, 5, 12, 1000, 3),               # 5 rows per block: blocks of 5, 5, 2
            ((1 << 64) - 1, (1 << 40) - 3, 9, 7, 2),  # indices across 2**40, one block
            (5, 1, 3, 12000, 2),                # one row exceeds the block size
        ],
    )
    def test_range_equals_scalar_draws(self, seed, lo, count, n_steps, m):
        dt = 0.01
        streams = range(lo, lo + count)
        block = brownian_increments(seed, streams, n_steps, m, dt)
        scalar = np.stack([brownian_increments(seed, j, n_steps, m, dt) for j in streams])
        generator = np.stack([_generator_draw(seed, j, n_steps, m, dt) for j in streams])
        assert block.shape == (count, n_steps, m)
        assert np.array_equal(block, scalar)
        assert np.array_equal(block, generator)

    def test_empty_range_and_degenerate_horizon(self):
        assert brownian_increments(1, range(4, 4), 10, 2, 0.1).shape == (0, 10, 2)
        assert brownian_increments(1, range(0, 3), 0, 2, 0.1).shape == (3, 0, 2)

    def test_lemire_replay_matches_the_generator(self):
        seed, size = 17, 8
        words = np.stack([
            np.random.Philox(key=np.array([seed, j], dtype=np.uint64)).random_raw(size)
            for j in range(1000)
        ])
        uniforms, rejected = rng._lemire_uniforms(words)
        expected = np.stack([
            substream(seed, j).integers(1, 1 << 53, size) / 2.0**53 for j in range(1000)
        ])
        assert not rejected.any()
        assert np.array_equal(uniforms, expected)

    def test_lemire_replay_against_exact_products(self):
        span = (1 << 53) - 1
        inverse = pow(span, -1, 1 << 64)
        # words whose low product half is 0, 2047 (rejected) and 2048 (kept)
        crafted = [0, 2047 * inverse % (1 << 64), 2048 * inverse % (1 << 64)]
        edges = [1, (1 << 11) - 1, 1 << 11, (1 << 64) - 1, (1 << 63) + 12345]
        words = np.array(crafted + edges, dtype=np.uint64)
        uniforms, rejected = rng._lemire_uniforms(words)
        products = [int(w) * span for w in words]
        assert rejected.tolist() == [p % (1 << 64) < 2048 for p in products]
        assert rejected[:3].tolist() == [True, True, False]
        assert uniforms.tolist() == [((p >> 64) + 1) / 2.0**53 for p in products]

    def test_rejected_row_is_redrawn_through_the_generator(self, monkeypatch):
        seed, n_steps, dt = 23, 500, 0.01
        expected = np.stack([_generator_draw(seed, j, n_steps, 1, dt) for j in range(70)])
        real_lemire, real_normals = rng._lemire_uniforms, rng.standard_normals
        blocks, redrawn = [], []

        def reject_one(words):
            uniforms, rejected = real_lemire(words)
            blocks.append(len(words))
            if len(blocks) == 2:           # second block: rows 32 .. 63
                rejected[1, 3] = True
                uniforms[1] = 0.5          # what a row left unredrawn would read
            return uniforms, rejected

        def counted(seed, index, shape):
            redrawn.append(index)
            return real_normals(seed, index, shape)

        monkeypatch.setattr(rng, "_lemire_uniforms", reject_one)
        monkeypatch.setattr(rng, "standard_normals", counted)
        block = brownian_increments(seed, range(70), n_steps, 1, dt)
        assert blocks == [32, 32, 6]
        assert redrawn == [33]
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_chunks_increments_are_chunk_invariant(self, monkeypatch, threads):
        n_traj, n_steps, m, dt, seed = 300, 50, 2, 0.01, 4
        whole = brownian_increments(seed, range(n_traj), n_steps, m, dt)
        for budget in (flowlab.sde._CHUNK_BUDGET, 64 * n_steps * m):
            monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", budget)
            parts = flowlab.sde._run_chunks(
                n_traj, n_steps, m, dt, seed, lambda lo, hi, inc: (lo, hi, inc), threads
            )
            assert [(lo, hi) for lo, hi, _ in parts] == flowlab.sde._chunk_edges(n_traj, n_steps, m)
            assert np.array_equal(np.concatenate([inc for _, _, inc in parts]), whole)
        assert len(parts) == 5
        assert np.array_equal(whole[299], _generator_draw(seed, 299, n_steps, m, dt))


class TestNoiseSpan:
    """perfbench times the noise layer by wrapping ``flowlab.sde.brownian_increments``."""

    @pytest.mark.parametrize("driver", ["simulate_ensemble", "coupling_convergence"])
    def test_chunks_draw_through_the_module_name(self, monkeypatch, translate1, quad1, driver):
        n_steps, n_traj = 10, 200
        monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", 64 * n_steps)
        drawn = []
        real = flowlab.sde.brownian_increments

        def counted(seed, index, n_steps, m, dt):
            drawn.append(index)
            return real(seed, index, n_steps, m, dt)

        monkeypatch.setattr(flowlab.sde, "brownian_increments", counted)
        starts = np.zeros((1, 1))
        if driver == "simulate_ensemble":
            simulate_ensemble(translate1, 0.0, 0.1, starts, 1e-2, seed=1, replicas=n_traj, threads=2)
        else:
            coupling_convergence(translate1, [4], 8, 0.0, 0.1, starts, 1e-2, seed=1, quad=quad1,
                                 replicas=n_traj, threads=2)
        edges = flowlab.sde._chunk_edges(n_traj, n_steps, 1)
        assert len(edges) == 4
        assert sorted(drawn, key=lambda r: r.start) == [range(lo, hi) for lo, hi in edges]


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

