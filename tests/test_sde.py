import math

import numpy as np
import pytest

import flowlab.sde
from flowlab import rng
from flowlab.coefficients import builtin_coefficients
from flowlab.convergence import coupling_convergence
from flowlab.errors import ConfigError, ExplosionError
from flowlab.rng import brownian_increments, standard_normals, substream
from flowlab.sde import empirical_modulus, make_grid, simulate_ensemble

from conftest import StoredStates


def _euler_states(field, x0, inc, s, dt):
    """States (n_steps + 1, d) of one path stepped by ``_euler_step`` under ``inc`` (n_steps, m)."""
    X = np.asarray(x0, dtype=float).reshape(1, -1)
    states = [X[0]]
    for k, dW in enumerate(inc):
        X = flowlab.sde._euler_step(field, k, s + k * dt, X, dW[None], dt)[1]
        states.append(X[0])
    return np.array(states)


class TestBrownianPath:
    def test_reproducible(self):
        a = brownian_increments(9, 5, 100, 2, 1e-2)
        b = brownian_increments(9, 5, 100, 2, 1e-2)
        assert np.array_equal(a, b)

    def test_stream_separation(self):
        a = brownian_increments(9, 5, 100, 1, 1e-2)
        b = brownian_increments(9, 6, 100, 1, 1e-2)
        c = brownian_increments(10, 5, 100, 1, 1e-2)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_increment_scaling(self):
        dt = 1e-3
        inc = brownian_increments(1, 0, make_grid(0.0, 100.0, dt), 1, dt)
        scaled = inc[:, 0] / math.sqrt(dt)
        n = scaled.shape[0]
        # sample variance of N(0,1) has std sqrt(2/n)
        assert abs(scaled.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)

    def test_mean_clt_bound(self):
        dt = 1e-2
        inc = brownian_increments(seed=3, index=0, n_steps=1_000_000, m=1, dt=dt)
        assert abs(inc.mean()) <= 5.0 / math.sqrt(1e6) * math.sqrt(dt)

    def test_values_cumulative(self):
        # the Brownian path integral_convergence reads: the translate flow from 0 on substream j
        store = StoredStates(10, 2)
        translate2 = builtin_coefficients("translate", d=2)
        simulate_ensemble(translate2, 0.0, 0.1, np.zeros((1, 2)), 1e-2, seed=0, accumulators=(store,))
        inc = brownian_increments(0, 0, 10, 2, 1e-2)
        assert store.paths.shape == (1, 11, 2)
        np.testing.assert_array_equal(store.paths[0, 0], 0.0)
        np.testing.assert_array_equal(store.paths[0, 1:], np.cumsum(inc, axis=0))

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

    @pytest.mark.parametrize("initials, replicas", [(("gaussian", 999), 1), (np.zeros((1, 1)), 999)])
    def test_refused_modulus_draws_no_increments(self, monkeypatch, translate1, initials, replicas):
        drawn = []
        real = flowlab.sde.brownian_increments

        def counted(seed, index, n_steps, m, dt):
            drawn.append(index)
            return real(seed, index, n_steps, m, dt)

        monkeypatch.setattr(flowlab.sde, "brownian_increments", counted)
        with pytest.raises(ConfigError):
            empirical_modulus(translate1, 0.0, [0.05], initials, 1e-2, seed=0, replicas=replicas)
        assert drawn == []


class TestSimulate:
    def test_frozen_path_stays_put(self, translate1):
        traj = _euler_states(translate1, [1.7], np.zeros((100, 1)), 0.0, 1e-2)
        np.testing.assert_array_equal(traj, np.full((101, 1), 1.7))

    def test_translate_is_exact(self, translate1):
        inc = brownian_increments(4, 2, 100, 1, 1e-2)
        traj = _euler_states(translate1, [0.3], inc, 0.0, 1e-2)
        # sequential vs pairwise summation differ only at rounding level
        np.testing.assert_allclose(traj[1:, 0], 0.3 + np.cumsum(inc[:, 0]), rtol=0, atol=5e-15)

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
        x0 = np.array([1.0, -1.0])
        ens = simulate_ensemble(field, 0.0, 0.5, x0[None], 1e-2, seed=8)
        wT = brownian_increments(8, 0, 50, 2, 1e-2).sum(axis=0)
        expected = x0 + A @ wT + np.array([0.3, -0.2]) * 0.5
        np.testing.assert_allclose(ens.xT[0], expected, rtol=1e-12)

    def test_ou_single_euler_step(self, ou1):
        traj = _euler_states(ou1, [1.0], np.zeros((1, 1)), 0.0, 0.01)
        assert traj[-1, 0] == pytest.approx(0.99)

    def test_degenerate_horizon(self, translate1):
        store = StoredStates(0, 1)
        ens = simulate_ensemble(translate1, 0.0, 0.0, np.array([[2.0]]), 1e-2, seed=0,
                                accumulators=(store,))
        assert ens.n_steps == 0
        np.testing.assert_array_equal(ens.xT, [[2.0]])

    def test_explosion_guard(self, rocket1):
        inc = brownian_increments(0, 0, 10, 1, 0.1)
        with pytest.raises(ExplosionError) as err:
            _euler_states(rocket1, [0.0], inc, 0.0, 0.1)
        assert err.value.step is not None


class TestEnsemble:
    def test_single_matches_simulate(self, ou1):
        traj = _euler_states(ou1, [0.7], brownian_increments(21, 0, 50, 1, 1e-2), 0.0, 1e-2)
        store = StoredStates(50, 1)
        ens = simulate_ensemble(ou1, 0.0, 0.5, np.array([[0.7]]), 1e-2, seed=21, accumulators=(store,))
        np.testing.assert_array_equal(store.paths[0], traj)
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
        windows = [0.05, 0.1, 0.2, 0.4]
        lengths, moments, exponent = empirical_modulus(
            translate1, 0.0, windows, ("gaussian", 2000), 1e-3, seed=31
        )
        assert 1.8 <= exponent <= 2.2
        # the streamed running ranges equal the ranges of the stored states bit for bit
        store = StoredStates(400, 1)
        simulate_ensemble(translate1, 0.0, 0.4, ("gaussian", 2000), 1e-3, seed=31, accumulators=(store,))
        for ell, moment in zip(lengths, moments):
            seg = store.paths[:, : int(round(ell / 1e-3)) + 1, :]
            ranges = seg.max(axis=1) - seg.min(axis=1)
            assert moment == np.mean(np.linalg.norm(ranges, axis=-1) ** 4)
        # increment fourth moment oracle: E|X_{t+l} - X_t|^4 = 3 l^2
        inc = store.paths[:, 200, 0] - store.paths[:, 0, 0]
        m4 = np.mean(inc**4)
        assert m4 == pytest.approx(3 * 0.2**2, rel=0.2)

    def test_modulus_chunk_and_thread_invariant(self, monkeypatch):
        translate2 = builtin_coefficients("translate", d=2)
        monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", 64 * 20 * 2)  # chunks of 64 paths
        assert len(flowlab.sde._chunk_edges(1100, 20, 2)) == 18
        kw = dict(initials=("gaussian", 1100), dt=1e-2, seed=3)
        runs = [empirical_modulus(translate2, 0.0, [0.05, 0.1, 0.2], threads=t, **kw) for t in (1, 2)]
        assert np.array_equal(runs[0][1], runs[1][1])
        assert runs[0][2] == runs[1][2]
        store = StoredStates(20, 2)
        simulate_ensemble(translate2, 0.0, 0.2, threads=2, accumulators=(store,), **kw)
        for k, moment in zip((5, 10, 20), runs[1][1]):
            seg = store.paths[:, : k + 1, :]
            ranges = seg.max(axis=1) - seg.min(axis=1)
            assert moment == np.mean(np.linalg.norm(ranges, axis=-1) ** 4)

    def test_modulus_frozen(self):
        frozen = builtin_coefficients(
            "custom", d=1, m=1,
            sigma=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1)),
            b=lambda t, X: np.zeros(np.shape(X)),
            growth_const=1.0, exp_const=0.1, name="frozen",
        )
        _, moments, exponent = empirical_modulus(frozen, 0.0, [0.02, 0.05], np.full((1500, 1), 0.3), 0.01, seed=0)
        np.testing.assert_array_equal(moments, 0.0)
        assert exponent == 0.0

    def test_modulus_needs_trajectories(self, translate1):
        with pytest.raises(ConfigError):
            empirical_modulus(translate1, 0.0, [0.05], ("gaussian", 10), 1e-2, seed=0)
        with pytest.raises(ConfigError):
            empirical_modulus(translate1, 0.0, [0.004, 0.05], ("gaussian", 1000), 1e-2, seed=0)
