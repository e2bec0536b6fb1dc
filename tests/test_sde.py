import math
import os

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

import flowlab.sde
from flowlab import rng
from flowlab.coefficients import CoefficientField, builtin_coefficients
from flowlab.convergence import coupling_convergence
from flowlab.errors import CapabilityError, ConfigError, ExplosionError
from flowlab.rng import brownian_increments, substream
from flowlab.sde import make_grid, simulate_ensemble

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
        # the translate flow from 0 on substream j is the Brownian path: its states are the cumulative increments
        store = StoredStates(10, 2)
        translate2 = builtin_coefficients("translate", d=2)
        simulate_ensemble(translate2, 0.0, 0.1, np.zeros((1, 2)), 1e-2, seed=0, accumulators=(store,))
        inc = brownian_increments(0, 0, 10, 2, 1e-2)
        assert store.paths.shape == (1, 11, 2)
        np.testing.assert_array_equal(store.paths[0, 0], 0.0)
        np.testing.assert_array_equal(store.paths[0, 1:], np.cumsum(inc, axis=0))

    def test_increment_fourth_moment(self, translate1):
        # E|X_{t+l} - X_t|^4 = 3 l^2 for the translate flow, read off the stored states
        store = StoredStates(400, 1)
        simulate_ensemble(translate1, 0.0, 0.4, ("gaussian", 2000), 1e-3, seed=31, accumulators=(store,))
        inc = store.paths[:, 200, 0] - store.paths[:, 0, 0]
        m4 = np.mean(inc**4)
        assert m4 == pytest.approx(3 * 0.2**2, rel=0.2)

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            make_grid(0.0, 1.0, 0.3)
        with pytest.raises(ConfigError):
            make_grid(0.0, 1.0, -0.1)
        # non-finite input is a ConfigError too, not a raw ValueError or OverflowError
        for s, T, dt in ((0.0, np.nan, 0.01), (0.0, np.inf, 0.01), (0.0, 1.0, np.nan)):
            with pytest.raises(ConfigError):
                make_grid(s, T, dt)


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
        assert block.shape == (count, n_steps, m)
        assert np.array_equal(block, scalar)

    def test_empty_range_and_degenerate_horizon(self):
        assert brownian_increments(1, range(4, 4), 10, 2, 0.1).shape == (0, 10, 2)
        assert brownian_increments(1, range(0, 3), 0, 2, 0.1).shape == (3, 0, 2)

    def test_row_alone_equals_row_of_block_across_counter_carry(self):
        # 100 steps x 2 noise dimensions: B = 50 counter blocks a row, so
        # rows 2**64 // 50 - 2 .. + 2 straddle a carry out of the counter's low word
        seed, n_steps, m, dt = 9, 100, 2, 0.01
        mid = (1 << 64) // 50
        rows = range(mid - 2, mid + 3)
        assert rows[0] * 50 < 1 << 64 <= rows[-1] * 50
        block = brownian_increments(seed, rows, n_steps, m, dt)
        alone = np.stack([brownian_increments(seed, j, n_steps, m, dt) for j in rows])
        assert np.array_equal(block, alone)
        assert np.isfinite(block).all()
        # the rows are distinct draws, not one row repeated across the carry
        assert len({row.tobytes() for row in block}) == len(rows)

    def test_row_reads_its_own_counter_blocks(self):
        # row j of n_steps x m = 10 words reads counter blocks 3j + 1 .. 3j + 3
        # of key [seed, 0]; the last block's two spare words go unused
        seed, n_steps, m, dt = 6, 5, 2, 0.25
        words = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)).random_raw(48)
        expected = ndtri(((words >> np.uint64(12)) + 0.5) * 2.0**-52) * 0.5
        block = brownian_increments(seed, range(4), n_steps, m, dt)
        assert np.array_equal(block.reshape(4, 10), expected.reshape(4, 12)[:, :10])

    def test_extreme_words_give_finite_normals(self):
        words = np.array([0, 1 << 12, (1 << 64) - 1], dtype=np.uint64)
        u = rng._to_uniforms(words.copy(), np.empty(3))
        assert u.tolist() == [2.0**-53, 1.5 * 2.0**-52, 1.0 - 2.0**-53]
        assert ((0.0 < u) & (u < 1.0)).all()
        z = ndtri(u)
        assert np.isfinite(z).all()
        assert z[0] == -z[2]

    def test_uniform_open_reads_the_generator_words(self):
        gen = substream(3, rng.GRID_SAMPLER_STREAM)
        words = np.random.Philox(key=np.array([3, rng.GRID_SAMPLER_STREAM], dtype=np.uint64)).random_raw(7)
        u = rng.uniform_open(gen, 7)
        assert np.array_equal(u, ((words >> np.uint64(12)) + 0.5) * 2.0**-52)
        # a second call continues the stream
        assert not np.array_equal(rng.uniform_open(gen, 7), u)

    def test_block_is_standard_normal_and_uncorrelated(self):
        # sizes and thresholds fixed before the first run: 2**20 variates,
        # every moment within 5 standard errors of N(0, 1), the KS statistic
        # below its 0.1% critical value 1.949 / sqrt(n), and the correlation
        # of neighbours along a row, across a row boundary and between the
        # noise dimensions of one step each within 5 / sqrt(pairs)
        n_rows, n_steps, m = 2048, 128, 4
        z = brownian_increments(2026, range(n_rows), n_steps, m, 1.0)
        x = z.ravel()
        n = x.size
        assert n == 1 << 20
        assert abs(x.mean()) <= 5.0 / math.sqrt(n)
        assert abs(x.var() - 1.0) <= 5.0 * math.sqrt(2.0 / n)
        assert abs(np.mean(x**4) - 3.0) <= 5.0 * math.sqrt(96.0 / n)
        assert stats.kstest(x, "norm").statistic <= 1.949 / math.sqrt(n)
        flat = z.reshape(n_rows, n_steps * m)
        pairs = [
            (flat[:, :-1], flat[:, 1:]),                 # neighbours along a row
            (flat[:-1, -1], flat[1:, 0]),                # last word of row j, first of row j + 1
            (flat[:-1], flat[1:]),                       # same position in rows j and j + 1
            (z[..., 0], z[..., 1]),                      # two noise dimensions of one step
        ]
        for a, b in pairs:
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) <= 5.0 / math.sqrt(a.size)

    def test_rejects_a_strided_range(self):
        with pytest.raises(ValueError):
            brownian_increments(1, range(0, 10, 2), 10, 1, 0.1)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_chunks_increments_are_chunk_invariant(self, monkeypatch, threads):
        n_traj, n_steps, m, dt, seed = 300, 50, 2, 0.01, 4
        whole = brownian_increments(seed, range(n_traj), n_steps, m, dt)
        for budget in (flowlab.sde._CHUNK_BUDGET, 64 * n_steps * m):
            monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", budget)
            parts = flowlab.sde._run_chunks(
                n_traj, n_steps, m, dt, seed, lambda lo, hi, inc: (lo, hi, inc), threads
            )
            workers = _workers(threads, n_traj, n_steps, m)
            edges = flowlab.sde._chunk_edges(n_traj, n_steps, m, workers)
            assert [(lo, hi) for lo, hi, _ in parts] == edges
            assert np.array_equal(np.concatenate([inc for _, _, inc in parts]), whole)
        # 300 rows at 64 a chunk: 5 chunks, rounded up to 6 for two workers
        assert len(parts) == {1: 5, 2: 6}[workers]
        assert np.array_equal(whole[299], brownian_increments(seed, 299, n_steps, m, dt))


class TestNoiseSpan:
    """perfbench times the noise layer by wrapping ``flowlab.sde.brownian_increments``."""

    @pytest.mark.parametrize("driver", ["simulate_ensemble", "coupling_convergence"])
    def test_chunks_draw_through_the_module_name(self, monkeypatch, tmp_path, translate1, quad1,
                                                 driver):
        n_steps, n_traj = 10, 200
        monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", 64 * n_steps)
        log = tmp_path / "draws"  # a file, so draws made in worker processes are seen too
        real = flowlab.sde.brownian_increments

        def counted(seed, index, n_steps, m, dt):
            with open(log, "a") as fh:
                fh.write(f"{index.start} {index.stop}\n")
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
        drawn = [range(*map(int, line.split())) for line in log.read_text().splitlines()]
        assert sorted(drawn, key=lambda r: r.start) == [range(lo, hi) for lo, hi in edges]


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
        field = CoefficientField(
            d=2, m=2,
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


class _SlabContract:
    """Asserts that every step's increments are one C-contiguous, read-only (rows, m) slab."""

    def __init__(self, m):
        self.m = m

    def alloc(self, n_traj, zeros):
        self.steps = zeros(n_traj)

    def step(self, sl, k, t, X, dW, ev, X_next):
        rows = sl.stop - sl.start
        assert dW.flags.c_contiguous and not dW.flags.writeable
        assert dW.shape == (rows, self.m) == (X.shape[0], self.m)
        self.steps[sl] += 1


class TestIncrementSlabs:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_every_consumer_reads_a_contiguous_slab(self, monkeypatch, threads, m):
        monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", 64 * 20 * m)  # chunks of 64 paths
        field = builtin_coefficients("translate", d=m)
        acc = _SlabContract(m)
        ens = simulate_ensemble(field, 0.0, 0.2, ("gaussian", 300), 1e-2, seed=4, threads=threads,
                                accumulators=(acc,))
        assert len(flowlab.sde._chunk_edges(300, 20, m)) == 5
        assert (acc.steps == 20).all()
        X = ens.x0
        for dW in np.moveaxis(brownian_increments(4, range(300), 20, m, 1e-2), 1, 0):
            X = X + dW  # the translate step, X + Id dW + 0 dt
        np.testing.assert_array_equal(ens.xT, X)


class TestChunkEdges:
    """Chunks are cut for the worker count: equal to one row, a multiple of it, none past the cap."""

    @pytest.mark.parametrize("n_traj, n_steps, m", [(40000, 250, 1), (6250, 5000, 1), (6250, 100, 1),
                                                    (300, 50, 2), (5000, 500, 1), (1, 10, 1)])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equal_chunks(self, n_traj, n_steps, m, workers):
        cap = max(64, min(8192, flowlab.sde._CHUNK_BUDGET // (n_steps * m)))
        edges = flowlab.sde._chunk_edges(n_traj, n_steps, m, workers)
        sizes = [hi - lo for lo, hi in edges]
        assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]] and edges[-1][1] == n_traj
        assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
        at_budget = math.ceil(n_traj / cap)
        assert len(edges) == min(n_traj, math.ceil(at_budget / workers) * workers)

    def test_two_workers_get_equal_shares(self):
        # 40,000 paths of 250 steps were 5 chunks (8192 rows) dealt 3/2; now 6 dealt 3/3
        edges = flowlab.sde._chunk_edges(40000, 250, 1, 2)
        shares = [sum(hi - lo for lo, hi in edges[w::2]) for w in range(2)]
        assert len(edges) == 6 and shares == [20000, 20000]

    @pytest.mark.parametrize("threads, n_traj, workers, chunks", [
        (8, 6250, 1, 1),       # one chunk at the budget (8192 rows) runs inline
        (2, 8193, 2, 2),
        (2, 40000, 2, 6),      # 5 at the budget, rounded up to a multiple of 2
        (8, 3 * 8192, 3, 3),   # capped by the chunks at the budget
        (8, 10**6, 4, 124),    # capped by the usable CPUs
        (1, 10**6, 1, 123),
    ])
    def test_worker_count_comes_from_the_budget(self, monkeypatch, threads, n_traj, workers, chunks):
        monkeypatch.setattr(flowlab.sde, "_usable_cpus", lambda: 4)
        dealt = []

        def deal(run, shares):  # records the shares and runs no chunk
            dealt.append(shares)
            return [({i: None for i in share}, [], None) for share in shares]

        monkeypatch.setattr(flowlab.sde, "_run_shares", deal)
        assert len(flowlab.sde._run_chunks(n_traj, 250, 1, 1e-3, 0, None, threads)) == chunks
        assert dealt[-1] == [range(w, chunks, workers) for w in range(workers)]
        assert workers == _workers(threads, n_traj, 250, 1)
        monkeypatch.delattr(flowlab.sde.os, "fork")
        flowlab.sde._run_chunks(n_traj, 250, 1, 1e-3, 0, None, threads)
        assert len(dealt[-1]) == 1


def _workers(threads, n_traj, n_steps, m):
    """The worker count of ``_run_chunks``: min(threads, usable CPUs, chunks at the budget)."""
    return max(1, min(threads, flowlab.sde._usable_cpus(), len(flowlab.sde._chunk_edges(n_traj, n_steps, m))))


def _custom1(sigma, b, name):
    """A d = m = 1 custom field with the given σ and b (derivatives zero)."""
    return CoefficientField(
        d=1, m=1, sigma=sigma, b=b,
        sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1, 1)),
        b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (1, 1)),
        growth_const=1.0, exp_const=0.1, name=name,
    )


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Abort(BaseException):
    """Raised by the run's own process only, past every ``except Exception``."""


class TestWorkerProcesses:
    """With two usable CPUs, threads=2 forks one worker for chunks 1 and 3 (64 paths each here)."""

    STARTS = np.linspace(-2.0, 2.0, 256)[:, None]    # four chunks, one per unit interval

    @pytest.fixture(autouse=True)
    def _chunks_of_64(self, monkeypatch):
        monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", 64 * 20)
        assert len(flowlab.sde._chunk_edges(256, 20, 1)) == 4

    def _run(self, field, threads, accumulators=()):
        return simulate_ensemble(field, 0.0, 0.2, self.STARTS, 1e-2, seed=3, threads=threads,
                                 accumulators=accumulators)

    def test_normal_return_leaves_no_child(self, sine_field):
        assert np.array_equal(self._run(sine_field, 2).xT, self._run(sine_field, 1).xT)
        _no_child_left()

    def test_private_array_raises_before_any_chunk(self, translate1, monkeypatch):
        class Private:
            def alloc(self, n_traj, zeros):
                self.values = np.zeros(n_traj)

            def step(self, sl, k, t, X, dW, ev, X_next):
                self.values[sl] += X[:, 0]

        drawn = []
        monkeypatch.setattr(flowlab.sde, "brownian_increments", lambda *a: drawn.append(a))
        with pytest.raises(TypeError, match="Private.alloc made 'values'"):
            self._run(translate1, 2, (Private(),))
        assert drawn == []

    def test_explosion_matches_one_worker(self):
        # x' = 20 x|x| blows up first from the largest starts, in the last chunk (a worker's)
        field = _custom1(lambda t, X: np.full(np.shape(X)[:-1] + (1, 1), 0.1),
                         lambda t, X: 20.0 * X * np.abs(X), "quadratic")
        errors = []
        for threads in (1, 2):
            with pytest.raises(ExplosionError) as err:
                self._run(field, threads)
            errors.append(err.value)
            _no_child_left()
        assert str(errors[1]) == str(errors[0])
        assert errors[1].step == errors[0].step
        assert errors[1].indices == errors[0].indices == sorted(errors[0].indices)
        assert min(errors[0].indices) < 192 <= max(errors[0].indices)  # rows of several chunks

    def test_worker_exception_matches_one_worker(self):
        # chunks 1, 2 and 3 raise at t = 0.05; chunk 1 runs in the worker, chunk 2 here
        def sigma(t, X):
            if t >= 0.05 and X.max() > -0.5:
                raise CapabilityError(f"no sigma from x = {X.min():.4f}")
            return np.zeros(np.shape(X)[:-1] + (1, 1))

        field = _custom1(sigma, lambda t, X: np.zeros(np.shape(X)), "gap")
        errors = []
        for threads in (1, 2):
            with pytest.raises(CapabilityError) as err:
                self._run(field, threads)
            errors.append(err.value)
            _no_child_left()
        assert str(errors[0]) == str(errors[1]) == "no sigma from x = -0.9961"
        assert "no sigma from x = -0.9961" in str(errors[1].__cause__)  # the worker's traceback

    def test_children_are_killed_when_this_process_raises(self):
        parent = os.getpid()

        def sigma(t, X):
            if os.getpid() == parent and t >= 0.05:
                raise _Abort()
            return np.ones(np.shape(X)[:-1] + (1, 1))

        field = _custom1(sigma, lambda t, X: np.zeros(np.shape(X)), "abort")
        with pytest.raises(_Abort):
            self._run(field, 2)
        _no_child_left()

    def test_worker_cap_and_fork_failure(self, translate1, monkeypatch):
        forks = []

        def fork():  # counts and starts no process: each share then runs here
            forks.append(1)
            raise OSError("fork refused")

        expected = self._run(translate1, 1).xT
        monkeypatch.setattr(flowlab.sde.os, "fork", fork)
        for cpus, n_forks in ((10**6, 3), (2, 1), (1, 0)):
            monkeypatch.setattr(flowlab.sde, "_usable_cpus", lambda: cpus)
            forks.clear()
            assert np.array_equal(self._run(translate1, 10**6).xT, expected)
            assert len(forks) == n_forks

    def test_without_fork_runs_inline(self, translate1, monkeypatch):
        expected = self._run(translate1, 1).xT
        monkeypatch.delattr(flowlab.sde.os, "fork")
        assert np.array_equal(self._run(translate1, 2).xT, expected)


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
