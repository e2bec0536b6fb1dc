import math
import os
import tracemalloc

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
        [   # passes of 2**14 words
            (3, 0, 70, 500, 1),                 # 58 step groups a pass: passes of 58, 58, 9
            (11, 5, 12, 1000, 3),               # 113 step groups a pass: passes of 113, 113, 24
            ((1 << 64) - 1, (1 << 40) - 3, 9, 7, 2),  # indices across 2**40, one pass
            (5, 1, 3, 12000, 2),                # 682 step groups a pass, 5 passes
            (2, 0, 5000, 9, 1),                 # one step group exceeds the pass size
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

    @pytest.mark.parametrize("n_steps", [1, 3, 4, 5, 257])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_row_alone_equals_row_of_any_block(self, n_steps, m):
        # every chunk cut of 11 rows, whole or cut at every step group boundary
        seed, dt, n_traj = 21, 0.01, 11
        alone = np.stack([brownian_increments(seed, j, n_steps, m, dt) for j in range(n_traj)])
        assert alone.shape == (n_traj, n_steps, m)
        bounds = sorted({0, n_steps, *range(4, n_steps, 4)})
        cuts = [(lo, hi) for lo in range(n_traj) for hi in range(lo + 1, n_traj + 1)]
        for lo, hi in cuts:
            block = brownian_increments(seed, range(lo, hi), n_steps, m, dt)
            assert np.array_equal(block, alone[lo:hi])
        for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
            lo, hi = cuts[7 * i % len(cuts)]
            for steps in (range(a, b), range(max(a - 1, 0), min(b + 1, n_steps)), range(a, n_steps)):
                part = brownian_increments(seed, range(lo, hi), n_steps, m, dt, steps)
                assert np.array_equal(part, alone[lo:hi, steps.start:steps.stop])

    def test_steps_must_lie_on_the_grid(self):
        for steps in (range(3, 11), range(-1, 2), range(0, 4, 2)):
            with pytest.raises(ValueError):
                brownian_increments(1, range(3), 10, 1, 0.1, steps)
        assert brownian_increments(1, range(3), 10, 1, 0.1, range(5, 5)).shape == (3, 0, 1)

    def test_last_rows_below_the_counter_carry(self):
        # row j, component a reads counter word 0 = j m + a + 1 of its step group:
        # the highest row that fits reads 2**64 - 1 and draws as it does alone;
        # one row more would carry into the group word and is refused
        seed, n_steps, m, dt = 9, 6, 2, 0.01
        top = ((1 << 64) - 1) // m
        rows = range(top - 3, top)
        assert rows.stop * m == (1 << 64) - 2
        block = brownian_increments(seed, rows, n_steps, m, dt)
        alone = np.stack([brownian_increments(seed, j, n_steps, m, dt) for j in rows])
        assert np.array_equal(block, alone) and np.isfinite(block).all()
        assert len({row.tobytes() for row in block}) == len(rows)
        with pytest.raises(ValueError):
            brownian_increments(seed, range(top - 3, top + 1), n_steps, m, dt)
        with pytest.raises(ValueError):
            brownian_increments(seed, -1, n_steps, m, dt)

    @pytest.mark.parametrize("n_steps, m", [(5, 2), (8, 1), (3, 3)])
    def test_row_reads_its_documented_counter_blocks(self, n_steps, m):
        # trajectory j, component a, steps 4g .. 4g+3: the (j m + a + 1)-th block
        # after counter (0, g, n_steps, m) of key [seed, 0]
        seed, dt, rows = 6, 0.25, range(2, 6)
        block = brownian_increments(seed, rows, n_steps, m, dt)
        for g in range(-(-n_steps // 4)):
            words = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64),
                                     counter=[0, g, n_steps, m]).random_raw(4 * rows.stop * m)
            z = ndtri(((words >> np.uint64(12)) + 0.5) * 2.0**-52) * 0.5
            z = z.reshape(rows.stop, m, 4)[rows.start:]      # (row, component, step of the group)
            k = min(4, n_steps - 4 * g)
            assert np.array_equal(block[:, 4 * g:4 * g + k], z[..., :k].transpose(0, 2, 1))

    @pytest.mark.parametrize("other", [(9, 1), (8, 2), (4, 1), (8, 3)])
    def test_ensembles_of_another_grid_share_no_word(self, other):
        # (n_steps, m) = (8, 1) against the same rows at another step count or noise dimension
        seed, rows = 3, range(64)
        mine = brownian_increments(seed, rows, 8, 1, 1.0)
        theirs = brownian_increments(seed, rows, *other, 1.0)
        assert np.intersect1d(mine.ravel(), theirs.ravel()).size == 0
        assert mine.size == 512 and np.unique(mine).size == 512

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
        for cap in (flowlab.sde._chunk_cap(), 64):
            monkeypatch.setattr(flowlab.sde, "_chunk_cap", lambda cap=cap: cap)
            parts = flowlab.sde._run_chunks(
                n_traj, n_steps, m,
                lambda lo, hi: (lo, hi, brownian_increments(seed, range(lo, hi), n_steps, m, dt)),
                threads,
            )
            workers = flowlab.sde._workers(n_traj, n_steps, m, threads)
            edges = flowlab.sde._chunk_edges(n_traj, n_steps, m, threads)
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
        monkeypatch.setattr(flowlab.sde, "_chunk_cap", lambda: 64)
        log = tmp_path / "draws"  # a file, so draws made in worker processes are seen too
        real = flowlab.sde.brownian_increments

        def counted(seed, index, n_steps, m, dt, steps):
            with open(log, "a") as fh:
                fh.write(f"{index.start} {index.stop} {steps.start} {steps.stop}\n")
            return real(seed, index, n_steps, m, dt, steps)

        monkeypatch.setattr(flowlab.sde, "brownian_increments", counted)
        starts = np.zeros((1, 1))
        if driver == "simulate_ensemble":
            simulate_ensemble(translate1, 0.0, 0.1, starts, 1e-2, seed=1, replicas=n_traj, threads=2)
        else:
            coupling_convergence(translate1, [4], 8, 0.0, 0.1, starts, 1e-2, seed=1, quad=quad1,
                                 replicas=n_traj, threads=2)
        edges = flowlab.sde._chunk_edges(n_traj, n_steps, 1, 2)
        assert len(edges) == 4
        drawn = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        # each chunk draws once per group of four steps, the last group short
        assert sorted(drawn) == [(lo, hi, a, b) for lo, hi in edges for a, b in ((0, 4), (4, 8), (8, 10))]


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
        monkeypatch.setattr(flowlab.sde, "_chunk_cap", lambda: 64)  # chunks of 64 paths
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

    @pytest.fixture(autouse=True)
    def _four_cpus(self, monkeypatch):
        monkeypatch.setattr(flowlab.sde, "_usable_cpus", lambda: 4)

    @pytest.mark.parametrize("n_traj", [40000, 6250, 8192, 8193, 300, 5000, 1])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n_steps", [100, 5000])
    def test_equal_chunks(self, n_traj, threads, n_steps):
        cap = flowlab.sde._chunk_cap()
        assert cap == 8192
        edges = flowlab.sde._chunk_edges(n_traj, n_steps, 1, threads)
        workers = flowlab.sde._workers(n_traj, n_steps, 1, threads)
        sizes = [hi - lo for lo, hi in edges]
        assert [lo for lo, _ in edges] == [0] + [hi for _, hi in edges[:-1]] and edges[-1][1] == n_traj
        assert max(sizes) <= cap and max(sizes) - min(sizes) <= 1
        at_cap = math.ceil(n_traj / cap)
        assert len(edges) == min(n_traj, math.ceil(at_cap / workers) * workers)

    def test_two_workers_get_equal_shares(self):
        # 40,000 paths are 5 chunks at the cap (8192 rows), dealt 3/2; cut as 6 they are dealt 3/3
        edges = flowlab.sde._chunk_edges(40000, 100, 1, 2)
        shares = [sum(hi - lo for lo, hi in edges[w::2]) for w in range(2)]
        assert len(edges) == 6 and shares == [20000, 20000]

    @pytest.mark.parametrize("threads, n_traj, n_steps, workers, chunks", [
        (8, 6250, 100, 1, 1),       # one load (8192 rows at 100 steps) runs inline
        (8, 6250, 5000, 4, 4),      # 838-row loads: one chunk at the cap is cut for four workers
        (8, 10000, 1000, 3, 3),     # 4194-row loads: 3 of them, one worker each
        (8, 100, 10**5, 2, 2),      # loads are 64 rows at least
        (2, 8193, 100, 2, 2),
        (2, 40000, 100, 2, 6),      # 5 at the cap, rounded up to a multiple of 2
        (8, 3 * 8192, 100, 3, 3),   # capped by the loads
        (8, 10**6, 100, 4, 124),    # capped by the usable CPUs
        (1, 10**6, 100, 1, 123),
    ])
    def test_worker_count_comes_from_the_loads(self, monkeypatch, threads, n_traj, n_steps, workers,
                                               chunks):
        dealt = []

        def deal(run, shares):  # records the shares and runs no chunk
            dealt.append(shares)
            return [({i: None for i in share}, [], None) for share in shares]

        monkeypatch.setattr(flowlab.sde, "_run_shares", deal)
        assert len(flowlab.sde._run_chunks(n_traj, n_steps, 1, None, threads)) == chunks
        assert dealt[-1] == [range(w, chunks, workers) for w in range(workers)]
        assert workers == flowlab.sde._workers(n_traj, n_steps, 1, threads)
        monkeypatch.delattr(flowlab.sde.os, "fork")
        flowlab.sde._run_chunks(n_traj, n_steps, 1, None, threads)
        assert len(dealt[-1]) == 1


class TestNoiseMemory:
    def test_peak_memory_does_not_grow_with_the_horizon(self, translate1):
        # one 8192-row chunk holds four steps of noise whatever the step count:
        # the traced peak at 4096 steps stays within 2x of the peak at 64
        peaks = {}
        for n_steps in (64, 4096):
            tracemalloc.start()
            try:
                simulate_ensemble(translate1, 0.0, n_steps * 1e-4, np.zeros((1, 1)), 1e-4, seed=5,
                                  replicas=8192)
                peaks[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] <= 2 * peaks[64]


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
        monkeypatch.setattr(flowlab.sde, "_chunk_cap", lambda: 64)
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
        monkeypatch.setattr(flowlab.sde, "brownian_increments", lambda *a, **k: drawn.append(a))
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
        paths = brownian_increments(seed=77, index=range(n_paths), n_steps=int(T / dtf), m=1, dt=dtf)[..., 0]
        for factor in (1, 4):
            dtc = dt / factor
            err_abs = np.empty(n_paths)
            for j, fine in enumerate(paths):
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
