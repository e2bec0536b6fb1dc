import numpy as np
import pytest

import flowlab.sde
from flowlab import convergence
from flowlab.coefficients import (CoefficientField, RegularizationLadder, RegularizationLevel, builtin_coefficients,
                                  regularize)
from flowlab.config import parse_config
from flowlab.convergence import (
    SpaceTimeBox,
    coupling_convergence,
    krylov_ratio,
    krylov_ratios,
)
from flowlab.density import batch_statistic
from flowlab.errors import ConfigError, ExplosionError
from flowlab.experiments import run_krylov
from flowlab.gaussian import GaussianQuadrature, HermiteStack
from flowlab.oracles import krylov_translate_functional
from flowlab.rng import brownian_increments
from flowlab.sde import _euler_step, simulate_ensemble


class TestKrylov:
    def test_zero_integrand(self, translate1):
        rep = krylov_ratio(translate1, lambda t, X: np.zeros(X.shape[:-1]), 1.0,
                           0.0, 0.5, np.zeros(1), 1e-2, seed=1, n_traj=200, f_norm=1.0)
        assert rep.functional.value == 0.0
        assert rep.ratio == 0.0

    def test_scaling_invariance(self, translate1):
        slab = SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(0.1,))
        r1 = krylov_ratio(translate1, slab, 1.0, 0.0, 1.0, np.zeros(1), 2e-3, seed=3, n_traj=2000)
        scaled = lambda t, X: 7.0 * slab(t, X)
        r7 = krylov_ratio(translate1, scaled, 1.0, 0.0, 1.0, np.zeros(1), 2e-3, seed=3,
                          n_traj=2000, f_norm=7.0 * slab.norm_d1(1))
        assert r1.ratio == pytest.approx(r7.ratio, rel=1e-14)

    def test_cdf_oracle(self, translate1):
        box = SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(1.0,))
        rep = krylov_ratio(translate1, box, 1.0, 0.0, 1.0, np.zeros(1), 1e-3, seed=5, n_traj=20000)
        oracle = krylov_translate_functional(0.0, 1.0, 1.0)
        assert abs(rep.functional.value - oracle) <= 3.0 * rep.functional.stderr + 1e-3

    def test_thin_slabs_bounded(self, translate1):
        ratios = []
        for w in (0.1, 0.05, 0.025):
            slab = SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(w,))
            rep = krylov_ratio(translate1, slab, 1.0, 0.0, 1.0, np.zeros(1), 2e-3,
                               seed=7, n_traj=4000)
            ratios.append(rep.ratio)
        assert all(r <= 10.0 * ratios[0] for r in ratios[1:])

    def test_shared_ensemble_matches_one_per_integrand(self, translate1):
        boxes = [SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(w,)) for w in (0.1, 0.05, 0.025)]
        boxes.append(SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(1.0,)))
        args = (1.0, 0.0, 1.0, np.zeros(1), 2e-3)
        shared = krylov_ratios(translate1, boxes, *args, seed=7, n_traj=2000)
        assert shared == [krylov_ratio(translate1, f, *args, seed=7, n_traj=2000) for f in boxes]

    def test_run_krylov_simulates_one_ensemble(self, tmp_path, monkeypatch):
        path = tmp_path / "k.ini"
        path.write_text("[k]\nkind = krylov\nfield = translate\nt = 0.5\ndt = 0.01\n"
                        "trajectories = 300\nseed = 3\n")
        calls = []
        real = convergence.simulate_ensemble

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(convergence, "simulate_ensemble", counted)
        rows, details = run_krylov(parse_config(str(path))[0], 3, 1)
        assert len(calls) == 1
        # three slab rows and the translate box row
        assert len(rows) == 4 and len(details["slabs"][1]) == 3

    def test_missing_norm_rejected(self, translate1):
        with pytest.raises(ConfigError):
            krylov_ratio(translate1, lambda t, X: np.ones(X.shape[:-1]), 1.0,
                         0.0, 0.5, np.zeros(1), 1e-2, seed=1, n_traj=10)

    def test_box_norm(self):
        box = SpaceTimeBox(t0=0.0, t1=2.0, lo=(0.0,), hi=(0.5,))
        assert box.norm_d1(1) == pytest.approx(1.0)
        assert box(0.5, np.array([[0.2], [0.7]])).tolist() == [1.0, 0.0]
        assert box(3.0, np.array([[0.2]]))[0] == 0.0


def _coupling_reference(field, n_list, n_ref, T, x0, dt, seed, quad, n_traj):
    """Per-level deviation estimates with every level and the reference stepped side by side.

    Trajectory j of the n_traj starts at row j // (n_traj / len(x0)) of x0.
    """
    fields = [regularize(field, RegularizationLevel(n), quad) for n in list(n_list) + [n_ref]]
    n_steps = int(round(T / dt))
    inc = brownian_increments(seed, range(n_traj), n_steps, field.m, dt)
    states = [np.repeat(x0, n_traj // len(x0), axis=0)] * len(fields)
    sup = np.zeros((len(n_list), n_traj))
    for k in range(n_steps):
        states = [_euler_step(fl, k, k * dt, Y, inc[:, k], dt)[1] for fl, Y in zip(fields, states)]
        for i, Y in enumerate(states[:-1]):
            sup[i] = np.maximum(sup[i], np.linalg.norm(Y - states[-1], axis=-1))
    return tuple(batch_statistic(v, lambda a: float(np.mean(a))) for v in sup)


class TestCoupling:
    def test_matches_reference_in_two_dimensions(self, quad2):
        ou2 = builtin_coefficients("ou_linear", d=2, a=1.0)
        x0 = np.array([[0.5, -0.3]])
        rep = coupling_convergence(ou2, [2], 4, 0.0, 0.05, x0, 1e-2, seed=2, quad=quad2,
                                   replicas=100)
        assert rep.deviations == _coupling_reference(ou2, [2], 4, 0.05, x0, 1e-2, 2, quad2, 100)

    def test_matches_reference_at_any_thread_count(self, monkeypatch, sign1, quad1):
        monkeypatch.setattr(flowlab.sde, "_chunk_cap", lambda: 64)  # chunks of 64 paths
        assert len(flowlab.sde._chunk_edges(300, 20, 1)) == 5
        kw = dict(initials=np.zeros((1, 1)), dt=1e-2, seed=9, quad=quad1, replicas=300)
        reps = [coupling_convergence(sign1, [4, 8], 16, 0.0, 0.2, threads=t, **kw) for t in (1, 2, 3)]
        assert reps[0].deviations == reps[1].deviations == reps[2].deviations
        assert reps[0].deviations == _coupling_reference(sign1, [4, 8], 16, 0.2, np.zeros((1, 1)),
                                                         1e-2, 9, quad1, 300)

    @staticmethod
    def _stacked_reads(monkeypatch):
        """The steps that read all the ladder's levels off its stacked tables at once, counted from now on."""
        reads = []
        real = HermiteStack.__call__
        monkeypatch.setattr(HermiteStack, "__call__", lambda stack, X: reads.append(1) or real(stack, X))
        return reads

    def test_matches_reference_as_paths_cross_the_smallest_plateau(self, monkeypatch, sign1, quad1):
        # paths from ±1.5 wander across |x| = 2, the plateau of level 2: the steps on which all
        # of them lie inside read the stacked tables, the others each level's own maps
        reads = self._stacked_reads(monkeypatch)
        x0 = np.array([[1.5], [-1.5]])
        rep = coupling_convergence(sign1, [2, 4], 8, 0.0, 0.5, x0, 1e-2, seed=4, quad=quad1, replicas=3)
        assert 0 < len(reads) < 50
        assert rep.deviations == _coupling_reference(sign1, [2, 4], 8, 0.5, x0, 1e-2, 4, quad1, 6)

    def test_matches_reference_past_the_tables(self, monkeypatch, sign1, quad1):
        # starts past TABLE_RADIUS = 16 and inside it: every step takes each level's own maps,
        # which smooth the points off the tables on moving nodes
        reads = self._stacked_reads(monkeypatch)
        x0 = np.array([[-17.0], [0.5], [16.5], [20.0], [-3.0]])
        rep = coupling_convergence(sign1, [2, 4], 8, 0.0, 0.1, x0, 1e-2, seed=6, quad=quad1, replicas=2)
        assert reads == []
        assert rep.deviations == _coupling_reference(sign1, [2, 4], 8, 0.1, x0, 1e-2, 6, quad1, 10)

    def test_ladder_run_counts_trajectories_and_steps_each_level_as_alone(self, sign1, quad1):
        ladder = RegularizationLadder(sign1, [4, 8, 16], quad1)
        ens = simulate_ensemble(ladder, 0.0, 0.1, ("gaussian", 7), 1e-2, seed=5, replicas=3)
        assert ens.n_traj == 21 and ens.x0.shape == (21, 1) and ens.xT.shape == (3, 21, 1)
        for level, xT in zip(ladder.fields, ens.xT):
            alone = simulate_ensemble(level, 0.0, 0.1, ("gaussian", 7), 1e-2, seed=5, replicas=3)
            assert np.array_equal(xT, alone.xT)

    def test_degenerate_horizon_refused(self, sign1, quad1):
        with pytest.raises(ConfigError):
            coupling_convergence(sign1, [4], 8, 0.5, 0.5, np.zeros((1, 1)), 1e-2, seed=1,
                                 quad=quad1, replicas=10)

    def test_empty_ladder(self, sign1, quad1):
        rep = coupling_convergence(sign1, [], 8, 0.0, 0.1, np.zeros((1, 1)), 1e-2, seed=1,
                                   quad=quad1, replicas=10)
        assert rep.deviations == () and rep.final_over_first == 0.0

    def test_reference_against_itself(self, translate1, quad1):
        rep = coupling_convergence(translate1, [16], 16, 0.0, 0.25, np.zeros((1, 1)),
                                   1e-2, seed=1, quad=quad1, replicas=200)
        assert rep.deviations[0].value == 0.0

    def test_translate_levels_exact_inside_plateau(self, translate1, quad1):
        rep = coupling_convergence(translate1, [4, 8], 32, 0.0, 0.25, np.zeros((1, 1)),
                                   1e-2, seed=3, quad=quad1, replicas=200)
        for est in rep.deviations:
            assert est.value <= 1e-12

    def test_sign_drift_decreasing(self, sign1, quad1):
        rep = coupling_convergence(sign1, [4, 8, 16, 32, 64], 128, 0.0, 0.5,
                                   np.zeros((1, 1)), 1e-3, seed=7, quad=quad1, replicas=2000)
        assert rep.monotone_steps >= 3
        assert rep.final_over_first <= 1.0 / 3.0

    def test_reference_must_be_finest(self, sign1, quad1):
        with pytest.raises(ConfigError):
            coupling_convergence(sign1, [4, 256], 128, 0.0, 0.5, np.zeros((1, 1)),
                                 1e-2, seed=1, quad=quad1, replicas=10)

    def test_deviations_nonnegative(self, sign1, quad1):
        rep = coupling_convergence(sign1, [8, 32], 64, 0.0, 0.25, np.zeros((1, 1)),
                                   2e-3, seed=11, quad=quad1, replicas=500)
        assert all(est.value >= 0 for est in rep.deviations)
        assert rep.levels == (8, 32)

    def test_explosion_in_a_coarse_level_names_its_row(self, quad1):
        # b = 1.5e10 on x > 0.5: smoothed at ε = 1/2 and 1/4 it pushes the path from 0 past the
        # explosion radius in one step of 0.1, at ε = 1/16 (the reference) and from -2 it does not
        jump = CoefficientField(
            d=1, m=1, sigma=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1)),
            b=lambda t, X: np.where(np.asarray(X) > 0.5, 1.5e10, 0.0), sigma_const=np.eye(1), name="jump")
        with pytest.raises(ExplosionError) as err:
            coupling_convergence(jump, [2, 4], 16, 0.0, 0.1, np.array([[0.0], [-2.0]]), 0.1, seed=0,
                                 quad=quad1, replicas=1)
        assert err.value.step == 1 and err.value.indices == [0]
        ref = regularize(jump, RegularizationLevel(16), quad1)
        assert np.abs(simulate_ensemble(ref, 0.0, 0.1, np.array([[0.0], [-2.0]]), 0.1, seed=0).xT).max() < 1e8

    def test_explosion_guard(self, rocket1):
        with pytest.raises(ExplosionError) as err:
            coupling_convergence(rocket1, [4, 8], 16, 0.0, 1.0, np.zeros((1, 1)), 0.1, seed=0,
                                 quad=GaussianQuadrature.gauss_hermite(1, 8), replicas=16)
        assert err.value.step is not None
        assert err.value.indices and all(0 <= i < 16 for i in err.value.indices)
