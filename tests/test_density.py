import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowlab.sde
from flowlab.coefficients import RegularizationLevel, builtin_coefficients, regularize, validate_hypotheses
from flowlab.density import (
    DensityAccumulator,
    StratonovichAccumulator,
    _strat_correction_divergence,
    batch_statistic,
    budget_constants,
    entropy_estimate,
    lp_norm_estimate,
    mass_estimate,
    mean_estimate,
    pushforward_logK,
    run_density_ensemble,
    theorem_bound_rhs,
    time_threshold,
)
from flowlab.errors import BoundUnavailableError
from flowlab.gaussian import GaussianQuadrature
from flowlab.oracles import (
    ou_exact_log_density,
    translate_bound_rhs,
    translate_entropy_mc,
    translate_lp_norm,
)
from flowlab.rng import brownian_increments
from flowlab.sde import simulate_ensemble

from conftest import StoredStates, make_mixed_sigma_field, make_sine_field


def _ito_along(field, traj, inc, s, dt):
    """Ito S and D along one stored path, one ``evaluate`` per step."""
    S = D = 0.0
    for k in range(inc.shape[0]):
        ev = field.evaluate(s + k * dt, traj[k][None, :])
        S += float(ev.delta_sigma[0] @ inc[k])
        D += float(ev.phi[0]) * dt
    return S, D


def _stratonovich_along(field, traj, inc, s, dt):
    """Midpoint S and drift-δ(b~) D along one stored path, evaluating both ends of every step."""
    S = D = 0.0
    for k in range(inc.shape[0]):
        t0 = s + k * dt
        t1 = t0 + dt
        x0 = traj[k][None, :]
        x1 = traj[k + 1][None, :]
        ev0 = field.evaluate(t0, x0)
        ev1 = field.evaluate(t1, x1)
        S += float(0.5 * (ev0.delta_sigma[0] + ev1.delta_sigma[0]) @ inc[k])
        corr0 = float(_strat_correction_divergence(field, t0, x0)[0])
        corr1 = float(_strat_correction_divergence(field, t1, x1)[0])
        D += 0.5 * ((float(ev0.delta_b[0]) - 0.5 * corr0) + (float(ev1.delta_b[0]) - 0.5 * corr1)) * dt
    return S, D


class TestPhiIntegrand:
    def test_identity_diffusion(self):
        field = builtin_coefficients("translate", d=2)
        val = field.evaluate(0.0, np.zeros((1, 2))).phi
        assert val[0] == pytest.approx(1.0)

    def test_ou_linear(self, ou1):
        pts = np.array([[0.0], [1.0], [-2.0]])
        np.testing.assert_allclose(
            ou1.evaluate(0.0, pts).phi, (1.0 - pts[:, 0] ** 2) + 0.5, rtol=1e-12
        )

    def test_varying_sigma(self, sine_field):
        pts = np.array([[0.3], [1.9]])
        x = pts[:, 0]
        expected = 0.5 * (2.0 + np.sin(x)) ** 2 + 0.5 * np.cos(x) ** 2
        np.testing.assert_allclose(sine_field.evaluate(0.0, pts).phi, expected, rtol=1e-10)


class TestAccumulatorStep:
    @staticmethod
    def _smoothing_calls(field, monkeypatch, run=run_density_ensemble):
        """``ou_smooth``/``ou_smooth_grad`` calls made by one Euler step of 16 paths on ``field``.

        ``run`` is ``run_density_ensemble`` (the step feeds the density
        accumulator) or ``simulate_ensemble`` (a plain step).
        """
        from flowlab import coefficients

        calls = {"ou_smooth": 0, "ou_smooth_grad": 0}

        def counted(name):
            fn = getattr(coefficients, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(coefficients, name, counted(name))
        X = np.stack([np.linspace(-2.0, 2.0, 16)] * field.d, axis=-1)
        run(field, 0.0, 1e-3, X, 1e-3, seed=0)
        return calls

    def test_regularized_step_smooths_each_coefficient_once(self, quad2, monkeypatch):
        # d = 2 smooths on moving nodes: σ^n once, ∇σ^n once (on the plateau of φ_n it is the
        # kernel gradient alone), b^n once, ∇b^n once; the Euler step and the density weight
        # share σ^n and b^n
        reg = regularize(make_mixed_sigma_field(), RegularizationLevel(8), quad2)
        assert self._smoothing_calls(reg, monkeypatch) == {"ou_smooth": 2, "ou_smooth_grad": 2}

    def test_plain_step_smooths_no_derivative(self, quad2, monkeypatch):
        reg = regularize(make_mixed_sigma_field(), RegularizationLevel(8), quad2)
        calls = self._smoothing_calls(reg, monkeypatch, run=simulate_ensemble)
        assert calls == {"ou_smooth": 2, "ou_smooth_grad": 0}

    @pytest.mark.parametrize("run, calls", [(run_density_ensemble, {"ou_smooth": 1, "ou_smooth_grad": 1}),
                                            (simulate_ensemble, {"ou_smooth": 1, "ou_smooth_grad": 0})])
    def test_constant_sigma_is_not_smoothed(self, quad2, monkeypatch, run, calls):
        # σ = Id is its own smoothing: only b^n (and ∇b^n for the density weight) is smoothed
        reg = regularize(builtin_coefficients("sign_drift", d=2), RegularizationLevel(8), quad2)
        assert self._smoothing_calls(reg, monkeypatch, run=run) == calls

    def test_regularized_step_in_d1_reads_tables(self, sign1, quad1, monkeypatch):
        # d = 1 and time-independent: every coefficient is a lookup in the level's tables
        reg = regularize(sign1, RegularizationLevel(8), quad1)
        assert self._smoothing_calls(reg, monkeypatch) == {"ou_smooth": 0, "ou_smooth_grad": 0}

    @pytest.mark.parametrize("key, reads", [("sine", [{"value": 1, "derivative": 1}] * 2),
                                            ("sign_drift", [{"value": 1, "derivative": 1}])])
    def test_d1_step_reads_each_table_once(self, quad1, monkeypatch, key, reads):
        # a varying σ has a table (built first) beside the drift's; a constant σ has none
        from flowlab import coefficients

        tables = []
        real = coefficients.ou_smooth_table

        class Counted:
            def __init__(self, table):
                self.table, self.reads = table, {"value": 0, "derivative": 0}

            def __call__(self, x):
                self.reads["value"] += 1
                return self.table(x)

            def derivative(self, x):
                self.reads["derivative"] += 1
                return self.table.derivative(x)

        monkeypatch.setattr(coefficients, "ou_smooth_table",
                            lambda f, eps: tables.append(Counted(real(f, eps))) or tables[-1])
        field = make_sine_field() if key == "sine" else builtin_coefficients(key, d=1)
        reg = regularize(field, RegularizationLevel(8), quad1)
        run_density_ensemble(reg, 0.0, 1e-3, np.linspace(-2.0, 2.0, 16)[:, None], 1e-3, seed=0)
        assert [t.reads for t in tables] == reads

    def test_sigma_T_shared_by_budget_and_hypotheses(self, sign1, quad1):
        reg = regularize(sign1, RegularizationLevel(8), quad1)
        tau = time_threshold(reg)
        assert budget_constants(reg, tau, quad1).Sigma_T == validate_hypotheses(reg, tau, quad1).sigma_T


class TestRecords:
    def test_degenerate_horizon_is_unit_mass(self, translate1):
        ens, rec = run_density_ensemble(translate1, 0.0, 0.0, ("gaussian", 50), 1e-3, seed=0)
        np.testing.assert_array_equal(rec.log_ktilde, 0.0)
        assert lp_norm_estimate(rec, 2.0).value == 1.0
        assert entropy_estimate(rec).value == 0.0
        assert mass_estimate(rec).value == 1.0

    def test_pushforward_inverse_identity(self, ou1):
        _, rec = run_density_ensemble(ou1, 0.0, 0.1, ("gaussian", 64), 1e-2, seed=1)
        np.testing.assert_array_equal(pushforward_logK(rec) + rec.log_ktilde, 0.0)

    def test_translate_per_path_oracle(self, translate1):
        ens, rec = run_density_ensemble(
            translate1, 0.0, 0.25, ("gaussian", 4000), 1e-3, seed=7
        )
        dw = ens.xT[:, 0] - ens.x0[:, 0]
        oracle = ens.x0[:, 0] * dw + dw**2 / 2.0
        err = np.abs(pushforward_logK(rec) - oracle)
        guarded = err / (1.0 + np.abs(oracle))
        assert guarded.mean() <= 1e-2

    def test_accumulator_matches_single_trajectory(self, sine_field):
        store = StoredStates(20, 1)
        simulate_ensemble(sine_field, 0.0, 0.2, np.array([[0.4]]), 1e-2, seed=3, accumulators=(store,))
        S, D = _ito_along(sine_field, store.paths[0], brownian_increments(3, 0, 20, 1, 1e-2), 0.0, 1e-2)
        _, rec_ens = run_density_ensemble(sine_field, 0.0, 0.2, np.array([[0.4]]), 1e-2, seed=3)
        assert S == pytest.approx(rec_ens.S[0], rel=1e-12)
        assert D == pytest.approx(rec_ens.D[0], rel=1e-12)

    def test_ou_exact_density_ratio(self, ou1):
        tau = 0.25
        ens, rec = run_density_ensemble(ou1, 0.0, tau, ("gaussian", 2000), 1e-3, seed=9)
        oracle = np.array([
            ou_exact_log_density(1.0, tau, x0, xT)
            for x0, xT in zip(ens.x0[:, 0], ens.xT[:, 0])
        ])
        rel = np.abs(np.exp(rec.log_ktilde - oracle) - 1.0)
        assert rel.mean() <= 0.05

    def test_stratonovich_matches_ito_to_first_order(self, sine_field):
        diffs = []
        for dt in (4e-3, 2e-3):
            ito = DensityAccumulator(dt)
            strat = StratonovichAccumulator(sine_field, dt)
            simulate_ensemble(sine_field, 0.0, 0.2, np.array([[0.3]]), dt, seed=11,
                              accumulators=(ito, strat))
            diffs.append(abs((ito.S[0] + ito.D[0]) - (strat.S[0] + strat.D[0])))
        assert diffs[1] < diffs[0]
        assert diffs[1] < 0.05

    def test_stratonovich_accumulator_matches_per_path_loop(self, sine_field, monkeypatch):
        n_steps, dt, seed = 20, 1e-2, 5
        monkeypatch.setattr(flowlab.sde, "_CHUNK_BUDGET", 64 * n_steps)  # chunks of 64 paths
        starts = np.linspace(-1.5, 1.5, 150)[:, None]
        assert len(flowlab.sde._chunk_edges(150, n_steps, 1)) == 3
        runs = []
        for threads in (1, 2):
            strat = StratonovichAccumulator(sine_field, dt)
            store = StoredStates(n_steps, 1)
            simulate_ensemble(sine_field, 0.0, 0.2, starts, dt, seed, threads=threads,
                              accumulators=(strat, store))
            runs.append(strat)
        assert np.array_equal(runs[0].S, runs[1].S)
        assert np.array_equal(runs[0].D, runs[1].D)
        for j in range(0, 150, 7):
            inc = brownian_increments(seed, j, n_steps, 1, dt)
            S, D = _stratonovich_along(sine_field, store.paths[j], inc, 0.0, dt)
            assert strat.S[j] == pytest.approx(S, rel=1e-12)
            assert strat.D[j] == pytest.approx(D, rel=1e-12)


class TestStatistics:
    def test_lp_matches_closed_form(self, translate1):
        for tau, n in ((0.1, 30000), (0.25, 30000)):
            _, rec = run_density_ensemble(
                translate1, 0.0, tau, ("gaussian", n), 1e-3, seed=13
            )
            est = lp_norm_estimate(rec, 2.0)
            assert abs(est.value - translate_lp_norm(2.0, tau)) <= 3.0 * est.stderr

    def test_entropy_against_direct_mc(self, translate1):
        tau = 0.25
        _, rec = run_density_ensemble(translate1, 0.0, tau, ("gaussian", 30000), 1e-3, seed=17)
        est = entropy_estimate(rec)
        mc, mc_se = translate_entropy_mc(tau, 2_000_000)
        assert abs(est.value - mc) <= 3.0 * (est.stderr + mc_se) + 2e-3

    def test_mass_identity(self, translate1, ou1):
        for field in (translate1, ou1):
            _, rec = run_density_ensemble(field, 0.0, 0.2, ("gaussian", 20000), 1e-3, seed=19)
            est = mass_estimate(rec)
            assert abs(est.value - 1.0) <= 3.0 * est.stderr

    def test_rejects_bad_p(self, translate1):
        _, rec = run_density_ensemble(translate1, 0.0, 0.1, ("gaussian", 50), 1e-2, seed=0)
        with pytest.raises(ValueError):
            lp_norm_estimate(rec, 1.0)

    def test_batch_statistic_mean(self):
        vals = np.arange(100, dtype=float)
        est = batch_statistic(vals, lambda v: float(np.mean(v)))
        assert est.value == pytest.approx(49.5)
        assert est.stderr > 0
        assert mean_estimate(vals) == est

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=4, max_size=60))
    def test_mass_estimate_equals_direct_mean(self, logs):
        rec = DensityAccumulator(dt=1.0)
        rec.S, rec.D = -np.asarray(logs), np.zeros(len(logs))
        est = mass_estimate(rec)
        assert est.value == pytest.approx(np.exp(logs).mean(), rel=1e-12)


class TestBounds:
    def test_translate_instance(self, translate1, quad1_fine):
        rhs = theorem_bound_rhs(translate1, 0.0, 0.1, 2.0, quad1_fine)
        assert rhs == pytest.approx(translate_bound_rhs(2.0, 0.1), rel=1e-8)
        assert rhs == pytest.approx(1.1823, abs=1e-4)

    @pytest.mark.parametrize("order", [185, 186])
    def test_order_doubling_stays_within_the_largest_rule(self, translate1, order):
        # at order 186 the doubled rule is capped at MAX_GH_ORDER = 370 instead of reading NaN weights
        quad = GaussianQuadrature.gauss_hermite(1, order)
        assert theorem_bound_rhs(translate1, 0.0, 0.1, 2.0, quad) == 1.1822899096831099

    def test_exponent_collapse(self, translate1, quad1_fine):
        rhs = theorem_bound_rhs(translate1, 0.0, 0.1, 1.0 + 1e-9, quad1_fine)
        assert rhs == pytest.approx(1.0, abs=1e-6)

    def test_zero_horizon(self, translate1, quad1_fine):
        assert theorem_bound_rhs(translate1, 0.3, 0.3, 2.0, quad1_fine) == 1.0

    def test_divergent_flagged(self, translate1, quad1_fine):
        with pytest.raises(BoundUnavailableError):
            theorem_bound_rhs(translate1, 0.0, 0.25, 2.0, quad1_fine)
        with pytest.raises(BoundUnavailableError):
            theorem_bound_rhs(translate1, 0.0, 0.05, 3.0, quad1_fine)

    def test_ordering_where_integrable(self, translate1, quad1_fine):
        _, rec = run_density_ensemble(translate1, 0.0, 0.05, ("gaussian", 20000), 1e-3, seed=23)
        for p in (1.5, 2.0):
            est = lp_norm_estimate(rec, p)
            rhs = theorem_bound_rhs(translate1, 0.0, 0.05, p, quad1_fine)
            assert est.value <= rhs + 3.0 * est.stderr


class TestBudget:
    def test_time_threshold_formula(self):
        field = builtin_coefficients("translate", d=1, lam=1.0)
        assert time_threshold(field) == pytest.approx(1.0 / 224.0)

    def test_constants_translate(self, quad1_fine):
        field = builtin_coefficients("translate", d=1, lam=0.25)
        budget = budget_constants(field, 1.0, quad1_fine)
        assert budget.T0 == pytest.approx(0.25 / (8.0 * math.e**2))
        assert budget.M1 == pytest.approx(math.sqrt(2.0 / math.pi))
        assert budget.Sigma_T == pytest.approx(math.sqrt(2.0), rel=1e-6)
        lam_expected = (budget.M2 * budget.Sigma_T / budget.T0) ** (1.0 / 12.0)
        assert budget.Lambda_T0 == pytest.approx(lam_expected, rel=1e-12)
        assert budget.N_tilde == math.ceil(1.0 / budget.T0)
        assert budget.C2 == pytest.approx(1.5, rel=1e-9)  # constant integrand
        assert budget.entropy_bound_limit == pytest.approx(
            budget.entropy_bound + 2.0 * math.exp(-1.0)
        )

    def test_budget_for_regularized_measurable_drift(self, sign1, quad1):
        reg = regularize(sign1, RegularizationLevel(8), quad1)
        tau = time_threshold(reg)
        budget = budget_constants(reg, tau, quad1, tgrid=5)
        assert np.isfinite(budget.entropy_bound)
        assert budget.entropy_bound > 0

    def test_entropy_within_budget_smoke(self, sign1, quad1):
        reg = regularize(sign1, RegularizationLevel(8), quad1)
        tau = time_threshold(reg)
        budget = budget_constants(reg, tau, quad1, tgrid=5)
        dt = tau / 8.0
        _, rec = run_density_ensemble(reg, 0.0, tau, ("gaussian", 4000), dt, seed=29)
        est = entropy_estimate(rec)
        assert est.value <= budget.entropy_bound_limit + 3.0 * est.stderr
        mass = mass_estimate(rec)
        assert abs(mass.value - 1.0) <= 3.0 * mass.stderr
