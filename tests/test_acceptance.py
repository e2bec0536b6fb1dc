"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria run at desk scale (d = 1, 10^4 - 10^6 trajectories, dt in
[1e-4, 1e-2]) with a fixed seed, so every run of this module is
deterministic.  Expected values come from closed forms in
:mod:`flowlab.oracles` (cross-checked by the dual-computation oracle gate),
never from the code paths under test.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from flowlab.coefficients import (
    CoefficientField,
    RegularizationLevel,
    builtin_coefficients,
    regularize,
)
from flowlab.convergence import SpaceTimeBox, coupling_convergence, krylov_ratio
from flowlab.density import (
    budget_constants,
    entropy_estimate,
    lp_norm_estimate,
    mass_estimate,
    pushforward_logK,
    run_density_ensemble,
    theorem_bound_rhs,
    time_threshold,
)
from flowlab.errors import BoundUnavailableError
from flowlab.fokker_planck import (
    FPGrid,
    GridSampler1D,
    density_factorization,
    fp_solve,
    mc_flows,
    smooth_bump,
    weak_error,
)
from flowlab.gaussian import GaussianQuadrature, gauss_expectation, ou_smooth
from flowlab import oracles

SEED = 42
THREADS = 4

# mass checks accumulated by the earlier criteria; criterion 5 audits them all
MASS_CHECKS = {}
# the raw (unregularized) discontinuous drift is special: its pointwise
# divergence representative drops the Dirac part of div(sign), so the
# accumulated weight is NOT a probability density and its mass deficit is a
# predictable local-time quantity, audited separately in criterion 5
RAW_SIGN = {}


def _register_mass(name, records):
    MASS_CHECKS[name] = mass_estimate(records)


@pytest.fixture(scope="module")
def quad():
    return GaussianQuadrature.gauss_hermite(1, 64)


@pytest.fixture(scope="module")
def translate():
    return builtin_coefficients("translate", d=1)


@pytest.fixture(scope="module")
def ou():
    return builtin_coefficients("ou_linear", d=1, a=1.0)


@pytest.fixture(scope="module")
def sign():
    return builtin_coefficients("sign_drift", d=1, beta=1.0)


@pytest.fixture(scope="module")
def translate_quarter(translate):
    """10^5 gamma-start translate trajectories on [0, 0.25] at dt = 1e-3."""
    ens, rec = run_density_ensemble(
        translate, 0.0, 0.25, ("gaussian", 100_000), 1e-3, SEED, threads=THREADS
    )
    _register_mass("translate tau=0.25", rec)
    return ens, rec


@pytest.fixture(scope="module")
def translate_short(translate):
    """10^5 gamma-start translate trajectories on [0, 0.04] at dt = 1e-3.

    At p = 2, τ = 0.04 the summand K^{p-1} has finite variance
    (2(p-1)(2p-1)τ = 0.24 < 1) and so does its sample variance
    (4(p-1)(4p-3)τ = 0.8 < 1), so a 3-stderr margin is an error bar there;
    at τ = 0.25 the first is 1.5 and the variance infinite.
    """
    return run_density_ensemble(translate, 0.0, 0.04, ("gaussian", 100_000), 1e-3, SEED, threads=THREADS)


def test_criterion_1_gaussian_identities(quad):
    # adjoint identity on a polynomial suite
    suite = [
        (np.polynomial.Polynomial(fc), np.polynomial.Polynomial(bc))
        for fc, bc in [
            ([0, 1], [1, 0, 1]),
            ([1, 0, 2], [0, 1]),
            ([0, 0, 0, 1], [2, -1]),
            ([1, 1, 1], [0, 0, 1]),
            ([0, 2, 0, -1], [1, 0, 0, 1]),
        ]
    ]
    worst = 0.0
    for f, b in suite:
        df, db = f.deriv(), b.deriv()
        field = CoefficientField(
            d=1, m=1,
            sigma=lambda t, X: np.ones(np.shape(X)[:-1] + (1, 1)),
            b=lambda t, X, b=b: b(X),
            b_jac=lambda t, X, db=db: db(X)[..., None],
        )
        lhs = gauss_expectation(lambda x, b=b, df=df: b(x[:, 0]) * df(x[:, 0]), quad)
        rhs = gauss_expectation(lambda x, f=f, field=field: f(x[:, 0]) * field.evaluate(0.0, x).delta_b, quad)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-6

    # invariance of the reference measure under the smoothing semigroup
    worst_inv = 0.0
    for f in (lambda x: x[:, 0] ** 4, lambda x: x[:, 0] ** 3 - 2 * x[:, 0], lambda x: x[:, 0] ** 2):
        direct = gauss_expectation(f, quad)
        smoothed = gauss_expectation(lambda pts: ou_smooth(f, 0.35, pts, quad), quad)
        worst_inv = max(worst_inv, abs(smoothed - direct))
    assert worst_inv <= 1e-8

    # linear-growth bound for the smoothing semigroup, never violated on a ball
    L = 2.0
    const = L * (1.0 + oracles.gaussian_abs_moment(1))
    xs = np.linspace(-4.0, 4.0, 33)[:, None]
    fields = [
        lambda p: L * (1.0 + np.abs(p[:, 0])),
        lambda p: -L * (1.0 + np.abs(p[:, 0])),
        lambda p: L * p[:, 0],
        lambda p: L * np.sin(p[:, 0]) + L * np.abs(p[:, 0]),
    ]
    for f in fields:
        for eps in (1.0, 0.5, 0.1, 0.01):
            vals = ou_smooth(f, eps, xs, quad)
            assert np.all(np.abs(vals) <= const * (1.0 + np.abs(xs[:, 0])) + 1e-9)
    print(f"PASS criterion-1: adjoint {worst:.2e} <= 1e-6, invariance {worst_inv:.2e} <= 1e-8, "
          "growth bound never violated")


def test_criterion_2_translate_oracle(translate_quarter, translate_short):
    ens, rec = translate_quarter
    dw = ens.xT[:, 0] - ens.x0[:, 0]
    oracle = ens.x0[:, 0] * dw + dw**2 / 2.0
    err = np.abs(pushforward_logK(rec) - oracle)
    rel = float((err / (1.0 + np.abs(oracle))).mean())
    assert rel <= 1e-2

    _, rec = translate_short
    est = lp_norm_estimate(rec, 2.0)
    target = oracles.translate_lp_norm(2.0, 0.04)
    dev = abs(est.value - target)
    assert dev <= 3.0 * est.stderr
    print(f"PASS criterion-2: per-path log-density rel err {rel:.2%} <= 1%, "
          f"L2 at tau=0.04 {est.value:.4f} vs {target:.4f} ({dev / est.stderr:.2f} sigma)")


def test_criterion_3_bound_ordering(translate, ou, quad):
    checked = 0
    skipped = []
    hand_instance = None
    for field in (translate, ou):
        for tau in (0.05, 0.1, 0.25):
            ens, rec = run_density_ensemble(
                field, 0.0, tau, ("gaussian", 50_000), 1e-3, SEED, threads=THREADS
            )
            _register_mass(f"{field.name} tau={tau}", rec)
            for p in (1.5, 2.0, 3.0):
                try:
                    rhs = theorem_bound_rhs(field, 0.0, tau, p, quad)
                except BoundUnavailableError:
                    skipped.append((field.name, p, tau))
                    continue
                est = lp_norm_estimate(rec, p)
                assert est.value <= rhs + 3.0 * est.stderr, (field.name, p, tau)
                checked += 1
                if field.name == "translate" and p == 2.0 and tau == 0.1:
                    hand_instance = (est, rhs)
    assert checked >= 6
    est, rhs = hand_instance
    assert abs(est.value - 1.0574) <= max(3.0 * est.stderr, 5e-3)
    assert rhs == pytest.approx(1.1823, abs=1e-3)
    assert est.value <= rhs
    print(f"PASS criterion-3: {checked} (field, p, t-s) pairs ordered, "
          f"{len(skipped)} non-integrable skipped; hand instance "
          f"{est.value:.4f} <= {rhs:.4f}")


def test_criterion_4_entropy_budget(sign, ou, quad):
    lines = []
    for field in (sign, ou):
        for n in (8, 32):
            reg = regularize(field, RegularizationLevel(n), quad)
            tau = time_threshold(reg)
            budget = budget_constants(reg, tau, quad, tgrid=5)
            steps = 8
            _, rec = run_density_ensemble(
                reg, 0.0, tau, ("gaussian", 100_000), tau / steps, SEED, threads=THREADS
            )
            _register_mass(f"{reg.name} tau=T0", rec)
            est = entropy_estimate(rec)
            assert est.value <= budget.entropy_bound_limit + 3.0 * est.stderr
            lines.append(f"{field.name} n={n}: {est.value:.4f} <= {budget.entropy_bound_limit:.3f}")

    # dt-halving stability for the raw measurable drift
    tau = time_threshold(sign)
    vals = []
    for steps in (16, 32):
        _, rec = run_density_ensemble(
            sign, 0.0, tau, ("gaussian", 100_000), tau / steps, SEED, threads=THREADS
        )
        vals.append(entropy_estimate(rec))
    RAW_SIGN["mass"] = mass_estimate(rec)
    RAW_SIGN["tau"] = tau
    drift = abs(vals[1].value - vals[0].value)
    tol = 0.1 * vals[0].value + 3.0 * (vals[0].stderr + vals[1].stderr)
    assert np.isfinite(vals[0].value) and np.isfinite(vals[1].value)
    assert drift <= tol
    print("PASS criterion-4: " + "; ".join(lines)
          + f"; sign_drift dt-halving drift {drift:.2e} <= {tol:.2e}")


def test_criterion_5_mass_identity():
    assert MASS_CHECKS, "mass checks should have been registered by earlier criteria"
    worst = 0.0
    for name, est in MASS_CHECKS.items():
        dev = abs(est.value - 1.0)
        assert dev <= 3.0 * est.stderr, (name, est)
        worst = max(worst, dev / est.stderr)

    # For the raw discontinuous drift the accumulated weight is not a
    # probability density: div(sign) carries a point mass at the kink that
    # the pointwise representative |x| cannot see, so the mean of K~ falls
    # short of 1 by the expected local time at the kink,
    # 2 β ∫_0^τ p_u(0) du ≈ 2 β τ / sqrt(2 π) for small τ.  Check the deficit
    # quantitatively instead of pretending the identity holds there.
    est = RAW_SIGN["mass"]
    tau = RAW_SIGN["tau"]
    deficit = 1.0 - est.value
    predicted = 2.0 * tau / math.sqrt(2.0 * math.pi)
    assert deficit == pytest.approx(predicted, rel=0.25)
    print(f"PASS criterion-5: mean of K~ = 1 within 3 sigma on {len(MASS_CHECKS)} "
          f"density-valid ensembles (worst {worst:.2f} sigma); raw sign-drift mass "
          f"deficit {deficit:.2e} matches the local-time prediction {predicted:.2e}")


def test_criterion_6_coupling(sign, quad):
    rep = coupling_convergence(
        sign, [4, 8, 16, 32, 64], 128, 0.0, 0.5, np.zeros((1, 1)),
        1e-3, SEED, quad=GaussianQuadrature.gauss_hermite(1, 32),
        replicas=10_000, threads=THREADS,
    )
    values = [e.value for e in rep.deviations]
    # five comparisons: four between consecutive levels plus the final level
    # against the reference itself (deviation 0); at least four must decrease
    decreases = rep.monotone_steps + (1 if values[-1] > 0 else 0)
    assert decreases >= 4
    assert rep.final_over_first <= 1.0 / 3.0
    print(f"PASS criterion-6: deviations {['%.4f' % v for v in values]}, "
          f"final/first {rep.final_over_first:.3f} <= 1/3")


def test_criterion_7_krylov(translate):
    ratios = []
    for w in (0.1, 0.05, 0.025):
        slab = SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(w,))
        rep = krylov_ratio(translate, slab, 1.0, 0.0, 1.0, np.zeros(1),
                           1e-3, SEED, 10_000, threads=THREADS)
        ratios.append(rep.ratio)
    assert all(r <= 10.0 * ratios[0] for r in ratios)

    box = SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,), hi=(1.0,))
    rep = krylov_ratio(translate, box, 1.0, 0.0, 1.0, np.zeros(1),
                       1e-3, SEED, 10_000, threads=THREADS)
    oracle = oracles.krylov_translate_functional(0.0, 1.0, 1.0)
    dev = abs(rep.functional.value - oracle)
    assert dev <= 3.0 * rep.functional.stderr + 2e-3
    print(f"PASS criterion-7: slab ratios {['%.3f' % r for r in ratios]} within 10x baseline; "
          f"CDF instance dev {dev:.2e}")


def test_criterion_8_fokker_planck(translate, ou):
    # heat-kernel variance
    grid = FPGrid.gaussian(1, 8.0, 0.05)
    heat = fp_solve(translate, grid, 0.0, 1.0, 1e-3)
    target = oracles.heat_variance(1.0)
    var_err = abs(heat.grid.variance() - target)
    assert var_err <= 0.01 * target

    # weak agreement on a 5-function smooth test set
    phis = [smooth_bump(c, 1.5) for c in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    weak_msgs = []
    for field, t_end, tau in ((translate, 1.0, 1e-3), (ou, 0.5, 5e-4)):
        sol = fp_solve(field, FPGrid.gaussian(1, 8.0, 0.05), 0.0, t_end, tau)
        coarse = fp_solve(field, FPGrid.gaussian(1, 8.0, 0.1), 0.0, t_end, 4 * tau)
        xT, _ = mc_flows(field, 100_000, None, 0.0, t_end, 2e-3 if field is translate else 1e-3, SEED,
                         threads=THREADS)
        rep = weak_error(sol, xT, phis, fp_coarse=coarse)
        assert rep.max_discrepancy <= 3.0 * rep.max_combined_bar(), field.name
        weak_msgs.append(f"{field.name}: {rep.max_discrepancy:.2e}")

    # factorization of the evolved density through the flow weights
    grid0 = FPGrid.gaussian(1, 8.0, 0.05)
    sol = fp_solve(translate, grid0, 0.0, 0.25, 1e-3)
    sampler = GridSampler1D(grid0)
    x0 = sampler.sample(1_000_000, SEED)
    ens, rec = run_density_ensemble(translate, 0.0, 0.25, x0, 1e-3, SEED, threads=THREADS)
    frep = density_factorization(sol, sampler, x0, ens.xT, rec)
    assert frep.l1_discrepancy <= 5e-2
    print(f"PASS criterion-8: heat variance err {var_err:.2e} <= 1%, weak errors "
          + ", ".join(weak_msgs) + f", factorization L1 {frep.l1_discrepancy:.3f} <= 0.05")


def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "suite.ini"
    cfg.write_text(
        "[lp]\n"
        "kind = density_bound\nfield = translate\nd = 1\nt = 0.1\ndt = 0.002\n"
        "trajectories = 5000\np_list = 1.5, 2\nseed = 42\n\n"
        "[couple]\n"
        "kind = coupling\nfield = sign_drift\nd = 1\nt = 0.25\ndt = 0.005\n"
        "trajectories = 400\nn_list = 4, 8\nn_ref = 16\nseed = 42\n\n"
        "[occupation]\n"
        "kind = krylov\nfield = translate\nd = 1\nt = 0.5\ndt = 0.005\n"
        "trajectories = 2000\nseed = 42\n"
    )
    outs = []
    for threads in ("1", "7"):
        out = tmp_path / f"out_{threads}"
        res = subprocess.run(
            [sys.executable, "-m", "flowlab.cli", "run", str(cfg),
             "--out", str(out), "--threads", threads],
            capture_output=True, text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    for name in names:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, name
    print(f"PASS criterion-9: {len(names)} report files byte-identical at worker counts 1 and 7")
