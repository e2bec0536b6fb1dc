"""Experiment executors behind the CLI.

Each executor maps an ``ExperimentConfig`` to report rows plus optional
detail tables.  Pass/fail on every checked row follows one documented rule:
value <= bound + 3 * stderr.
"""

import math

import numpy as np

from . import oracles
from .config import build_field
from .convergence import SpaceTimeBox, coupling_convergence, krylov_ratios
from .coefficients import RegularizationLevel, regularize, validate_hypotheses
from .density import (
    budget_constants,
    entropy_estimate,
    lp_norm_estimate,
    mass_estimate,
    run_density_ensemble,
    theorem_bound_rhs,
    time_threshold,
)
from .errors import BoundUnavailableError
from .fokker_planck import (
    FPGrid,
    density_factorization,
    fp_solve,
    smooth_bump,
    weak_error,
    write_solution_csv,
)
from .gaussian import default_quadrature
from .oracle_gate import oracle_rows, oracle_suite
from .report import ReportRow


def _quad_for(cfg):
    order = cfg.options.get("quad_order") or None
    return default_quadrature(cfg.options.get("d", 1), order=order)


def run_validate(cfg, seed, threads, out_dir=None):
    field = build_field(cfg)
    rep = validate_hypotheses(field, cfg.horizon, _quad_for(cfg))
    rows = [
        ReportRow(cfg.name, "min_eigenvalue", rep.min_eigenvalue, None,
                  field.c1, rep.ellipticity_ok),
        ReportRow(cfg.name, "growth_ratio", rep.growth_ratio, None,
                  field.growth_const, rep.growth_ok),
        ReportRow(cfg.name, "sigma_T", rep.sigma_T, None, None,
                  not rep.divergent),
        ReportRow(cfg.name, "grad_norm_sup", rep.grad_norm_sup, None, None, None),
    ]
    return rows, {}


def run_density_bound(cfg, seed, threads, out_dir=None):
    field = build_field(cfg)
    quad = _quad_for(cfg)
    ens, rec = run_density_ensemble(
        field, cfg.s, cfg.t, ("gaussian", cfg.trajectories), cfg.dt, seed,
        replicas=cfg.replicas, threads=threads,
    )
    rows = []
    mass = mass_estimate(rec)
    rows.append(ReportRow.checked(cfg.name, "mass_abs_error", abs(mass.value - 1.0), mass.stderr, 0.0))
    for p in cfg.p_list:
        lp = lp_norm_estimate(rec, p)
        try:
            bound = theorem_bound_rhs(field, cfg.s, cfg.t, p, quad)
            rows.append(ReportRow.checked(cfg.name, f"lp_norm(p={p:g})", lp.value, lp.stderr, bound))
        except BoundUnavailableError:
            rows.append(ReportRow(cfg.name, f"lp_norm(p={p:g})", lp.value, lp.stderr, None, None))
            rows.append(ReportRow(cfg.name, f"bound_divergent(p={p:g})", 1.0, None, None, None))
    return rows, {}


def run_entropy_budget(cfg, seed, threads, out_dir=None):
    field = build_field(cfg)
    quad = _quad_for(cfg)
    rows = []
    detail = []
    for n in cfg.n_list:
        reg = regularize(field, RegularizationLevel(n), quad)
        tau = min(time_threshold(reg), cfg.horizon)
        steps = max(4, int(math.ceil(tau / cfg.dt)))
        dt = tau / steps
        budget = budget_constants(reg, tau, quad)
        _, rec = run_density_ensemble(
            reg, 0.0, tau, ("gaussian", cfg.trajectories), dt, seed, threads=threads,
        )
        ent = entropy_estimate(rec)
        mass = mass_estimate(rec)
        rows.append(ReportRow.checked(
            cfg.name, f"entropy(n={n})", ent.value, ent.stderr, budget.entropy_bound_limit))
        rows.append(ReportRow.checked(
            cfg.name, f"mass_abs_error(n={n})", abs(mass.value - 1.0), mass.stderr, 0.0))
        detail.append((n, tau, ent.value, ent.stderr, budget.entropy_bound_limit,
                       budget.T0, budget.Lambda_T0, budget.C1, budget.C2))
    details = {"budget": (
        ("n", "tau", "entropy", "stderr", "bound", "T0", "Lambda_T0", "C1", "C2"), detail)}

    # dt-stability of the entropy for the raw (unregularized) field
    tau = min(time_threshold(field), cfg.horizon)
    steps = max(4, int(math.ceil(tau / cfg.dt)))
    vals = []
    for refine in (1, 2):
        dt = tau / (steps * refine)
        _, rec = run_density_ensemble(
            field, 0.0, tau, ("gaussian", cfg.trajectories), dt, seed, threads=threads)
        vals.append(entropy_estimate(rec))
    drift = abs(vals[1].value - vals[0].value)
    tol = 0.1 * max(vals[0].value, 1e-12) + 3.0 * (vals[0].stderr + vals[1].stderr)
    rows.append(ReportRow(cfg.name, "entropy_dt_stability", drift, None, tol, drift <= tol))
    return rows, details


def run_coupling(cfg, seed, threads, out_dir=None):
    field = build_field(cfg)
    quad = _quad_for(cfg)
    rep = coupling_convergence(
        field, list(cfg.n_list), cfg.n_ref, cfg.s, cfg.t,
        np.zeros((1, field.d)), cfg.dt, seed, quad,
        replicas=cfg.trajectories, threads=threads,
    )
    rows = []
    n_steps = len(cfg.n_list) - 1
    rows.append(ReportRow(cfg.name, "monotone_steps", float(rep.monotone_steps), None,
                          None, rep.monotone_steps >= n_steps - 1))
    # the 1/3 contraction target presumes a ladder spanning a factor >= 16;
    # short ladders report the ratio without a pass/fail verdict
    wide = cfg.n_list[-1] >= 16 * cfg.n_list[0]
    rows.append(ReportRow(cfg.name, "final_over_first", rep.final_over_first, None,
                          1.0 / 3.0 if wide else None,
                          rep.final_over_first <= 1.0 / 3.0 if wide else None))
    table = [(n, est.value, est.stderr) for n, est in rep.rows()]
    return rows, {"deviations": (("n", "deviation", "stderr"), table)}


def run_krylov(cfg, seed, threads, out_dir=None):
    field = build_field(cfg)
    lam = cfg.lambda_discount
    # the slabs and the translate unit box are read off one shared ensemble
    boxes = [SpaceTimeBox(t0=cfg.s, t1=cfg.t, lo=(0.0,) * field.d, hi=(width,) + (1.0,) * (field.d - 1))
             for width in cfg.slab_widths]
    if cfg.field == "translate":
        boxes.append(SpaceTimeBox(t0=0.0, t1=1.0, lo=(0.0,) * field.d, hi=(1.0,) * field.d))
    reps = krylov_ratios(field, boxes, lam, cfg.s, cfg.t, np.zeros(field.d),
                         cfg.dt, seed, cfg.trajectories, threads=threads)
    rows = []
    table = []
    baseline = None
    for width, rep in zip(cfg.slab_widths, reps):
        if baseline is None:
            baseline = rep.ratio
        table.append((width, rep.functional.value, rep.functional.stderr, rep.norm, rep.ratio))
        rows.append(ReportRow(cfg.name, f"slab_ratio(w={width:g})", rep.ratio, None,
                              10.0 * baseline, rep.ratio <= 10.0 * baseline))
    if cfg.field == "translate":
        rep = reps[-1]
        oracle = oracles.krylov_translate_functional(0.0, lam, cfg.t - cfg.s)
        # dt/2 is the first-order allowance of the left-endpoint time rule
        rows.append(ReportRow.checked(
            cfg.name, "cdf_instance_abs_error",
            abs(rep.functional.value - oracle), rep.functional.stderr, cfg.dt / 2.0))
    return rows, {"slabs": (("width", "functional", "stderr", "norm", "ratio"), table)}


def run_fokker_planck(cfg, seed, threads, out_dir=None):
    field = build_field(cfg)
    grid0 = FPGrid.gaussian(field.d, cfg.grid_R, cfg.grid_h)
    tau = cfg.grid_tau
    sol = fp_solve(field, grid0, cfg.s, cfg.t, tau, n_frames=4)
    rows = []
    ledger = abs((grid0.mass() - sol.total_leakage + sol.total_clipped) - sol.grid.mass())
    rows.append(ReportRow(cfg.name, "mass_audit_residual", sol.audit_residual, None,
                          1e-10, sol.audit_residual <= 1e-10))
    rows.append(ReportRow(cfg.name, "mass_ledger_residual", ledger, None, 1e-9, ledger <= 1e-9))

    if cfg.field == "translate":
        target = oracles.heat_variance(cfg.t - cfg.s)
        err = abs(sol.grid.variance() - target)
        rows.append(ReportRow(cfg.name, "heat_variance_abs_error", err, None,
                              0.01 * target, err <= 0.01 * target))

    coarse_grid = FPGrid.gaussian(field.d, cfg.grid_R, 2 * cfg.grid_h)
    sol_coarse = fp_solve(field, coarse_grid, cfg.s, cfg.t, 4 * tau)
    centers = (-2.0, -1.0, 0.0, 1.0, 2.0)
    phis = [smooth_bump(c, 1.5) for c in centers]
    wrep = weak_error(sol, field, ("gaussian", cfg.trajectories), phis, cfg.s, cfg.t,
                      cfg.dt, seed, threads=threads, fp_coarse=sol_coarse)
    bar = wrep.max_combined_bar()
    rows.append(ReportRow(cfg.name, "weak_error_max", wrep.max_discrepancy, None,
                          3.0 * bar, wrep.max_discrepancy <= 3.0 * bar))
    details = {
        "grid": (("mass", "leakage", "variance"),
                 [(sol.grid.mass(), sol.total_leakage, sol.grid.variance())]),
        "weak": (("center", "fp_value", "fp_error", "mc_value", "mc_stderr"),
                 [(c, fv, fe, mc.value, mc.stderr)
                  for c, (_, fv, fe, mc) in zip(centers, wrep.rows())]),
    }

    if cfg.factorization_samples:
        frep = density_factorization(field, grid0, sol, cfg.s, cfg.t,
                                     cfg.factorization_samples, cfg.dt, seed, threads=threads)
        rows.append(ReportRow(cfg.name, "factorization_l1", frep.l1_discrepancy, None,
                              5e-2, frep.l1_discrepancy <= 5e-2))
        rows.append(ReportRow(cfg.name, "factorization_flagged_mass", frep.flagged_mass,
                              None, None, None))
        details["factorization"] = (("valid_cells", "flagged_cells"),
                                    [(frep.n_valid_cells, frep.n_flagged_cells)])
    if out_dir is not None:
        write_solution_csv(sol, f"{out_dir}/{cfg.name}_solution.csv")
    return rows, details


def run_oracle_suite(cfg, seed, threads, out_dir=None):
    return oracle_rows(cfg.name, oracle_suite())


EXECUTORS = {
    "validate": run_validate,
    "density_bound": run_density_bound,
    "entropy_budget": run_entropy_budget,
    "coupling": run_coupling,
    "krylov": run_krylov,
    "fokker_planck": run_fokker_planck,
    "oracle_suite": run_oracle_suite,
}
