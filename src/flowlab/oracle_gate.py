"""Dual-computation oracle gate.

Every closed-form value the acceptance checks rely on is recomputed here by
an independent route (the composite Gauss–Legendre rule of
``oracles._legendre_integral``, direct Monte-Carlo, or the PDE solver) and
compared at a stated tolerance.  Any disagreement is a hard failure: it
means an oracle itself is wrong, and no downstream test can be trusted until
it is fixed.  The Gauss–Legendre rule checks itself against twice its panels
and raises ``OracleMismatchError`` when it cannot resolve an integrand.

The one Monte-Carlo check, the translate L^2 norm, streams 5·10^6
antithetic draws (x, Δw) in fixed blocks (``oracles.translate_lp_mc``) and
evaluates K at (x, Δw) and (-x, Δw), 10^7 times in all; it needs about 2 MB
whatever the draw count.  Its tolerance is four standard errors of the
mean of the draws' units, an error bar only where the summand K^{p-1} has
finite variance (2(p-1)(2p-1)τ < 1) and, for the standard error itself to
be stable, a finite fourth moment (4(p-1)(4p-3)τ < 1); a unit's moments are
at most a summand's.  It runs at p = 2, τ = 0.04.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .coefficients import builtin_coefficients
from .density import theorem_bound_rhs
from .errors import OracleMismatchError
from .fokker_planck import FPGrid, fp_solve
from .gaussian import GaussianQuadrature, gauss_expectation, ou_smooth
from .report import ReportRow

__all__ = ["OracleCheck", "oracle_rows", "oracle_suite"]


@dataclass(frozen=True)
class OracleCheck:
    name: str
    value: float
    recomputed: float
    tol: float

    @property
    def passed(self):
        return abs(self.value - self.recomputed) <= self.tol


def oracle_suite():
    """Compute every oracle twice; raise OracleMismatchError on disagreement.

    Returns the list of checks (all passed) so callers can persist or render
    them; acceptance tests consume the values through :mod:`flowlab.oracles`.
    """
    checks = []

    m1 = oracles.gaussian_abs_moment(1)
    m1_quad = oracles.gaussian_integral(np.abs)
    checks.append(OracleCheck("M1_abs_moment", m1, m1_quad, 1e-10))

    m2 = oracles.m2_exponential_moment(1)
    m2_quad = oracles.gaussian_integral(lambda x: np.exp((1 + np.abs(x)) ** 2 / 4.0))
    checks.append(OracleCheck("M2_exp_moment", m2, m2_quad, 1e-9))

    gq = GaussianQuadrature.gauss_hermite(1, 64)
    exp_quad = float(gauss_expectation(lambda x: np.exp(0.25 * x[:, 0] ** 2), gq))
    checks.append(
        OracleCheck("gauss_exp_quadratic", oracles.gaussian_exp_quadratic(0.25), exp_quad, 1e-8)
    )

    ou_val = float(ou_smooth(lambda p: p[:, 0] ** 2, math.log(2.0), np.array([2.0]), gq))
    checks.append(OracleCheck("ou_second_moment", 1.75, ou_val, 1e-10))

    # P_ε of the sign drift, the field every d = 1 regularization table smooths
    eps, x = 1.0 / 8.0, 0.3
    sign_quad, sign_grad_quad = oracles.smoothed_sign_quad(1.0, eps, x)
    checks.append(OracleCheck("smoothed_sign", float(oracles.smoothed_sign(1.0, eps, x)), sign_quad, 1e-10))
    checks.append(
        OracleCheck("smoothed_sign_grad", float(oracles.smoothed_sign_grad(1.0, eps, x)), sign_grad_quad, 1e-10)
    )

    # p = 2, τ = 0.04: 2(p-1)(2p-1)τ = 0.24 and 4(p-1)(4p-3)τ = 0.8, both below 1
    lp_formula = oracles.translate_lp_norm(2.0, 0.04)
    lp_mc, lp_se = oracles.translate_lp_mc(2.0, 0.04, 5_000_000)
    checks.append(OracleCheck("translate_L2_norm", lp_formula, lp_mc, 4.0 * lp_se))

    grid = FPGrid.gaussian(1, 8.0, 0.05)
    heat = fp_solve(builtin_coefficients("translate", d=1), grid, 0.0, 1.0, 1e-3)
    checks.append(
        OracleCheck("heat_kernel_variance", oracles.heat_variance(1.0), heat.grid.variance(),
                    0.01 * oracles.heat_variance(1.0))
    )

    bound_closed = oracles.translate_bound_rhs(2.0, 0.1)
    bound_quad = theorem_bound_rhs(builtin_coefficients("translate", d=1), 0.0, 0.1, 2.0, gq)
    checks.append(OracleCheck("translate_bound_rhs", bound_closed, bound_quad, 1e-6))

    failures = [c for c in checks if not c.passed]
    if failures:
        detail = "; ".join(
            f"{c.name}: {c.value!r} vs {c.recomputed!r} (tol {c.tol:g})" for c in failures
        )
        raise OracleMismatchError(f"oracle disagreement: {detail}")
    return checks


def oracle_rows(experiment, checks):
    """Report rows and detail table of the checks.

    Each row is the discrepancy |value - recomputed| checked against the
    tolerance as its bound; the ``checks`` table keeps the two values and
    the tolerance.
    """
    rows = [ReportRow.checked(experiment, c.name, abs(c.value - c.recomputed), None, c.tol) for c in checks]
    table = [(c.name, c.value, c.recomputed, c.tol) for c in checks]
    return rows, {"checks": (("quantity", "value", "recomputed", "tol"), table)}
