"""Push-forward density weights along the flow and the quantitative bounds.

For a smooth non-degenerate field the reference Gaussian measure is left
absolutely continuous by the flow, with an explicit exponential density for
the inverse-flow push-forward:

    log K~_{s,t}(x) = - ∫_s^t <δ(σ_u)(X_u), dw_u> - ∫_s^t Φ_u(X_u) du,
    Φ_u = δ(b_u) + (1/2)||σ_u||^2 + (1/2) Σ_j <∇σ_u^{.j}, (∇σ_u^{.j})*>,

accumulated here with left-endpoint (Ito) evaluation along Euler paths by a
``simulate_ensemble`` accumulator, which reads each step's coefficient
bundle from the Euler step itself: σ and b are evaluated once per step.  The
forward density K is never computed by inverting the flow: the identity
K(X_{s,t}(x)) = K~_{s,t}(x)^{-1} is read at the push-forward sample points,
so every statistic below is an expectation over (x, ω) with x ~ γ_d.

All density statistics run in log space with max-shifted accumulation, and
their error bars come from trajectory-level batching (√n batches).
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import HYPOTHESIS_TGRID, LOG_CAP, _hypothesis_integral
from .errors import BoundUnavailableError, ConfigError
from .gaussian import MAX_GH_ORDER, logsumexp, refined_quadrature, spacetime_log_integral
from .oracles import gaussian_abs_moment, m2_exponential_moment
from .sde import MAX_STEPS, simulate_ensemble

__all__ = [
    "BoundBudget",
    "DensityAccumulator",
    "Estimate",
    "batch_statistic",
    "budget_constants",
    "entropy_estimate",
    "entropy_steps",
    "lp_norm_estimate",
    "mass_estimate",
    "mean_estimate",
    "pushforward_logK",
    "run_density_ensemble",
    "theorem_bound_rhs",
    "time_threshold",
]


def pushforward_logK(record):
    """log K_{s,t} at the trajectory endpoints, i.e. -log K~ (no flow inversion)."""
    return record.S + record.D


class DensityAccumulator:
    """Streaming per-step accumulation of S and D from each step's coefficient bundle.

    S and D are the stochastic and drift terms per trajectory: log K~ = -S - D,
    and log K at the push-forward point X_{s,t}(x) is S + D.
    """

    def __init__(self, dt):
        self.dt = dt
        self.S = None
        self.D = None

    def alloc(self, n_traj, zeros):
        self.S = zeros(n_traj)
        self.D = zeros(n_traj)

    def step(self, sl, k, t, X, dW, ev, X_next):
        self.S[sl] += np.einsum("nm,nm->n", ev.delta_sigma, dW)
        self.D[sl] += ev.phi * self.dt

    @property
    def log_ktilde(self):
        return -(self.S + self.D)


def run_density_ensemble(field, s, T, initials, dt, seed, replicas=1, threads=1):
    """Simulate an ensemble; returns it with its ``DensityAccumulator``, the density record."""
    acc = DensityAccumulator(dt)
    ens = simulate_ensemble(
        field, s, T, initials, dt, seed,
        replicas=replicas, threads=threads, accumulators=(acc,),
    )
    return ens, acc


# ---------------------------------------------------------------------------
# ensemble statistics with batched error bars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float


def batch_statistic(values, stat):
    """Estimate with a √n-batch standard error for a (nonlinear) statistic."""
    values = np.asarray(values)
    n = values.shape[0]
    if n == 0:
        raise ValueError("empty ensemble")
    n_batches = max(2, int(math.isqrt(n)))
    parts = np.array_split(values, n_batches)
    batch_vals = np.array([stat(p) for p in parts])
    return Estimate(value=float(stat(values)), stderr=float(batch_vals.std(ddof=1) / math.sqrt(n_batches)))


def mean_estimate(values):
    """Batched-stderr estimate of the mean of ``values``."""
    return batch_statistic(np.asarray(values, dtype=float), lambda v: float(np.mean(v)))


def _log_mean_exp(a):
    return logsumexp(a) - math.log(len(a))


def lp_norm_estimate(records, p):
    """||K_{s,t}||_{L^p(P x γ_d)} estimated from a γ_d-start ensemble.

    Uses ∫ E[K^p] dγ = E_{x,ω}[K~^{1-p}], computed in log space.
    """
    if p <= 1:
        raise ValueError("need p > 1")
    lk = records.log_ktilde

    def stat(vals):
        return math.exp(_log_mean_exp((1.0 - p) * vals) / p)

    return batch_statistic(lk, stat)


def entropy_estimate(records):
    """∫ E[K |log K|] dγ estimated as the mean of |log K| at push-forward points."""
    return mean_estimate(np.abs(pushforward_logK(records)))


def mass_estimate(records):
    """Mean of K~ over (x, ω); equals 1 in the continuum (mass identity)."""
    lk = records.log_ktilde
    return batch_statistic(lk, lambda v: math.exp(_log_mean_exp(v)))


# ---------------------------------------------------------------------------
# a-priori bounds
# ---------------------------------------------------------------------------

# time nodes of the L^p bound's trapezoid sum on [s, t] (``theorem_bound_rhs``)
BOUND_TGRID = 33


def _pow2(k):
    """2**k as a float, +inf beyond double range (handled downstream)."""
    return math.inf if k > 1023 else float(2**k)


def _bound_log_average(field, s, t, p, quad, times):
    tau = t - s
    evs = (field.evaluate(u, quad.nodes) for u in times)
    log_integral, peak = spacetime_log_integral((
        p * tau * (2.0 * np.abs(ev.delta_b) + ev.hs2 + ev.grad_hs2 + 2.0 * (p - 1.0) * ev.delta_sigma2)
        for ev in evs
    ), times, quad)
    if peak > LOG_CAP:
        raise BoundUnavailableError(
            f"bound integrand exceeds exp({LOG_CAP}) at scale p(t-s)={p * tau:g}"
        )
    return log_integral - math.log(tau)


def theorem_bound_rhs(field, s, t, p, quad):
    """The L^p a-priori bound on ||K_{s,t}||, by log-space quadrature.

    [(1/(t-s)) ∫_s^t ∫ exp(p(t-s)[2|δ(b_u)| + ||σ_u||^2 + ||∇σ_u||^2
    + 2(p-1)|δ(σ_u)|^2]) dγ_d du]^{(p-1)/(p(2p-1))}.

    The time integral is a trapezoid sum on ``BOUND_TGRID`` nodes.  Raises
    ``BoundUnavailableError`` when the integrability precondition at scale
    p(t-s) fails: either the log accumulation exceeds ``LOG_CAP`` or the
    integral moves by more than 0.1 in log value under order-doubling of the
    rule (a divergent Gaussian integral keeps growing with quadrature order
    instead of converging).
    """
    if p <= 1:
        raise ValueError("need p > 1")
    tau = t - s
    if tau < 0:
        raise ValueError("need t >= s")
    if tau == 0:
        return 1.0
    times = np.linspace(s, t, BOUND_TGRID)
    log_avg = _bound_log_average(field, s, t, p, quad, times)
    fine = refined_quadrature(quad, 2, MAX_GH_ORDER)
    if fine is not quad:
        log_avg_fine = _bound_log_average(field, s, t, p, fine, times)
        if abs(log_avg_fine - log_avg) > 0.1:
            raise BoundUnavailableError(
                f"integral not converged under order-doubling at scale p(t-s)={p * tau:g}"
            )
        log_avg = log_avg_fine
    return math.exp(log_avg * (p - 1.0) / (p * (2.0 * p - 1.0)))


@dataclass(frozen=True)
class BoundBudget:
    """Constants of the entropy budget for a field on horizon T.

    ``entropy_bound`` is 2 C1 T^{1/2} Λ + C2 T Λ^2; ``entropy_bound_limit``
    adds the 2/e term carried by the limiting density.
    """

    T: float
    Sigma_T: float
    M1: float
    M2: float
    T0: float
    Lambda_T0: float
    N_tilde: int
    C1: float
    C2: float

    @property
    def entropy_bound(self):
        return 2.0 * self.C1 * math.sqrt(self.T) * self.Lambda_T0 + self.C2 * self.T * self.Lambda_T0**2

    @property
    def entropy_bound_limit(self):
        return self.entropy_bound + 2.0 * math.exp(-1.0)


def _spacetime_power_norm(f, times, quad, q):
    """[∫_0^T ∫ f^q dγ_d dt]^{1/q} in shifted log space; exact for huge q.

    ``f`` holds the values at (time, node), shape (len(times), n_nodes).
    For q beyond float range the value degrades gracefully to the essential
    sup of f over the sample set, which is the q -> ∞ limit of the norm on
    the discrete rule.
    """
    logf = np.log(np.maximum(f, 1e-300))
    peak = logf.max()
    if peak <= math.log(1e-300):
        return 0.0
    diff = logf - peak
    scaled = np.where(diff == 0.0, 0.0, q * diff)
    total, _ = spacetime_log_integral(scaled, times, quad)
    correction = total / q if math.isfinite(q) else 0.0
    return math.exp(peak + correction)


def time_threshold(field):
    """The short-horizon scale T0 = 1/(112 L (1+L)) ∧ λ/(8 e^2) of the bounds."""
    L = field.growth_const
    return min(1.0 / (112.0 * L * (1.0 + L)), field.exp_const / (8.0 * math.e**2))


def entropy_steps(field, horizon, dt):
    """τ = min(T0, horizon) and the max(4, ⌈τ/dt⌉) steps the entropy budget runs on [0, τ].

    Its dt-stability check runs twice as many, so a count past MAX_STEPS / 2
    raises ``ConfigError`` (compared before rounding, so an overflowing τ/dt
    is refused too).
    """
    tau = min(time_threshold(field), horizon)
    if not 2 * tau / dt <= MAX_STEPS:
        raise ConfigError(f"the entropy budget on [0, {tau:g}] needs more than {MAX_STEPS} steps")
    return tau, max(4, math.ceil(tau / dt))


def budget_constants(field, T, quad, tgrid=HYPOTHESIS_TGRID):
    """Every constant of the entropy budget, from quadrature and closed forms.

    T0 = 1/(112 L_T (1+L_T)) ∧ λ_T/(8 e^2);  Λ_{T0} = (M2 Σ_T / T0)^{1/12};
    C1 and C2 are the 2^{N+1}- and 2^N-power space-time Gaussian norms of
    ||σ|| + e|δ(σ)| and |b| + e|δ(b)| + (3/2)||σ||^2 + ||∇σ||^2.
    """
    T0 = time_threshold(field)
    M1 = gaussian_abs_moment(field.d)
    M2 = m2_exponential_moment(field.d)

    times = np.linspace(0.0, T, tgrid)
    values = [field.evaluate(u, quad.nodes) for u in times]
    sigma_T = _hypothesis_integral(values, times, field.exp_const, quad)

    log_lambda = (math.log(M2) + math.log(sigma_T) - math.log(T0)) / 12.0
    if log_lambda > LOG_CAP:
        raise BoundUnavailableError("Lambda_T0 overflows; budget unavailable")
    lam_T0 = math.exp(log_lambda)
    n_tilde = max(1, math.ceil(T / T0))
    q1 = _pow2(n_tilde + 1)
    q2 = _pow2(n_tilde)

    e = math.e
    f1 = np.array([np.sqrt(ev.hs2) + e * np.sqrt(ev.delta_sigma2) for ev in values])
    f2 = np.array([
        np.linalg.norm(ev.b, axis=-1) + e * np.abs(ev.delta_b) + 1.5 * ev.hs2 + ev.grad_hs2
        for ev in values
    ])
    C1 = _spacetime_power_norm(f1, times, quad, q1)
    C2 = _spacetime_power_norm(f2, times, quad, q2)

    return BoundBudget(T=T, Sigma_T=sigma_T, M1=M1, M2=M2, T0=T0, Lambda_T0=lam_T0, N_tilde=n_tilde,
                       C1=C1, C2=C2)
