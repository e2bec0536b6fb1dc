"""Closed-form reference values used by tests and the oracle gate.

Everything here is independent of the simulation code paths it is used to
check: plain Gaussian calculus, special functions, a composite Gauss–Legendre
rule with an order-doubling check (``_legendre_integral``), and direct
Monte-Carlo over antithetic draws, (x, Δw) beside (-x, Δw), streamed in
fixed blocks.  The translate field (σ = Id, b = 0) admits a fully explicit
push-forward density, which drives most of the checks:

    log K(X(x)) = <x, Δw> + |Δw|^2 / 2,      Δw = w_t - w_s,

so that ||K||_{L^p(P x γ_1)} = (1 - p(p-1) τ)^{-1/(2p)} for τ = t - s with
p(p-1) τ < 1.  Its Monte-Carlo summand K^{p-1} has finite variance only
when 2(p-1)(2p-1) τ < 1, a stricter condition.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import erf, gammaln, ndtr

from .errors import OracleMismatchError

# nodes per panel and equal panels per segment of ``_legendre_integral``
_GL_ORDER = 32
_GL_PANELS = 64


@lru_cache(maxsize=1)
def _legendre_nodes():
    """Gauss–Legendre nodes and weights of order ``_GL_ORDER`` on [-1, 1], built on first use."""
    return np.polynomial.legendre.leggauss(_GL_ORDER)


def _panel_sum(f, breaks, panels):
    """Composite Gauss–Legendre sum of f with ``panels`` equal panels per segment of ``breaks``."""
    nodes, weights = _legendre_nodes()
    breaks = np.asarray(breaks, dtype=float)
    edges = np.linspace(breaks[:-1], breaks[1:], panels + 1, axis=-1)  # (segments, panels + 1)
    mid = (edges[:, 1:] + edges[:, :-1]) / 2.0
    half = (edges[:, 1:] - edges[:, :-1]) / 2.0
    values = f(mid[..., None] + half[..., None] * nodes)  # one call on every node
    return float(np.sum(half[..., None] * weights * values))


def _legendre_integral(f, breaks):
    """∫ f over [breaks[0], breaks[-1]] by a composite Gauss–Legendre rule.

    Each segment between consecutive breakpoints is cut into ``_GL_PANELS``
    equal panels of ``_GL_ORDER`` nodes, so every kink or jump of f must be a
    breakpoint.  f takes an array of points and is called once per rule.  The
    sum is repeated with twice the panels, and ``OracleMismatchError`` is
    raised when the two differ by more than 1e-13·max(1, |value|): f is not
    resolved.  Returns the finer sum.
    """
    coarse = _panel_sum(f, breaks, _GL_PANELS)
    fine = _panel_sum(f, breaks, 2 * _GL_PANELS)
    if abs(fine - coarse) > 1e-13 * max(1.0, abs(fine)):
        raise OracleMismatchError(
            f"Gauss-Legendre rule unresolved on breakpoints {list(breaks)}: "
            f"{_GL_PANELS} panels give {coarse!r}, {2 * _GL_PANELS} give {fine!r}"
        )
    return fine


def gaussian_abs_moment(d):
    """M_1 = ∫ |y| dγ_d(y)  (mean of the chi distribution with d dof)."""
    return math.sqrt(2.0) * math.exp(gammaln((d + 1) / 2.0) - gammaln(d / 2.0))


def gaussian_exp_quadratic(a, d=1):
    """∫ exp(a |x|^2) dγ_d = (1 - 2a)^{-d/2} for a < 1/2."""
    if a >= 0.5:
        return math.inf
    return (1.0 - 2.0 * a) ** (-d / 2.0)


def m2_exponential_moment(d=1):
    """M_2 = ∫ exp((1+|x|)^2/4) dγ_d, closed form in d=1, radial Gauss–Legendre on [0, 60] else."""
    if d == 1:
        # 2 e^{1/2} / sqrt(2π) * ∫_0^∞ e^{-(x-1)^2/4} dx = e^{1/2} sqrt(2) (1+erf(1/2)) sqrt(π)/sqrt(2π)
        return math.exp(0.5) * math.sqrt(math.pi) * (1.0 + erf(0.5)) * 2.0 / math.sqrt(2.0 * math.pi)

    def radial(r):
        # chi_d density times the radial integrand, exponents combined first
        log_dens = (d - 1) * np.log(r) - r * r / 2.0 - (d / 2.0 - 1) * math.log(2.0) - gammaln(d / 2.0)
        return np.exp((1.0 + r) ** 2 / 4.0 + log_dens)

    return _legendre_integral(radial, (0.0, 60.0))


def translate_lp_norm(p, tau):
    """||K||_{L^p(P x γ_1)} for the translate field at horizon τ."""
    c = p * (p - 1) * tau
    if c >= 1.0:
        return math.inf
    return (1.0 - c) ** (-1.0 / (2.0 * p))


def translate_bound_rhs(p, tau, d=1):
    """The L^p a-priori bound evaluated in closed form for the translate field.

    Integrand exponent p τ [0 + d + 0 + 2(p-1)|x|^2]; the Gaussian integral is
    (1 - 4 p (p-1) τ)^{-d/2}; outer exponent (p-1)/(p(2p-1)).
    """
    c = 2.0 * p * (p - 1) * tau
    if 2.0 * c >= 1.0:
        return math.inf
    inner = math.exp(p * tau * d) * (1.0 - 2.0 * c) ** (-d / 2.0)
    return inner ** ((p - 1.0) / (p * (2.0 * p - 1.0)))


def ou_pushforward_variance(a, tau):
    """Var of the OU flow value at time τ started from x ~ N(0,1), σ = 1."""
    decay = math.exp(-2.0 * a * tau)
    return decay + (1.0 - decay) / (2.0 * a)


def heat_variance(t):
    """Variance of the heat evolution of γ_1 (translate field) at time t."""
    return 1.0 + t


def ou_exact_log_density(a, tau, x0, x_end):
    """Per-path log K~ for the 1d OU field given the realized endpoint.

    For a fixed noise realization the flow is affine, X(x) = α x + g with
    α = e^{-aτ}, so the push-forward of γ_1 under the inverse flow is
    N(-g/α, 1/α^2) and log K~(x) = log α - X(x)^2/2 + x^2/2.
    """
    alpha = math.exp(-a * tau)
    return math.log(alpha) - x_end**2 / 2.0 + x0**2 / 2.0


def krylov_translate_functional(x, lam, T, lo=0.0, hi=1.0, t1=1.0):
    """E ∫_0^T e^{-λt} 1_{[0,t1]x[lo,hi]}(t, x + w_t) dt for the translate field, by Gauss–Legendre."""
    upper = min(T, t1)

    def integrand(t):
        rt = np.sqrt(t)
        return np.exp(-lam * t) * (ndtr((hi - x) / rt) - ndtr((lo - x) / rt))

    # the integrand varies on the time scales 1/|λ|, (x - lo)^2 and (hi - x)^2:
    # the breakpoints halve toward 0 until the first segment is within the smallest
    scale = min([1.0 / abs(lam) if lam else math.inf] + [(e - x) ** 2 for e in (lo, hi) if e != x])
    halvings = math.ceil(math.log2(upper / scale)) if upper > scale else 0
    return _legendre_integral(integrand, [0.0] + [upper * 2.0**-k for k in range(halvings, -1, -1)])


def gaussian_integral(f):
    """∫ f dγ_1 over [-40, 40] by the Gauss–Legendre rule split at 0 (independent of GH rules).

    f takes an array of points; it may have a kink or jump at 0.
    """
    return _legendre_integral(lambda x: f(x) * np.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi), (-40.0, 0.0, 40.0))


# (x, Δw) draws per block of the streamed Monte-Carlo: 1 MB of normals
_MC_BLOCK = 1 << 16


def _translate_mc(seed, stream, tau, n, summand):
    """Mean and standard error of the antithetic ``summand(log K)`` over n draws x ~ γ_1, Δw ~ N(0, τ).

    Normals 2i and 2i+1 of the Philox stream keyed [seed, stream] (numpy's
    ziggurat ``standard_normal``) are x_i and Δw_i/√τ, so the draws do not
    depend on the block size.  Each draw is evaluated at x and at -x
    (antithetic variates, Hammersley and Morton 1956): ``summand`` maps both
    log K = ±x Δw + Δw^2/2 of a block in place, on one (2, k) view, and the
    draw's unit is the mean of its two summands.  The flip keeps the law of
    (x, Δw), so the units' mean is unbiased, and a unit's variance is at most
    one summand's.  Each block's mean and centred sum of squares of the units
    are merged into running totals (Chan, Golub and LeVeque, Am. Stat. 37,
    1983): memory is O(block), and the result equals a one-shot mean and
    ``std(ddof=1)`` of the same units to rounding.
    """
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    normals = np.empty((min(_MC_BLOCK, n), 2))
    vals = np.empty(2 * normals.shape[0])
    scale = math.sqrt(tau)
    mean, m2 = 0.0, 0.0
    for lo in range(0, n, _MC_BLOCK):
        k = min(_MC_BLOCK, n - lo)
        block, both = normals[:k], vals[: 2 * k].reshape(2, k)
        v, flipped = both
        rng.standard_normal(out=block)
        x, dw = block[:, 0], block[:, 1]
        dw *= scale
        np.multiply(x, dw, out=v)
        dw *= dw
        dw /= 2.0
        np.subtract(dw, v, out=flipped)
        v += dw
        summand(both)
        v += flipped
        v /= 2.0
        block_mean = v.mean()
        v -= block_mean
        total = lo + k
        delta = block_mean - mean
        mean += delta * k / total
        m2 += np.dot(v, v) + delta * delta * lo * k / total
    return mean, np.sqrt(m2 / (n - 1) / n)


def translate_lp_mc(p, tau, n, seed=123):
    """Direct Monte-Carlo of the translate L^p norm (independent of the flow code).

    The mean of K^{p-1} over n streamed antithetic draws (see
    ``_translate_mc``), 2n evaluations of K from 2n normals, so the extra
    memory is one block whatever n.  The summand K^{p-1} has a finite
    variance only when 2(p-1)(2p-1)τ < 1; beyond that the standard error is
    no error bar, and ``ValueError`` is raised.  A unit's variance is at
    most a summand's, so it is finite under the same condition.
    """
    if 2.0 * (p - 1.0) * (2.0 * p - 1.0) * tau >= 1.0:
        raise ValueError(
            f"K^(p-1) has infinite variance at p={p:g}, tau={tau:g}: need 2(p-1)(2p-1)tau < 1"
        )

    def k_power(v):
        v *= p - 1.0
        np.exp(v, out=v)

    mean, stderr = _translate_mc(seed, 0, tau, n, k_power)
    return mean ** (1.0 / p), stderr * (mean ** (1.0 / p - 1.0)) / p


def smoothed_sign(beta, eps, x):
    """P_ε[β sign](x) = β (2Φ(ρx/s) - 1), ρ = e^{-ε}, s = sqrt(1 - ρ^2)."""
    rho = math.exp(-eps)
    s = math.sqrt(1.0 - rho * rho)
    return beta * (2.0 * ndtr(rho * np.asarray(x, dtype=float) / s) - 1.0)


def smoothed_sign_grad(beta, eps, x):
    """d/dx P_ε[β sign](x) = 2β (ρ/s) φ(ρx/s)."""
    rho = math.exp(-eps)
    s = math.sqrt(1.0 - rho * rho)
    u = rho * np.asarray(x, dtype=float) / s
    return 2.0 * beta * (rho / s) * np.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)


def smoothed_sign_quad(beta, eps, x):
    """P_ε[β sign](x) and its kernel gradient (ρ/s)∫ β sign(ρx + s y) y dγ(y) by Gauss–Legendre.

    Each integral over [-40, 40] is split at the jump y = -ρx/s (independent of
    the closed form).
    """
    rho = math.exp(-eps)
    s = math.sqrt(1.0 - rho * rho)
    jump = -rho * x / s
    dens = lambda y: np.exp(-y * y / 2.0) / math.sqrt(2.0 * math.pi)

    def signed(g):
        return _legendre_integral(lambda y: np.where(y < jump, -beta, beta) * g(y), (-40.0, jump, 40.0))

    return signed(dens), (rho / s) * signed(lambda y: y * dens(y))


def translate_entropy_mc(tau, n, seed=321):
    """Direct Monte-Carlo of E|x Δw + Δw^2/2| under x ~ γ_1, Δw ~ N(0, τ), over n antithetic draws."""
    return _translate_mc(seed, 1, tau, n, lambda v: np.abs(v, out=v))
