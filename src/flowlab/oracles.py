"""Closed-form reference values used by tests and the oracle gate.

Everything here is independent of the simulation code paths it is used to
check: plain Gaussian calculus, special functions, 1d adaptive quadrature,
and direct Monte-Carlo over (x, Δw) streamed in fixed blocks.  The
translate field (σ = Id, b = 0) admits a fully explicit push-forward
density, which drives most of the checks:

    log K(X(x)) = <x, Δw> + |Δw|^2 / 2,      Δw = w_t - w_s,

so that ||K||_{L^p(P x γ_1)} = (1 - p(p-1) τ)^{-1/(2p)} for τ = t - s with
p(p-1) τ < 1.  Its Monte-Carlo summand K^{p-1} has finite variance only
when 2(p-1)(2p-1) τ < 1, a stricter condition.
"""

import math

import numpy as np
from scipy import integrate
from scipy.special import erf, gammaln, ndtr


def gaussian_abs_moment(d):
    """M_1 = ∫ |y| dγ_d(y)  (mean of the chi distribution with d dof)."""
    return math.sqrt(2.0) * math.exp(gammaln((d + 1) / 2.0) - gammaln(d / 2.0))


def gaussian_exp_quadratic(a, d=1):
    """∫ exp(a |x|^2) dγ_d = (1 - 2a)^{-d/2} for a < 1/2."""
    if a >= 0.5:
        return math.inf
    return (1.0 - 2.0 * a) ** (-d / 2.0)


def m2_exponential_moment(d=1):
    """M_2 = ∫ exp((1+|x|)^2/4) dγ_d, closed form in d=1, radial quadrature else."""
    if d == 1:
        # 2 e^{1/2} / sqrt(2π) * ∫_0^∞ e^{-(x-1)^2/4} dx = e^{1/2} sqrt(2) (1+erf(1/2)) sqrt(π)/sqrt(2π)
        return math.exp(0.5) * math.sqrt(math.pi) * (1.0 + erf(0.5)) * 2.0 / math.sqrt(2.0 * math.pi)

    def radial(r):
        # chi_d density times the radial integrand, exponents combined first
        log_dens = (d - 1) * math.log(r) - r * r / 2.0 - (d / 2.0 - 1) * math.log(2.0) - gammaln(d / 2.0)
        return math.exp((1.0 + r) ** 2 / 4.0 + log_dens)

    value, _ = integrate.quad(radial, 0.0, 60.0, limit=200)
    return value


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
    """E ∫_0^T e^{-λt} 1_{[0,t1]x[lo,hi]}(t, x + w_t) dt for the translate field."""
    upper = min(T, t1)

    def integrand(t):
        if t <= 0:
            return 1.0 if lo <= x <= hi else 0.0
        rt = math.sqrt(t)
        return math.exp(-lam * t) * (ndtr((hi - x) / rt) - ndtr((lo - x) / rt))

    value, _ = integrate.quad(integrand, 0.0, upper, limit=200)
    return value


def scipy_gaussian_integral(f, lo=-40.0, hi=40.0):
    """1d adaptive quadrature of f against γ_1 (independent of GH rules)."""
    dens = lambda x: f(x) * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    value, _ = integrate.quad(dens, lo, hi, limit=400)
    return value


# (x, Δw) pairs per block of the streamed Monte-Carlo: 1 MB of normals
_MC_BLOCK = 1 << 16


def _translate_mc(seed, stream, tau, n, summand):
    """Mean and standard error of ``summand(log K)`` over n pairs x ~ γ_1, Δw ~ N(0, τ).

    Normals 2i and 2i+1 of the Philox stream keyed [seed, stream] (numpy's
    ziggurat ``standard_normal``) are x_i and Δw_i/√τ, so the samples do not
    depend on the block size.  Each block of log K = x Δw + Δw^2/2 is mapped
    in place by ``summand``, and its mean and centred sum of squares are
    merged into running totals (Chan, Golub and LeVeque, Am. Stat. 37, 1983):
    memory is O(block), and the result equals a one-shot mean and
    ``std(ddof=1)`` of the same samples to rounding.
    """
    if n < 2:
        raise ValueError("need at least two samples for a standard error")
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    pairs = np.empty((min(_MC_BLOCK, n), 2))
    vals = np.empty(pairs.shape[0])
    scale = math.sqrt(tau)
    mean, m2 = 0.0, 0.0
    for lo in range(0, n, _MC_BLOCK):
        k = min(_MC_BLOCK, n - lo)
        block, v = pairs[:k], vals[:k]
        rng.standard_normal(out=block)
        x, dw = block[:, 0], block[:, 1]
        dw *= scale
        np.multiply(x, dw, out=v)
        dw *= dw
        dw /= 2.0
        v += dw
        summand(v)
        block_mean = v.mean()
        v -= block_mean
        total = lo + k
        delta = block_mean - mean
        mean += delta * k / total
        m2 += np.dot(v, v) + delta * delta * lo * k / total
    return mean, np.sqrt(m2 / (n - 1) / n)


def translate_lp_mc(p, tau, n, seed=123):
    """Direct Monte-Carlo of the translate L^p norm (independent of the flow code).

    The mean of K^{p-1} over n streamed pairs (see ``_translate_mc``), so the
    extra memory is one block whatever n.  The summand K^{p-1} has a finite
    variance only when 2(p-1)(2p-1)τ < 1; beyond that the standard error is
    no error bar, and ``ValueError`` is raised.
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
    """P_ε[β sign](x) and its kernel gradient (ρ/s)∫ β sign(ρx + s y) y dγ(y) by adaptive quadrature.

    Each integral is split at the jump y = -ρx/s (independent of the closed form).
    """
    rho = math.exp(-eps)
    s = math.sqrt(1.0 - rho * rho)
    jump = -rho * x / s
    dens = lambda y: math.exp(-y * y / 2.0) / math.sqrt(2.0 * math.pi)

    def signed(g):
        below, _ = integrate.quad(g, -40.0, jump, limit=200, epsabs=1e-14)
        above, _ = integrate.quad(g, jump, 40.0, limit=200, epsabs=1e-14)
        return beta * (above - below)

    return signed(dens), (rho / s) * signed(lambda y: y * dens(y))


def translate_entropy_mc(tau, n, seed=321):
    """Direct Monte-Carlo of E|x Δw + Δw^2/2| under x ~ γ_1, Δw ~ N(0, τ), streamed in blocks."""
    return _translate_mc(seed, 1, tau, n, lambda v: np.abs(v, out=v))
