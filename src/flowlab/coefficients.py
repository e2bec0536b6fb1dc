"""Time-dependent coefficient pairs (σ, b).

A ``CoefficientField`` bundles the diffusion matrix σ(t, x) in R^{d x m}, the
drift b(t, x) in R^d, optional analytic derivative access, and the growth /
ellipticity / exponential-integrability metadata the bound machinery needs.
All evaluation maps are vectorized over points: ``sigma(t, X)`` takes
X of shape (..., d) and returns (..., d, m).

The built-in fields form ``CATALOG``: one function per field, whose
signature holds its parameters and their defaults (``builtin_coefficients``
checks a call against it, and ``config`` reads the config keys off it).
Every one has a constant σ and is built on ``_constant_noise``, which
derives ∇σ = 0, c1, the growth constant and a zero drift from σ, and
declares σ constant (``CoefficientField.sigma_const``).

The regularization pipeline produces smooth approximations:

* ``regularize_sigma``: x-cutoff times OU smoothing,  σ^n = φ_n · P_{1/n} σ_t;
* ``regularize_drift``: time mollification then OU smoothing,
  b^n_t = P_{1/n}[(b_.(x) * χ_n)(t)], with b extended by zero to t < 0.

Both come with derivative access by one rule: ∇P_ε f is the kernel gradient
of P_ε, so ∇b^n = ∇P_ε[(b_. * χ_n)(t)] and ∇σ^n = ∇φ_n ⊗ P_ε σ + φ_n ∇P_ε σ,
and neither b nor σ is differentiated.  A declared constant σ = A is its
own smoothing: the Ornstein–Uhlenbeck semigroup keeps constants fixed, so
P_ε A = A and ∇P_ε A = 0 exactly, and no table or node is read for it.
Every other P_ε and its kernel gradient come from one route, ``_smoothed``:
in d = 1, for a coefficient that does not depend on time, one table per
level on fixed Mehler nodes, a Hermite interpolant whose exact derivative is
the kernel gradient; elsewhere moving quadrature nodes.  On top of it σ^n
applies φ_n by the product rule at the points off its plateau, and b^n the
ramp ∫_{-∞}^t χ_n of a time-independent drift.  Derivatives come from the
field or from the kernel only: a field that declares no ∇σ or ∇b raises
``CapabilityError`` where one is read, and nothing takes central
differences.
"""

import inspect
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import BoundUnavailableError, CapabilityError
from .gaussian import (TABLE_RADIUS, _delta, logsumexp, ou_smooth, ou_smooth_grad, ou_smooth_stack,
                       ou_smooth_table, refined_quadrature, spacetime_log_integral)
from .oracles import gaussian_abs_moment

__all__ = [
    "CATALOG",
    "CoefficientField",
    "CoefficientValues",
    "HYPOTHESIS_TOL",
    "HypothesisReport",
    "RegularizationLadder",
    "RegularizationLevel",
    "builtin_coefficients",
    "cutoff",
    "cutoff_grad",
    "mollifier_mass_below",
    "regularize",
    "regularize_drift",
    "regularize_sigma",
    "time_mollifier",
    "validate_hypotheses",
]


# ---------------------------------------------------------------------------
# smooth bump, cutoff and time mollifier
# ---------------------------------------------------------------------------

def _bump_raw(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ui * ui))
    return out


@lru_cache(maxsize=1)
def _bump_tables():
    # normalization and cumulative table of the standard bump on [-1, 1]
    x, w = np.polynomial.legendre.leggauss(501)
    norm = float(np.sum(w * _bump_raw(x)))
    grid = np.linspace(-1.0, 1.0, 65537)
    vals = _bump_raw(grid) / norm
    cdf = np.concatenate([[0.0], np.cumsum((vals[1:] + vals[:-1]) / 2.0) * (grid[1] - grid[0])])
    cdf /= cdf[-1]
    return norm, grid, cdf


def _bump(u):
    """Normalized smooth bump: support [-1, 1], unit mass."""
    norm, _, _ = _bump_tables()
    return _bump_raw(u) / norm


def _bump_cdf(u):
    """∫_{-1}^{u} of the normalized bump (0 below -1, 1 above 1)."""
    _, grid, cdf = _bump_tables()
    return np.interp(np.asarray(u, dtype=float), grid, cdf)


def cutoff(n, x):
    """Radial cutoff φ_n: equal to 1 on |x| <= n, 0 on |x| >= n+2, |∇φ_n| <= 1."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(np.atleast_2d(x), axis=-1)
    val = 1.0 - _bump_cdf(r - (n + 1.0))
    return val[0] if x.ndim == 1 else val.reshape(x.shape[:-1])


def cutoff_grad(n, x):
    """Gradient of φ_n; the radial slope is -bump(r-n-1), bounded by 1."""
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    r = np.linalg.norm(pts, axis=-1)
    slope = -_bump(r - (n + 1.0))
    direction = pts / np.maximum(r, 1e-300)[..., None]
    grad = slope[..., None] * direction
    return grad[0] if x.ndim == 1 else grad.reshape(x.shape)


def time_mollifier(n, t):
    """χ_n(t) = n χ(n t): smooth, supported in [-1/n, 1/n], unit mass."""
    return n * _bump(np.asarray(t, dtype=float) * n)


def mollifier_mass_below(n, t):
    """∫_{-∞}^{t} χ_n: the ramp a constant-in-time drift picks up near t = 0.

    Exactly 1.0 for a scalar t with t n >= 1, the value the cumulative table
    holds there, without reading it.
    """
    u = np.asarray(t, dtype=float) * n
    if u.ndim == 0 and u >= 1.0:
        return 1.0
    return _bump_cdf(u)


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientField:
    """Immutable coefficient pair with derivative access and metadata.

    ``sigma_jac(t, X)[..., j, a, b]`` is ∂σ^{aj}/∂x_b (Jacobian of column j);
    ``b_jac(t, X)[..., a, b]`` is ∂b^a/∂x_b.  Either may be None: the field
    then has no such derivative (``sigma_jacobian`` / ``b_jacobian`` raise
    ``CapabilityError``), and a drift without ``b_jac`` is treated as merely
    measurable when regularized.  ``delta_b_fn`` overrides the Gaussian
    divergence of the drift (needed for merely measurable drifts, where the
    a.e. pointwise representative is supplied explicitly).

    ``growth_const`` is the linear-growth constant L_T on the intended
    horizon; ``exp_const`` the declared exponential-integrability constant
    λ_T; ``c1`` the uniform ellipticity constant of σσ* when one is claimed.

    ``sigma_const`` is the d x m array A when σ(t, x) = A everywhere, else
    None.  It is a property of the field, declared by ``_constant_noise``:
    ``regularize_sigma`` then takes P_ε σ = A and ∇P_ε σ = 0 exactly, since
    the Ornstein–Uhlenbeck semigroup keeps constants fixed, and smooths
    nothing.
    """

    d: int
    m: int
    sigma: object
    b: object
    sigma_jac: object = None
    b_jac: object = None
    delta_b_fn: object = None
    c1: float = None
    growth_const: float = 1.0
    exp_const: float = 0.25
    sigma_const: object = None
    sigma_time_dependent: bool = False
    b_time_dependent: bool = False
    name: str = "custom"

    # leading state axes beyond (rows, d): none; a ``RegularizationLadder`` steps (L, rows, d)
    lead = ()

    # -- derivative access ---------------------------------------------------

    def sigma_jacobian(self, t, X):
        """Column Jacobians (..., m, d, d) from ``sigma_jac``; ``CapabilityError`` without one."""
        if self.sigma_jac is None:
            raise CapabilityError(f"diffusion of '{self.name}' declares no Jacobian")
        return np.asarray(self.sigma_jac(t, X), dtype=float)

    def b_jacobian(self, t, X):
        """Drift Jacobian (..., d, d) from ``b_jac``; ``CapabilityError`` without one."""
        if self.b_jac is None:
            raise CapabilityError(f"drift of '{self.name}' declares no Jacobian")
        return np.asarray(self.b_jac(t, X), dtype=float)

    def evaluate(self, t, X):
        """σ and b at (t, X), each map called once; see ``CoefficientValues``."""
        X = np.asarray(X, dtype=float)
        return CoefficientValues(self, t, X, np.asarray(self.sigma(t, X), dtype=float),
                                 np.asarray(self.b(t, X), dtype=float))


@dataclass(frozen=True)
class CoefficientValues:
    """One evaluation of a field at (t, X), and the terms derived from it.

    σ and b are computed with the bundle; they are all the Euler step reads.
    ∇σ, δ(σ_t), δ(b_t) (with ∇b, unless the field declares δ(b)) and the
    derived scalars are computed on first read, for the density weight, the
    L^p bound, the entropy budget and the hypothesis integral, so a plain
    ensemble computes no derivative.
    """

    field: CoefficientField
    t: float
    X: np.ndarray            # (..., d)
    sigma: np.ndarray        # (..., d, m)
    b: np.ndarray            # (..., d)

    @cached_property
    def sigma_jac(self):
        """∇σ, column Jacobians (..., m, d, d)."""
        return self.field.sigma_jacobian(self.t, self.X)

    @cached_property
    def delta_sigma(self):
        """δ(σ_t)(x) in R^m: component j is <σ^{.j}, x> - trace ∇σ^{.j}."""
        return _delta(self.sigma, self.X, self.sigma_jac)

    @cached_property
    def delta_b(self):
        """δ(b_t)(x) = <b, x> - div b, or the field's declared ``delta_b_fn``."""
        if self.field.delta_b_fn is not None:
            return np.asarray(self.field.delta_b_fn(self.t, self.X), dtype=float)
        return _delta(self.b, self.X, self.field.b_jacobian(self.t, self.X))

    @cached_property
    def hs2(self):
        """||σ||^2, the squared Hilbert-Schmidt norm."""
        return np.einsum("...am,...am->...", self.sigma, self.sigma)

    @cached_property
    def grad_hs2(self):
        """|∇σ|^2: squared Hilbert-Schmidt norm of the full gradient tensor."""
        return np.einsum("...jab,...jab->...", self.sigma_jac, self.sigma_jac)

    @cached_property
    def pairing(self):
        """Σ_j trace(∇σ^{.j} · ∇σ^{.j}), the column-gradient pairing term."""
        return np.einsum("...jab,...jba->...", self.sigma_jac, self.sigma_jac)

    @cached_property
    def delta_sigma2(self):
        """|δ(σ)|^2."""
        return np.einsum("...m,...m->...", self.delta_sigma, self.delta_sigma)

    @cached_property
    def phi(self):
        """Φ = δ(b) + ||σ||^2/2 + Σ_j <∇σ^{.j}, (∇σ^{.j})*>/2, the Ito drift of -log K~."""
        return self.delta_b + 0.5 * self.hs2 + 0.5 * self.pairing


@dataclass(frozen=True)
class RegularizationLevel:
    """Index n of the regularization pipeline: smoothing 1/n, cutoff radius n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("regularization level must satisfy n >= 1")

    @property
    def eps(self):
        return 1.0 / self.n


# ---------------------------------------------------------------------------
# regularization pipeline
# ---------------------------------------------------------------------------

def _on_table(X, on_table, off_table):
    """``on_table(x)`` at the points of X (..., 1) with |x| <= TABLE_RADIUS, ``off_table(P)`` elsewhere."""
    X = np.asarray(X, dtype=float)
    x = X.reshape(-1)
    # NaN fails both comparisons, so a non-finite point always takes the masked route
    if x.min(initial=0.0) >= -TABLE_RADIUS and x.max(initial=0.0) <= TABLE_RADIUS:
        out = on_table(x)
    else:
        inside = np.abs(x) <= TABLE_RADIUS
        off = np.asarray(off_table(x[~inside, None]), dtype=float)
        out = np.empty((x.shape[0],) + off.shape[1:])
        out[~inside] = off
        out[inside] = on_table(x[inside])
    return out.reshape(X.shape[:-1] + out.shape[1:])


def _table(g, eps):
    """The ``ou_smooth_table`` of P_ε g for a g that does not depend on t (d = 1), or None."""
    return ou_smooth_table(lambda P: g(0.0, P), eps)


def _smoothed(g, eps, quad, grad_quad, table):
    """P_ε g and its kernel gradient ∇P_ε g, as maps of (t, X).

    The gradient has g's value shape with a trailing d axis, and no
    derivative of g is taken.  With a ``table`` (d = 1, g independent of t,
    see ``_table``) both are read off it at |x| <= TABLE_RADIUS; elsewhere,
    and always without one, P_ε moves the ``quad`` nodes with the point, and
    the kernel gradient the nodes of ``grad_quad()``, a rule built on the
    first such read.
    """
    def moving(t, X):
        return ou_smooth(lambda P: g(t, P), eps, X, quad)

    def moving_grad(t, X):
        return ou_smooth_grad(lambda P: g(t, P), eps, X, grad_quad())

    if table is None:
        return moving, moving_grad

    def value(t, X):
        return _on_table(X, table, lambda P: moving(t, P))

    def grad(t, X):
        return _on_table(X, lambda x: table.derivative(x)[..., None], lambda P: moving_grad(t, P))

    return value, grad


def regularize_sigma(field, level, quad):
    """Smooth compactly-supported diffusion:  σ^n_t = φ_n · P_{1/n} σ_t.

    ∇σ^n = ∇φ_n ⊗ P_ε σ + φ_n ∇P_ε σ.  A field that declares a constant
    σ = A (``sigma_const``) has P_ε σ = A, a read-only broadcast, and
    ∇P_ε σ = 0, both exact and with nothing smoothed; otherwise both come from
    ``_smoothed`` (a d = 1 table for a time-independent σ, moving ``quad``
    nodes otherwise).  Either way σ needs no derivative, and
    ``field.sigma_jac`` is never read.  When every point of a call has
    |x|_∞ <= n / sqrt(d), inside the plateau |x| <= n of φ_n, P_ε σ and
    ∇P_ε σ are σ^n and ∇σ^n as they are; otherwise φ_n and ∇φ_n are
    applied at the points off that cube only (a non-finite point among
    them), since φ_n is exactly 1 at the others.  σ^n is not constant, so
    the regularized field declares no ``sigma_const``.
    """
    n, d, A = level.n, field.d, field.sigma_const
    plateau = n / math.sqrt(d)
    if A is None:
        tabulate = d == 1 and not field.sigma_time_dependent
        smoothed, smoothed_grad = _smoothed(field.sigma, level.eps, quad, lambda: quad,
                                            _table(field.sigma, level.eps) if tabulate else None)
    else:
        def smoothed(t, X):
            return np.broadcast_to(A, np.shape(X)[:-1] + A.shape)

        def smoothed_grad(t, X):
            return np.zeros(np.shape(X)[:-1] + A.shape + (d,))

    def off_plateau(X):
        # the points off |x|_∞ <= n / sqrt(d), a cube inside |x| <= n (NaN among them), or
        # None when there are none; as index arrays, which numpy gathers and scatters far
        # faster than a boolean mask (a single point (d,) keeps its 0-d mask)
        a = np.abs(X)
        if a.max(initial=0.0) <= plateau:
            return None
        off = ~(a <= plateau).all(axis=-1)
        return np.nonzero(off) if off.ndim else off

    def new_sigma(t, X):
        psig = smoothed(t, X)
        off = off_plateau(X)
        if off is not None:
            psig = np.require(psig, requirements="W")  # a constant σ's broadcast is copied first
            psig[off] *= cutoff(n, np.asarray(X)[off])[..., None, None]
        return psig

    def new_jac(t, X):
        # kernel gradient (..., a, j, b) into the column layout (..., j, a, b)
        pjac = np.moveaxis(smoothed_grad(t, X), -2, -3)
        off = off_plateau(X)
        if off is not None:
            Xo = np.asarray(X)[off]
            term1 = np.einsum("...b,...aj->...jab", cutoff_grad(n, Xo), smoothed(t, Xo))
            pjac[off] = term1 + cutoff(n, Xo)[..., None, None, None] * pjac[off]
        return pjac

    return replace(
        field,
        sigma=new_sigma,
        sigma_jac=new_jac,
        c1=None,
        growth_const=field.growth_const * (1.0 + gaussian_abs_moment(d)),
        sigma_const=None,
        name=f"{field.name}|sigma_n{n}",
    )


def _time_convolved(g, n):
    """(g_.(x) * χ_n)(t) with g extended by zero to negative times."""
    # composite Simpson with 65 nodes on the mollifier support, its weights
    # normalized so the discrete χ_n has unit mass (the raw rule sums to
    # 1 - 1.2e-6) and t >= 1/n agrees with the time-independent route
    k = 64
    offsets = np.linspace(-1.0 / n, 1.0 / n, k + 1)
    simp = np.ones(k + 1)
    simp[1:-1:2] = 4.0
    simp[2:-1:2] = 2.0
    chi = simp * time_mollifier(n, offsets)
    chi /= chi.sum()

    def conv(t, X):
        total = None
        for off, w in zip(offsets, chi):
            s = t - off
            if s < 0:
                continue
            term = w * np.asarray(g(s, X), dtype=float)
            total = term if total is None else total + term
        if total is None:
            probe = np.asarray(g(0.0, X), dtype=float)
            total = np.zeros_like(probe)
        return total

    return conv


def regularize_drift(field, level, quad, table=None):
    """Smooth drift  b^n_t = P_{1/n}[(b_.(x) * χ_n)(t)]  (σ and ``sigma_const`` left untouched).

    Derivative access comes from the smoothing kernel itself (Gaussian
    integration by parts), so no derivative of the input drift is needed and
    merely measurable drifts are handled: δ(b^n) is the divergence of the
    smooth field, singular parts of div b included.

    For a time-independent b, (b_. * χ_n)(t) = (∫_{-∞}^t χ_n) b, and b^n and
    ∇b^n are that ramp times P_ε b and its kernel gradient from
    ``_smoothed`` (a d = 1 table, moving ``quad`` nodes otherwise); a
    time-dependent b is convolved in time first, on moving nodes.  A drift
    that declares no ∇b (``b_jac`` None) gets its kernel gradient on a 4x
    refined rule: that integrand is one derivative rougher than b itself
    (for a jump drift it is a step function).  A d = 1 table of P_ε b built
    already (a ``RegularizationLadder`` stores its levels' tables as one
    ``HermiteStack``) is passed as ``table``; otherwise it is built here.
    """
    n, timed = level.n, field.b_time_dependent
    if table is None and field.d == 1 and not timed:
        table = _table(field.b, level.eps)

    @lru_cache(maxsize=1)
    def grad_quad():
        return quad if field.b_jac is not None else refined_quadrature(quad, factor=4)

    smoothed, smoothed_grad = _smoothed(_time_convolved(field.b, n) if timed else field.b, level.eps, quad,
                                        grad_quad, table)
    if timed:
        new_b, new_b_jac = smoothed, smoothed_grad
    else:
        def new_b(t, X):
            return float(mollifier_mass_below(n, t)) * smoothed(t, X)

        def new_b_jac(t, X):
            return float(mollifier_mass_below(n, t)) * smoothed_grad(t, X)

    return replace(
        field,
        b=new_b,
        b_jac=new_b_jac,
        delta_b_fn=None,  # an inherited a.e. representative of δ(b) is wrong for b^n
        growth_const=field.growth_const * (1.0 + gaussian_abs_moment(field.d)),
        exp_const=field.exp_const / (2.0 * math.e),
        b_time_dependent=True,
        name=f"{field.name}|drift_n{n}",
    )


def regularize(field, level, quad, drift_table=None):
    """Full pipeline: cutoff/smooth the diffusion, mollify/smooth the drift (``drift_table`` as ``table`` there)."""
    return regularize_drift(regularize_sigma(field, level, quad), level, quad, table=drift_table)


class RegularizationLadder:
    """Regularized levels of one field, stepped as one flow whose states hold the levels on a leading axis.

    ``fields[l]`` is ``regularize(field, RegularizationLevel(ns[l]), quad)``.
    ``simulate_ensemble`` steps a ladder like a field of states (L, rows, d),
    level-major (``lead`` = (L,)), every level under the same increments.
    ``evaluate(t, X)`` gives σ (L, rows, d, m) and b (L, rows, d), level l's
    the bits of ``fields[l].evaluate(t, X[l])``, by one of two routes:

    * stacked, for a d = 1 field with a drift independent of t and a declared
      constant σ = A, when every point of every level lies in the smallest
      level's plateau |x| <= n and in |x| <= TABLE_RADIUS: there σ^n = A, and
      b^n is the level's ramp ∫_{-∞}^t χ_n times its table of P_ε b, read for
      every level at once off the ladder's ``HermiteStack``;
    * per level, otherwise: each level's own σ and b maps on its slice.

    The stack holds the levels' drift tables once: each level's table is a
    view of it.  The bundle carries σ and b, all the Euler step reads; a
    ladder has no derivatives of its own.
    """

    def __init__(self, field, ns, quad):
        self.ns = tuple(ns)
        self.d, self.m, self.lead = field.d, field.m, (len(self.ns),)
        levels = [RegularizationLevel(n) for n in self.ns]
        tables = [None] * len(levels)
        self.sigma_const, self.stack = field.sigma_const, None
        if field.d == 1 and not field.b_time_dependent and self.sigma_const is not None:
            self.stack = ou_smooth_stack(lambda P: field.b(0.0, P), [level.eps for level in levels], 1)
            if self.stack is not None:
                tables = self.stack.tables
                self.bound = min(float(min(self.ns)), TABLE_RADIUS)
        self.fields = [regularize(field, level, quad, drift_table=table) for level, table in zip(levels, tables)]

    def evaluate(self, t, X):
        """σ and b of every level at (t, X), X (L, rows, d); see the class docstring."""
        X = np.asarray(X, dtype=float)
        if self.stack is not None and np.abs(X).max(initial=0.0) <= self.bound:
            ramps = np.array([float(mollifier_mass_below(n, t)) for n in self.ns])
            b = self.stack(X[..., 0])
            b *= ramps[:, None, None]
            sigma = np.broadcast_to(self.sigma_const, X.shape[:-1] + self.sigma_const.shape)
        else:
            sigma = np.stack([fl.sigma(t, Y) for fl, Y in zip(self.fields, X)])
            b = np.stack([fl.b(t, Y) for fl, Y in zip(self.fields, X)])
        return CoefficientValues(self, t, X, sigma, b)


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

# rounding allowance of the ellipticity check (``ellipticity_gap`` in ``validate``)
HYPOTHESIS_TOL = 1e-9
# time nodes of Σ_T on [0, T] in ``validate_hypotheses``
HYPOTHESIS_TGRID = 17
# largest log value a Gaussian integral of the hypotheses or the bounds may
# reach; past it the integral is taken as divergent
LOG_CAP = 700.0


@dataclass(frozen=True)
class HypothesisReport:
    """Measured hypothesis diagnostics over a (t, x) sample set."""

    min_eigenvalue: float
    growth_ratio: float
    sigma_T: float
    divergent: bool
    grad_norm_sup: float


def _hypothesis_integral(values, times, lam, quad):
    """Σ_T from one ``CoefficientValues`` per time node (see ``validate_hypotheses``).

    Raises ``BoundUnavailableError`` when any node's log integral exceeds ``LOG_CAP``.
    """
    log_sigma, peak = spacetime_log_integral(
        (lam * (ev.grad_hs2 + ev.delta_sigma2 + np.abs(ev.delta_b)) for ev in values), times, quad
    )
    if peak > LOG_CAP:
        raise BoundUnavailableError("hypothesis integral diverges")
    return math.exp(log_sigma)


def validate_hypotheses(field, T, quad):
    """Measure ellipticity, growth and the exponential-integrability integral.

    Σ_T = ∫_0^T ∫ exp[λ_T (|∇σ_t|^2 + |δ(σ_t)|^2 + |δ(b_t)|)] dγ_d dt is
    accumulated in log space on ``HYPOTHESIS_TGRID`` time nodes; if any node
    exceeds ``LOG_CAP`` the integral is flagged divergent and reported as +inf.
    """
    times = np.linspace(0.0, T, HYPOTHESIS_TGRID)
    X = quad.nodes
    logw = quad.log_weights

    min_eig = math.inf
    growth_ratio = 0.0
    grad_norm_sup = 0.0
    norm_radius = 1.0 + np.linalg.norm(X, axis=-1)
    p_grad = 2 * (field.d + 1)

    values = [field.evaluate(t, X) for t in times]
    for ev in values:
        a = np.einsum("kam,kbm->kab", ev.sigma, ev.sigma)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(a)[:, 0].min()))
        hs = np.sqrt(ev.hs2)
        growth_ratio = max(
            growth_ratio, float((np.maximum(hs, np.linalg.norm(ev.b, axis=-1)) / norm_radius).max())
        )
        grad2 = ev.grad_hs2
        if grad2.max() > 0:
            grad_norm_sup = max(
                grad_norm_sup,
                float(np.exp(logsumexp(logw + (p_grad / 2.0) * np.log(np.maximum(grad2, 1e-300))) / p_grad)),
            )

    try:
        sigma_T, divergent = _hypothesis_integral(values, times, field.exp_const, quad), False
    except BoundUnavailableError:
        sigma_T, divergent = math.inf, True

    return HypothesisReport(
        min_eigenvalue=min_eig,
        growth_ratio=growth_ratio,
        sigma_T=sigma_T,
        divergent=divergent,
        grad_norm_sup=grad_norm_sup,
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _constant_noise(A, lam, name, b=None, **drift):
    """The field with constant σ = A (d x m) and drift ``b``, λ = ``lam``.

    The field declares ``sigma_const`` = A, so its regularized levels take
    P_ε σ = A without smoothing.  ∇σ = 0; c1 is the least eigenvalue of
    AAᵀ, or None when that is not positive; the growth constant is ‖A‖_F
    unless ``drift`` declares a larger ``growth_const``.  With no ``b`` the
    drift, ∇b and δ(b) are all zero; ``drift`` holds the drift's other
    ``CoefficientField`` entries.
    """
    A = np.asarray(A, dtype=float)
    d, m = A.shape

    def sigma(t, X):
        return np.broadcast_to(A, np.shape(X)[:-1] + A.shape)

    if b is None:
        def b(t, X):
            return np.zeros(np.shape(X)[:-1] + (d,))

        drift.update(b_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (d, d)),
                     delta_b_fn=lambda t, X: np.zeros(np.shape(X)[:-1]))
    c1 = float(np.linalg.eigvalsh(A @ A.T)[0])
    return CoefficientField(
        d=d, m=m, sigma=sigma, b=b,
        sigma_jac=lambda t, X: np.zeros(np.shape(X)[:-1] + (m, d, d)),
        c1=c1 if c1 > 0 else None,
        growth_const=max(float(np.linalg.norm(A)), drift.pop("growth_const", 0.0)),
        exp_const=lam,
        sigma_const=A,
        name=name,
        **drift,
    )


def translate(d, lam=0.25):
    """σ = Id, b = 0: the flow translates γ_d by a Brownian motion."""
    return _constant_noise(np.eye(d), lam, "translate")


def ou_linear(d, a=1.0, lam=None):
    """σ = Id, b = -a x, with δ(b) = a (d - |x|^2); λ defaults to 1 / (4 (1 + a))."""
    a = float(a)
    eye = np.eye(d)

    def drift(t, X):
        return -a * np.asarray(X, dtype=float)

    def drift_jac(t, X):
        return np.broadcast_to(-a * eye, np.shape(X)[:-1] + (d, d))

    def delta_b(t, X):
        X = np.asarray(X, dtype=float)
        return a * (d - np.einsum("...a,...a->...", X, X))

    return _constant_noise(eye, 1.0 / (4.0 * (1.0 + a)) if lam is None else lam, f"ou_linear(a={a:g})",
                           drift, b_jac=drift_jac, delta_b_fn=delta_b, growth_const=a)


def sign_drift(d, beta=1.0, lam=0.25):
    """σ = Id, b = β sign(x_1) e_1: a measurable-only drift, δ(b) = β |x_1| a.e."""
    beta = float(beta)

    def drift(t, X):
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        out[..., 0] = beta * np.sign(X[..., 0])
        return out

    def delta_b(t, X):
        # <b, x> - div b with div b = 0 a.e.; the kink at x_1 = 0 is null
        return beta * np.abs(np.asarray(X, dtype=float)[..., 0])

    return _constant_noise(np.eye(d), lam, f"sign_drift(beta={beta:g})", drift,
                           delta_b_fn=delta_b, growth_const=beta)


def anisotropic(d, matrix, lam=None):
    """Constant σ = ``matrix`` of shape (d, m), b = 0; λ defaults to 1 / (4 s^2), s its top singular value."""
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != d:
        raise ValueError("anisotropic matrix must have shape (d, m)")
    if lam is None:
        smax = float(np.linalg.svd(A, compute_uv=False)[0])
        lam = 0.25 / max(smax**2, 1e-12)
    return _constant_noise(A, lam, "anisotropic")


# name -> field function; its parameters besides ``d``, with their defaults, are the signature's
CATALOG = {build.__name__: build for build in (translate, ou_linear, sign_drift, anisotropic)}


def builtin_coefficients(key, d=1, **params):
    """The ``CATALOG`` field ``key`` in dimension d, with analytic derivatives.

    ``params`` are the field function's own keyword parameters; an unknown
    key or parameter raises ``ValueError``.
    """
    if key not in CATALOG:
        raise ValueError(f"unknown catalog key: {key!r}")
    unknown = sorted(params.keys() - inspect.signature(CATALOG[key]).parameters.keys())
    if unknown:
        raise ValueError(f"unknown {key} parameters: {unknown}")
    return CATALOG[key](d, **params)
