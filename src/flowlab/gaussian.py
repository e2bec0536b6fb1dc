"""Gaussian reference-measure primitives.

The standard Gaussian measure γ_d is the reference measure throughout the
package.  This module provides quadrature against γ_d, the Gaussian
divergence operator δ (the adjoint of the gradient under γ_d) and the
Ornstein-Uhlenbeck smoothing semigroup P_ε: on moving quadrature nodes in any
d (``ou_smooth``, ``ou_smooth_grad``), and in d = 1 as one fixed-node table of
P_ε f and its kernel gradient (``ou_smooth_table``, a ``HermiteTable``).

Sign convention: δ(B)(x) = <B(x), x> - div B(x), which is the unique choice
satisfying the adjoint identity ∫ <B, ∇f> dγ_d = ∫ f δ(B) dγ_d.  In
particular δ of the constant field e_j is the coordinate x_j.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError
from .rng import MC_QUAD_STREAM, standard_normals

__all__ = [
    "GaussianQuadrature",
    "default_quadrature",
    "fd_jacobian",
    "gauss_expectation",
    "ou_smooth",
]

FD_STEP_SCALE = 1e-5
# numpy's hermgauss gives zero weights from order 371 on (normalized, 0/0 = NaN),
# so 370 is the largest Gauss-Hermite order a rule is built with
MAX_GH_ORDER = 370


@dataclass(frozen=True)
class GaussianQuadrature:
    """Nodes and weights integrating against γ_d.

    ``exactness`` is the largest total polynomial degree integrated exactly
    (0 for the Monte-Carlo fallback, which is exact for nothing but carries a
    declared sample count instead).
    """

    d: int
    nodes: np.ndarray      # (K, d)
    weights: np.ndarray    # (K,), positive, summing to one
    exactness: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be positive")
        if self.nodes.shape != (self.weights.shape[0], self.d):
            raise ValueError("nodes/weights shape mismatch")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:  # NaN fails it too
            raise ValueError("quadrature weights must sum to 1 within 1e-12")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def log_weights(self):
        return np.log(self.weights)

    @classmethod
    def gauss_hermite(cls, d, order):
        """Tensorized Gauss-Hermite rule for γ_d, ``order`` nodes per axis, 1 <= order <= MAX_GH_ORDER."""
        if not 1 <= order <= MAX_GH_ORDER:
            raise ValueError(f"Gauss-Hermite order must lie in [1, {MAX_GH_ORDER}], got {order}")
        x, w = np.polynomial.hermite.hermgauss(order)
        x = x * math.sqrt(2.0)
        w = w / math.sqrt(math.pi)
        if d == 1:
            nodes = x[:, None]
            weights = w
        else:
            grids = np.meshgrid(*([x] * d), indexing="ij")
            nodes = np.stack([g.ravel() for g in grids], axis=-1)
            wgrids = np.meshgrid(*([w] * d), indexing="ij")
            weights = np.prod(np.stack([g.ravel() for g in wgrids]), axis=0)
        weights = weights / weights.sum()
        return cls(d=d, nodes=nodes, weights=weights, exactness=2 * order - 1)

    @classmethod
    def monte_carlo(cls, d, n_samples, seed):
        """Equal-weight γ_d sample rule, for d where tensor rules are too large."""
        nodes = standard_normals(seed, MC_QUAD_STREAM, (n_samples, d))
        weights = np.full(n_samples, 1.0 / n_samples)
        return cls(d=d, nodes=nodes, weights=weights, exactness=0)


def default_quadrature(d, order=None):
    """Default rule: GH(32) in d=1, GH(16 per axis) in d=2, 4096 MC nodes (seed 0) beyond."""
    if d == 1:
        return GaussianQuadrature.gauss_hermite(1, order or 32)
    if d == 2:
        return GaussianQuadrature.gauss_hermite(2, order or 16)
    return GaussianQuadrature.monte_carlo(d, 4096, 0)


def refined_quadrature(quad, factor=2, max_order=None):
    """Same-family Gauss-Hermite rule with ``factor`` times the per-axis order.

    Used where an integrand is rougher than the caller's rule anticipates
    (order-doubling divergence checks, kernel gradients of discontinuous
    fields).  Monte-Carlo rules are returned unchanged.
    """
    if quad.exactness < 1:
        return quad
    order = (quad.exactness + 1) // 2
    cap = max_order if max_order is not None else (256 if quad.d == 1 else 64)
    new_order = min(cap, order * factor)
    if new_order <= order:
        return quad
    return GaussianQuadrature.gauss_hermite(quad.d, new_order)


def _check_finite(values, quad):
    if np.all(np.isfinite(values)):
        return
    flat = np.asarray(values).reshape(values.shape[0], -1)
    bad = np.where(~np.isfinite(flat).all(axis=1))[0]
    node = quad.nodes[bad[0]]
    raise EvaluationError(f"non-finite integrand value at node {node}", node=node)


def gauss_expectation(g, quad):
    """∫ g dγ_d by quadrature.  ``g`` maps (K, d) node arrays to (K, ...)."""
    values = np.asarray(g(quad.nodes), dtype=float)
    _check_finite(values, quad)
    return np.tensordot(quad.weights, values, axes=(0, 0))


def logsumexp(a):
    """log Σ e^a over every entry of the float array a, bit for bit ``scipy.special.logsumexp(a)``.

    scipy's arithmetic for real input without weights, in its order: the
    maximum entries are taken out of the sum and counted, the others are
    shifted by the maximum, and log1p(sum / count) + log(count) + max is
    returned.  Only where that is not finite (an infinite or NaN entry, or
    every entry -inf) is log(sum(exp(a))) computed and returned instead.
    An empty array gives -inf.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.float64(-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        top = a == a_max
        shifted = a - a_max
        shifted[top] = -np.inf
        s = np.exp(shifted, out=shifted).sum()
        count = np.float64(np.count_nonzero(top))
        if s != 0:
            s = s / count
        out = np.log1p(s) + np.log(count) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


def fd_jacobian(fn, x):
    """Central-difference Jacobian with scale-aware step h = FD_STEP_SCALE*(1+|x|)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    n, d = pts.shape
    h = FD_STEP_SCALE * (1.0 + np.linalg.norm(pts, axis=-1))  # (n,)
    cols = []
    for b in range(d):
        shift = np.zeros_like(pts)
        shift[:, b] = h
        hi = np.asarray(fn(pts + shift), dtype=float)
        lo = np.asarray(fn(pts - shift), dtype=float)
        denom = (2.0 * h).reshape((n,) + (1,) * (hi.ndim - 1))
        cols.append((hi - lo) / denom)
    jac = np.stack(cols, axis=-1)  # (n, ..., d)
    return jac[0] if single else jac


def _delta(values, x, jac):
    """δ = <values, x> - trace(jac), the one implementation of δ in the package.

    Vector values (..., d) with ``jac[..., a, b]`` = ∂B^a/∂x_b give a scalar.
    Matrix values (..., d, m) with ``jac[..., j, a, b]`` = ∂σ^{aj}/∂x_b give
    δ of each column.
    """
    spec = "...am,...a->...m" if values.ndim > x.ndim else "...a,...a->..."
    return np.einsum(spec, values, x) - np.trace(jac, axis1=-2, axis2=-1)


def _moving_node_values(f, eps, x, quad):
    """f at the nodes e^{-ε} x + sqrt(1-e^{-2ε}) y_k, shaped (K, n, ...).

    Returns the values, the spread sqrt(1-e^{-2ε}), e^{-ε} and whether ``x``
    was a single point (d,) rather than a batch (n, d).
    """
    if eps <= 0:
        raise ValueError("smoothing parameter must be positive")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    n, d = pts.shape
    decay = math.exp(-eps)
    spread = math.sqrt(max(1.0 - decay * decay, 0.0))
    shifted = decay * pts[None, :, :] + spread * quad.nodes[:, None, :]  # (K, n, d)
    values = np.asarray(f(shifted.reshape(-1, d)), dtype=float)
    values = values.reshape((quad.nodes.shape[0], n) + values.shape[1:])
    _check_finite(values, quad)
    return values, decay, spread, single


def ou_smooth(f, eps, x, quad):
    """Ornstein-Uhlenbeck smoothing P_ε f(x) by quadrature.

    P_ε f(x) = ∫ f(e^{-ε} x + sqrt(1-e^{-2ε}) y) dγ_d(y).  ``f`` must accept
    stacked points of shape (..., d); scalar- or tensor-valued outputs are
    both supported.  ``x`` may be a single point (d,) or a batch (n, d).
    Each point's value is summed over the nodes in one fixed order, so it
    does not depend on the other points of the call.
    """
    values, _, _, single = _moving_node_values(f, eps, x, quad)
    out = np.einsum("k,k...->...", quad.weights, values)
    return out[0] if single else out


def ou_smooth_grad(f, eps, x, quad):
    """Gradient of P_ε f without differentiating f.

    Uses the Gaussian integration-by-parts kernel:
    ∇P_ε f(x) = e^{-ε}/sqrt(1-e^{-2ε}) ∫ f(e^{-ε}x + r y) y dγ_d(y).
    Output shape is f-output shape with a trailing d axis; as in
    ``ou_smooth``, each point's value does not depend on the other points.
    """
    values, decay, spread, single = _moving_node_values(f, eps, x, quad)
    weighted = quad.weights[:, None] * quad.nodes  # (K, d)
    out = np.einsum("kd,k...->d...", weighted, values)  # (d, n, ...)
    out = np.moveaxis(out, 0, -1) * (decay / spread)   # (n, ..., d)
    return out[0] if single else out


# fixed-node tables of P_ε f in d = 1 (see ``ou_smooth_table``)
TABLE_RADIUS = 16.0          # |x| a table covers; the GH-64 nodes reach 14.9
TABLE_NODES_PER_WIDTH = 64   # nodes per kernel width s = sqrt(1 - e^{-2ε})
TABLE_KERNEL_WIDTHS = 10     # kernel cut at ±10 s, where its tail mass is below 1e-22
TABLE_MAX_NODES = 1 << 22    # beyond this (ε below about 1e-7) no table is built
TABLE_MAX_GROWTH = 1e6       # FFT round-off is ~1e-16 of the largest sample: refuse faster growth


def ou_smooth_table(f, eps):
    """P_ε f on |x| <= TABLE_RADIUS, d = 1, as a ``HermiteTable`` of it and its kernel gradient.

    Mehler form: P_ε f(x) = ∫ f(z) M_ε(x, z) dγ(z) = ∫ f(z) g_s(z - ρx) dz with
    ρ = e^{-ε}, s = sqrt(1 - ρ^2) and g_s the N(0, s^2) density, so f is read
    at fixed nodes z_i = (i + 1/2) h, h = s / 64: cell centres symmetric about
    0, so a jump of f at 0 falls on a cell boundary.  At the table points
    x_j = z_j / ρ the weight of z_i depends on i - j only, and the whole table
    is one discrete Gaussian convolution (by FFT) of the samples f(z_i):

        P_ε f(x_j) ≈ Σ_k f(z_{j+k}) K_k,    K_k ∝ exp(-(k h/s)^2 / 2),  Σ_k K_k = 1,
        ∇P_ε f(x_j) ≈ (ρ/s) Σ_k f(z_{j+k}) (k h/s) K_k,

    the value and x-derivative of one Riemann sum, so the gradient is the
    kernel gradient and needs no derivative of f.  ``f`` maps (K, 1) points
    to (K, ...) values.  Returns the interpolant through both at the x_j,
    whose ``derivative`` is ∇P_ε f, or None when the grid would exceed
    ``TABLE_MAX_NODES``, or f is not finite at some node or grows beyond
    ``TABLE_MAX_GROWTH`` times its size on |z| <= 1 (e^{|z|} does).
    """
    if eps <= 0:
        raise ValueError("smoothing parameter must be positive")
    decay = math.exp(-eps)
    spread = math.sqrt(1.0 - decay * decay)
    h = spread / TABLE_NODES_PER_WIDTH
    taps = TABLE_KERNEL_WIDTHS * TABLE_NODES_PER_WIDTH
    half = int(math.ceil(decay * TABLE_RADIUS / h)) + 2   # table points z_j / ρ, j = -half .. half-1
    n_z = 2 * (half + taps)
    if n_z > TABLE_MAX_NODES:
        return None
    z = (np.arange(n_z) - n_z // 2 + 0.5) * h
    values = np.asarray(f(z[:, None]), dtype=float)
    size = np.abs(values).max(initial=0.0)
    if not math.isfinite(size) or size > TABLE_MAX_GROWTH * max(1.0, np.abs(values[np.abs(z) <= 1.0]).max()):
        return None
    u = np.arange(-taps, taps + 1) * (h / spread)
    kern = np.exp(-0.5 * u * u)
    kern /= kern.sum()
    # correlation with K (even) and with u K (odd, so its reversal is -u K)
    n_fft = 1 << (n_z - 1).bit_length()
    spec = np.fft.rfft(values.reshape(n_z, -1), n_fft, axis=0)
    valid = slice(2 * taps, n_z)

    def correlate(kernel):
        out = np.fft.irfft(spec * np.fft.rfft(kernel, n_fft)[:, None], n_fft, axis=0)[valid]
        return out.reshape((n_z - 2 * taps,) + values.shape[1:])

    return HermiteTable.fit(z[taps:n_z - taps] / decay, correlate(kern), correlate(-u * kern) * (decay / spread))


@dataclass(frozen=True)
class HermiteTable:
    """C¹ piecewise-cubic Hermite interpolant of tabulated values and slopes.

    ``derivative`` is the exact derivative of the interpolant, so a field read
    off the table and its Jacobian read off the same table agree to rounding.
    Points beyond the grid use its end cubics.

    ``coef`` is cell-major, the layout the evaluation reads: one gather of
    whole cells brings each point's four coefficients (one cache line for
    k = 1) and the cubic is summed by Horner's rule in place, in the
    operation order of c0 + τ(c1 + τ(c2 + τ c3)).  Cell indices are clipped
    to the grid only when some point falls outside it.
    """

    x0: float
    h: float
    coef: np.ndarray   # (cells, 4, k): cubic in the local coordinate τ ∈ [0, 1) of each cell
    shape: tuple       # value shape of one point

    @classmethod
    def fit(cls, x, values, slopes):
        x = np.asarray(x, dtype=float)
        h = (x[-1] - x[0]) / (x.shape[0] - 1)
        v = np.asarray(values, dtype=float).reshape(x.shape[0], -1)
        g = np.asarray(slopes, dtype=float).reshape(x.shape[0], -1) * h
        dv = v[1:] - v[:-1]
        coef = np.stack([v[:-1], g[:-1], 3.0 * dv - 2.0 * g[:-1] - g[1:], g[:-1] + g[1:] - 2.0 * dv], axis=1)
        return cls(x0=float(x[0]), h=float(h), coef=coef, shape=np.shape(values)[1:])

    def _cells(self, x):
        """The coefficients (n, 4, k) of the cells of the points x (n,) and their τ (n, 1)."""
        u = np.asarray(x, dtype=float) - self.x0
        u /= self.h
        cell = np.floor(u)
        j = cell.astype(np.intp)
        last = self.coef.shape[0] - 1
        if j.min(initial=0) < 0 or j.max(initial=last) > last:
            np.clip(j, 0, last, out=j)
            cell = j
        u -= cell
        return self.coef.take(j, axis=0), u[:, None]

    def __call__(self, x):
        """Interpolated values at the points x (n,); shape (n,) + ``shape``."""
        c, tau = self._cells(x)
        out = c[:, 3] * tau
        for i in (2, 1):
            out += c[:, i]
            out *= tau
        out += c[:, 0]
        return out.reshape((-1,) + self.shape)

    def derivative(self, x):
        """Exact derivative of the interpolant at the points x (n,)."""
        c, tau = self._cells(x)
        out = c[:, 3] * (3.0 * tau)
        out += 2.0 * c[:, 2]
        out *= tau
        out += c[:, 1]
        out /= self.h
        return out.reshape((-1,) + self.shape)
