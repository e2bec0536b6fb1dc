"""Gaussian reference-measure primitives.

The standard Gaussian measure γ_d is the reference measure throughout the
package.  This module provides quadrature against γ_d, the Gaussian
divergence operator δ (the adjoint of the gradient under γ_d) and the
Ornstein-Uhlenbeck smoothing semigroup P_ε: on moving quadrature nodes in any
d (``ou_smooth``, ``ou_smooth_grad``, in blocks of points of bounded size),
and in d = 1 as one fixed-node table of P_ε f and its kernel gradient
(``ou_smooth_table``, a ``HermiteTable``), or as the tables of several ε
stored and read together (``ou_smooth_stack``, a ``HermiteStack``).

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
    "gauss_expectation",
    "ou_smooth",
]

# numpy's hermgauss gives zero weights from order 371 on (normalized, 0/0 = NaN),
# so 370 is the largest Gauss-Hermite order a rule is built with
MAX_GH_ORDER = 370


def tensor_mesh(axis, d):
    """The n^d tensor points of ``axis`` as rows of an (n^d, d) array, last coordinate fastest.

    The one mesh of the package: tensor quadrature rules and Fokker-Planck
    grids are both built on it.
    """
    return np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=-1)


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
        weights = tensor_mesh(w / math.sqrt(math.pi), d).prod(axis=1)
        return cls(d=d, nodes=tensor_mesh(x * math.sqrt(2.0), d), weights=weights / weights.sum(),
                   exactness=2 * order - 1)

    @classmethod
    def monte_carlo(cls, d, n_samples, seed):
        """Equal-weight γ_d sample rule, for d where tensor rules are too large."""
        nodes = standard_normals(seed, MC_QUAD_STREAM, (n_samples, d))
        weights = np.full(n_samples, 1.0 / n_samples)
        return cls(d=d, nodes=nodes, weights=weights, exactness=0)


def default_quadrature(d, order=None):
    """Default rule: GH(32) in d=1, GH(16 per axis) in d=2, 4096 MC nodes (seed 0) beyond, which take no ``order``."""
    if d == 1:
        return GaussianQuadrature.gauss_hermite(1, order or 32)
    if d == 2:
        return GaussianQuadrature.gauss_hermite(2, order or 16)
    if order:
        raise ValueError(f"no Gauss-Hermite order in d = {d}: the rule beyond d = 2 is Monte-Carlo")
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


def spacetime_log_integral(log_values, times, quad):
    """log ∫∫ e^v dγ_d dt, with v given at the rule's nodes on the uniform ``times``.

    ``log_values`` yields one row of v at ``quad.nodes`` per time.  Each
    time's Gaussian integral is one log-sum-exp over the nodes; the time
    integral is the trapezoid rule on the uniform grid, in log space too.
    Returns the log integral and the largest per-time log integral, which
    callers compare with their cap.  The one space-time rule of the package:
    Σ_T, the L^p bound and the entropy budget's C1 and C2 all run on it.
    """
    log_inner = np.array([logsumexp(quad.log_weights + row) for row in log_values])
    w = np.full(log_inner.shape[0], times[1] - times[0])
    w[[0, -1]] *= 0.5
    return logsumexp(log_inner + np.log(w)), log_inner.max()


def _delta(values, x, jac):
    """δ = <values, x> - trace(jac), the one implementation of δ in the package.

    Vector values (..., d) with ``jac[..., a, b]`` = ∂B^a/∂x_b give a scalar.
    Matrix values (..., d, m) with ``jac[..., j, a, b]`` = ∂σ^{aj}/∂x_b give
    δ of each column.
    """
    spec = "...am,...a->...m" if values.ndim > x.ndim else "...a,...a->..."
    return np.einsum(spec, values, x) - np.trace(jac, axis1=-2, axis2=-1)


# moved-node floats (nodes * points * d) one block of ``_moving_node_sums`` holds
SMOOTH_BLOCK_FLOATS = 1 << 18


def _moving_node_sums(f, eps, x, quad, reduce):
    """``reduce`` of f at the nodes e^{-ε} x + sqrt(1-e^{-2ε}) y_k, a block of points at a time.

    ``reduce`` maps a block's (K, b, ...) values to (b, ...).  A block holds
    ``SMOOTH_BLOCK_FLOATS`` moved-node floats' worth of points but at least
    two: einsum sums a lone point's scalar over the nodes in another order.
    So a last lone point joins the block before it, and a point alone in
    its call is summed twice, as a block of two, and the first sum kept.
    Returns the sums (a single point (d,) without the point axis), e^{-ε}
    and sqrt(1-e^{-2ε}).
    """
    if eps <= 0:
        raise ValueError("smoothing parameter must be positive")
    x = np.asarray(x, dtype=float)
    pts = x[None, :] if x.ndim == 1 else x
    lone = pts.shape[0] == 1
    if lone:
        pts = np.concatenate([pts, pts])
    n, d = pts.shape
    decay = math.exp(-eps)
    spread = math.sqrt(max(1.0 - decay * decay, 0.0))
    k = quad.nodes.shape[0]
    block = max(2, SMOOTH_BLOCK_FLOATS // (k * d))
    starts = list(range(0, max(n - 1, 1), block))  # to n - 1: no last block of one point alone
    sums = []
    for start, stop in zip(starts, starts[1:] + [n]):
        shifted = decay * pts[None, start:stop, :] + spread * quad.nodes[:, None, :]  # (K, b, d)
        values = np.asarray(f(shifted.reshape(-1, d)), dtype=float)
        values = values.reshape((k, stop - start) + values.shape[1:])
        _check_finite(values, quad)
        sums.append(reduce(values))
    out = np.concatenate(sums) if len(sums) > 1 else sums[0]
    if lone:
        out = out[:1]
    return (out[0] if x.ndim == 1 else out), decay, spread


def ou_smooth(f, eps, x, quad):
    """Ornstein-Uhlenbeck smoothing P_ε f(x) by quadrature.

    P_ε f(x) = ∫ f(e^{-ε} x + sqrt(1-e^{-2ε}) y) dγ_d(y).  ``f`` must accept
    stacked points of shape (..., d); scalar- or tensor-valued outputs are
    both supported.  ``x`` may be a single point (d,) or a batch (n, d),
    smoothed in blocks of about ``SMOOTH_BLOCK_FLOATS`` moved-node floats.
    Each point's value is summed over the nodes in one fixed order, so it
    does not depend on the other points of the call, on their number or on
    the blocks.
    """
    return _moving_node_sums(f, eps, x, quad, lambda v: np.einsum("k,k...->...", quad.weights, v))[0]


def ou_smooth_grad(f, eps, x, quad):
    """Gradient of P_ε f without differentiating f.

    Uses the Gaussian integration-by-parts kernel:
    ∇P_ε f(x) = e^{-ε}/sqrt(1-e^{-2ε}) ∫ f(e^{-ε}x + r y) y dγ_d(y).
    Output shape is f-output shape with a trailing d axis; as in
    ``ou_smooth``, each point's value does not depend on the other points.
    """
    weighted = quad.weights[:, None] * quad.nodes  # (K, d)
    out, decay, spread = _moving_node_sums(
        f, eps, x, quad, lambda v: np.moveaxis(np.einsum("kd,k...->d...", weighted, v), 0, -1))
    return out * (decay / spread)  # (n, ..., d)


# fixed-node tables of P_ε f in d = 1 (see ``ou_smooth_table``)
TABLE_RADIUS = 16.0          # |x| a table covers; the GH-64 nodes reach 14.9
TABLE_NODES_PER_WIDTH = 64   # nodes per kernel width s = sqrt(1 - e^{-2ε})
TABLE_KERNEL_WIDTHS = 10     # kernel cut at ±10 s, where its tail mass is below 1e-22
TABLE_MAX_NODES = 1 << 22    # beyond this (ε below about 1e-7) no table is built
TABLE_MAX_GROWTH = 1e6       # FFT round-off is ~1e-16 of the largest sample: refuse faster growth


def _table_grid(eps):
    """ρ = e^{-ε}, s = sqrt(1 - ρ^2), the node spacing h and the count ``half`` of ``ou_smooth_table``'s grid.

    The table has 2 half points, so 2 half - 1 cells; None when its samples
    would exceed ``TABLE_MAX_NODES``.
    """
    if eps <= 0:
        raise ValueError("smoothing parameter must be positive")
    decay = math.exp(-eps)
    spread = math.sqrt(1.0 - decay * decay)
    h = spread / TABLE_NODES_PER_WIDTH
    half = int(math.ceil(decay * TABLE_RADIUS / h)) + 2   # table points z_j / ρ, j = -half .. half-1
    if 2 * (half + TABLE_KERNEL_WIDTHS * TABLE_NODES_PER_WIDTH) > TABLE_MAX_NODES:
        return None
    return decay, spread, h, half


def ou_smooth_table(f, eps, out=None):
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
    ``TABLE_MAX_GROWTH`` times its size on |z| <= 1 (e^{|z|} does).  Its
    coefficients are written to ``out`` (4, 2 half - 1, k) when one is
    given (see ``_table_grid``).
    """
    grid = _table_grid(eps)
    if grid is None:
        return None
    decay, spread, h, half = grid
    taps = TABLE_KERNEL_WIDTHS * TABLE_NODES_PER_WIDTH
    n_z = 2 * (half + taps)
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
        corr = np.fft.irfft(spec * np.fft.rfft(kernel, n_fft)[:, None], n_fft, axis=0)[valid]
        return corr.reshape((n_z - 2 * taps,) + values.shape[1:])

    return HermiteTable.fit(z[taps:n_z - taps] / decay, correlate(kern), correlate(-u * kern) * (decay / spread),
                            out=out)


def ou_smooth_stack(f, eps_list, k):
    """The ``ou_smooth_table`` of f at each ε of ``eps_list`` as one ``HermiteStack``, or None.

    f has k values a point.  The tables are written straight into the
    stack's planes, so they are held once and never copied; None when
    ``ou_smooth_table`` builds no table at some ε.
    """
    grids = [_table_grid(eps) for eps in eps_list]
    if None in grids:
        return None
    cells = np.array([2 * grid[3] - 1 for grid in grids])
    first = np.cumsum(cells) - cells
    planes = np.empty((4, int(cells.sum()), k))
    tables = tuple(ou_smooth_table(f, eps, out=planes[:, a:a + n]) for eps, a, n in zip(eps_list, first, cells))
    if any(table is None for table in tables):
        return None
    return HermiteStack(tables=tables, planes=planes, x0=np.array([[t.x0] for t in tables]),
                        h=np.array([[t.h] for t in tables]), first=first[:, None], last=cells - 1)


def _locate(x, x0, h, last):
    """Cell indices j and local coordinates τ (..., 1) of the points x in a table of cells 0 .. last.

    The table has left end x0 and cell width h.  For a stack of L tables, x
    is (L, n), x0 and h are (L, 1) and last is (L,), one table per row.
    Cell indices are clipped to 0 .. last only when some point falls outside.
    """
    u = np.asarray(x, dtype=float) - x0
    u /= h
    cell = np.floor(u)
    j = cell.astype(np.intp)
    if j.min(initial=0) < 0 or (j.max(axis=-1, initial=0) > last).any():
        np.clip(j, 0, np.asarray(last)[..., None], out=j)
        cell = j
    u -= cell
    return j, u[..., None]


class _PlaneReads:
    """``[i]`` is plane i of ``planes`` at the cells j, read into one buffer that every read reuses.

    For a stack's many points: four reads of one plane each take less time
    than one ``take`` of all four planes, and hold a quarter of its memory.
    """

    def __init__(self, planes, j):
        self.planes, self.j = planes, j
        self.buf = np.empty(j.shape + planes.shape[2:])

    def __getitem__(self, i):
        # j is in range already, and clip mode writes into out unbuffered, as raise mode does not
        return self.planes[i].take(self.j, axis=0, out=self.buf, mode="clip")


def _horner(c, tau):
    """c0 + τ(c1 + τ(c2 + τ c3)) in place, c[i] the points' coefficients of degree i."""
    out = c[3] * tau
    for i in (2, 1):
        out += c[i]
        out *= tau
    out += c[0]
    return out


@dataclass(frozen=True)
class HermiteTable:
    """C¹ piecewise-cubic Hermite interpolant of tabulated values and slopes.

    ``derivative`` is the exact derivative of the interpolant, so a field read
    off the table and its Jacobian read off the same table agree to rounding.
    Points beyond the grid use its end cubics.

    ``coef`` holds four coefficient planes, c0 .. c3 of every cell: one
    ``take`` along the cell axis brings each point's four coefficients, and
    the cubic is summed by Horner's rule in place, in the operation order of
    c0 + τ(c1 + τ(c2 + τ c3)).  Planes rather than cell-major rows
    (cells, 4, k), so that a ``HermiteStack`` keeps several tables in one set
    of planes, each table a view of it, and reads them a plane at a time.
    Measured on 5000 points in d = 1 (k = 1; a 2-vCPU Xeon, medians of nine
    rounds of best-of-three), one table reads in 42.7 µs from planes and
    42.3 µs from cell-major rows.  The six drift tables of the desk coupling
    (n = 4 .. 128) read in 215 µs as one stack on planes, against 230 µs
    for one gather of a cell-major stack and 250 µs for six cell-major
    reads, and the stack holds one plane of the gathered coefficients at a
    time, a quarter of what a cell-major gather holds.
    """

    x0: float
    h: float
    coef: np.ndarray   # (4, cells, k): cubic in the local coordinate τ ∈ [0, 1) of each cell
    shape: tuple       # value shape of one point

    @classmethod
    def fit(cls, x, values, slopes, out=None):
        """The interpolant through ``values`` and ``slopes`` at the uniform x; its planes written to ``out`` if given."""
        x = np.asarray(x, dtype=float)
        h = (x[-1] - x[0]) / (x.shape[0] - 1)
        v = np.asarray(values, dtype=float).reshape(x.shape[0], -1)
        g = np.asarray(slopes, dtype=float).reshape(x.shape[0], -1) * h
        dv = v[1:] - v[:-1]
        coef = np.stack([v[:-1], g[:-1], 3.0 * dv - 2.0 * g[:-1] - g[1:], g[:-1] + g[1:] - 2.0 * dv], out=out)
        return cls(x0=float(x[0]), h=float(h), coef=coef, shape=np.shape(values)[1:])

    def _cells(self, x):
        """The coefficients (4, n, k) of the cells of the points x (n,) and their τ (n, 1)."""
        j, tau = _locate(x, self.x0, self.h, self.coef.shape[1] - 1)
        return self.coef.take(j, axis=1), tau

    def __call__(self, x):
        """Interpolated values at the points x (n,); shape (n,) + ``shape``."""
        return _horner(*self._cells(x)).reshape((-1,) + self.shape)

    def derivative(self, x):
        """Exact derivative of the interpolant at the points x (n,)."""
        c, tau = self._cells(x)
        out = c[3] * (3.0 * tau)
        out += 2.0 * c[2]
        out *= tau
        out += c[1]
        out /= self.h
        return out.reshape((-1,) + self.shape)


@dataclass(frozen=True)
class HermiteStack:
    """``HermiteTable``s of one value shape in one set of coefficient planes, all read in one gather.

    ``tables[l]`` has its ``coef`` a view of ``planes`` (4, cells, k), so the
    tables are stored once (``ou_smooth_stack`` builds one).  A stack read at
    X (L, n) gives (L, n) + shape, row l bit for bit ``tables[l](X[l])``: the
    same cell arithmetic with each table's own x0 and h, one ``take`` of all
    the rows' coefficients and one Horner sum.
    """

    tables: tuple
    planes: np.ndarray
    x0: np.ndarray      # (L, 1) left end of each table
    h: np.ndarray       # (L, 1) cell width of each table
    first: np.ndarray   # (L, 1) first cell of each table in the planes
    last: np.ndarray    # (L,) last cell index of each table

    def __call__(self, X):
        """Row l of X (L, n) read off table l; shape (L, n) + the tables' value shape."""
        j, tau = _locate(X, self.x0, self.h, self.last)
        j += self.first
        return _horner(_PlaneReads(self.planes, j), tau).reshape(np.shape(X) + self.tables[0].shape)
