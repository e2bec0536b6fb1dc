"""Finite-difference Fokker-Planck solver and its Monte-Carlo counterpart.

The forward equation  ∂_t u = (1/2) Σ_ij ∂_i ∂_j (a^ij u) - Σ_i ∂_i (b^i u),
a = σσ*, is discretized in conservative flux form on a truncated cube
[-R, R]^d (d = 1 or 2): centered differences on the divergence-form
diffusion, first-order upwinding on the advection, explicit Euler in time,
absorbing boundary (ghost cells at zero).  Every term is a face flux, so the
interior update telescopes exactly and the per-step mass change equals the
recorded boundary flux up to float roundoff; truncation losses are reported,
never hidden.  Negative undershoots are clipped and accounted separately.

One step serves d = 1 and 2 on one flat zero-padded grid; only the cross
term of the fluxes depends on d.  At each coefficient refresh (once per
solve unless σ or b depends on time) it folds a^ii, the upwind split of the
face velocities and τ/h into two coefficients per face and axis, so that
each face flux is α u(upper) - β u(lower); only in d = 2, when a12 has a
nonzero entry at that refresh, the cross term adds to it.  The buffers are
allocated once per solve, and each step is a few passes over contiguous
slices (``_FaceStep`` gives the formulas and says why a skipped zero cross
term changes no bit).  Grid points, initial densities and CSV frames share
one layout (last coordinate fastest) in either dimension.

The PDE side is deliberately modest (d <= 2, explicit stepping with the
stability bound τ <= h^2 / (2 d max||a|| + h max|b|)); it exists as an
independent check of the flow ensembles, not as a production PDE code.
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .density import DensityAccumulator, mean_estimate
from .errors import ConfigError, SolverFailureError
from .gaussian import tensor_mesh
from .rng import GRID_SAMPLER_STREAM, gaussian_points, substream, uniform_open
from .sde import CompanionFlow, make_grid, simulate_ensemble

__all__ = [
    "FPGrid",
    "FPSolution",
    "FactorizationReport",
    "GridSampler1D",
    "WeakErrorReport",
    "coarse_companion",
    "density_factorization",
    "diffusion_matrix",
    "fp_solve",
    "mc_flows",
    "mc_measure",
    "smooth_bump",
    "stable_coefficients",
    "weak_error",
    "write_solution_csv",
]

# negative mass one step may clip before ``fp_solve`` gives up
MAX_CLIP_PER_STEP = 1e-6
# samples a cell needs to enter the ``density_factorization`` comparison
MIN_CELL_COUNT = 10


def diffusion_matrix(field, t, X):
    """a(t, x) = σ(t, x) σ(t, x)* in R^{d x d}."""
    sig = np.asarray(field.sigma(t, X), dtype=float)
    return np.einsum("...am,...bm->...ab", sig, sig)


@dataclass
class FPGrid:
    """Uniform tensor grid on [-R, R]^d carrying nonnegative density values."""

    d: int
    R: float
    h: float
    u: np.ndarray

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ConfigError("the PDE side supports d in {1, 2} only")
        if np.any(self.u < 0):
            raise ConfigError("initial density must be nonnegative")

    @classmethod
    def from_density(cls, d, R, h, density):
        """The grid of round(2R/h) + 1 points per axis, the density sampled at its points.

        Raises ``ConfigError`` unless h divides 2R to 1e-9 relative, so that
        the last point is R to that tolerance.
        """
        n = round(2 * R / h)
        if not abs(n * h - 2 * R) <= 1e-9 * 2 * R:
            raise ConfigError(f"h={h:g} does not divide 2R={2 * R:g}")
        grid = cls(d=d, R=R, h=h, u=np.zeros((n + 1,) * d))
        grid.u = np.maximum(np.asarray(density(grid.points()), dtype=float).reshape(grid.u.shape), 0.0)
        grid.u /= grid.mass()
        return grid

    @classmethod
    def gaussian(cls, d, R, h):
        def density(pts):
            r2 = np.einsum("...a,...a->...", pts, pts)
            return np.exp(-r2 / 2.0) / (2.0 * math.pi) ** (d / 2.0)

        return cls.from_density(d, R, h, density)

    @property
    def axis(self):
        n = self.u.shape[0]
        return -self.R + self.h * np.arange(n)

    def points(self):
        return tensor_mesh(self.axis, self.d)

    def mass(self):
        return float(self.u.sum() * self.h**self.d)

    def moment(self, fn):
        """h^d Σ fn(x) u(x): the grid pairing <fn, u>."""
        vals = np.asarray(fn(self.points()), dtype=float).reshape(self.u.shape)
        return float((vals * self.u).sum() * self.h**self.d)

    def variance(self):
        pts = self.points()
        mass = self.mass()
        w = (self.u.reshape(-1) * self.h**self.d) / mass
        mean = w @ pts
        return float(w @ ((pts - mean) ** 2).sum(axis=-1))


@dataclass
class FPSolution:
    grid: FPGrid                 # final state
    s: float
    T: float
    tau: float
    mass_series: np.ndarray      # mass after each step
    leak_series: np.ndarray      # boundary outflow per step (mass units)
    clip_series: np.ndarray      # clipped negative mass per step
    audit_residual: float        # max |Δmass - boundary flux| over steps
    frames: list = dc_field(default_factory=list)  # (t, values) snapshots

    @property
    def total_leakage(self):
        return float(self.leak_series.sum())

    @property
    def total_clipped(self):
        return float(self.clip_series.sum())


def _stability_bound(a, b, h):
    """τ bound h^2 / (2 d max||a|| + h max|b|) from a (N, d, d) and b (N, d) at the grid points."""
    amax = float(np.abs(np.linalg.eigvalsh(a)).max())
    bmax = float(np.abs(b).max())
    denom = 2.0 * a.shape[-1] * amax + h * bmax
    return math.inf if denom == 0 else h**2 / denom


def stable_coefficients(field, t, pts, h, tau):
    """a (N, d, d) and b (N, d) at the grid points ``pts`` at time t, once τ is checked there.

    Raises ``ConfigError`` when τ exceeds the stability bound
    h^2 / (2 d max||a|| + h max|b|).  ``fp_solve`` calls it at every
    coefficient refresh and ``validate`` on the grids ``run`` solves.
    """
    a = diffusion_matrix(field, t, pts)
    b = np.asarray(field.b(t, pts), dtype=float)
    bound = _stability_bound(a, b, h)
    if tau > bound * (1 + 1e-12):
        raise ConfigError(f"tau={tau:g} violates the stability bound {bound:g} at t={t:g}")
    return a, b


def _along(p, axis, index, rest=slice(None)):
    """View of ``p`` at ``index`` along ``axis`` and at ``rest`` along every other axis."""
    idx = [rest] * p.ndim
    idx[axis] = index
    return p[(*idx, ...)]


class _FaceStep:
    """The conservative step on an n^d grid, d = 1 or 2, held on one flat zero-padded grid.

    Every array of the step spans the (n + 2)^d padded grid, flattened with
    the last coordinate fastest, so point p's neighbour along axis i is
    p + s_i, s_i = (n + 2)^(d-1-i), and face i of p lies between p and
    p + s_i.  ``refresh(a, b)`` folds a^ii, the upwind split of the face
    velocity b_f (b^i edge-extended, averaged across the face) and τ/h into
    two coefficients per face,

        α = (τ/h) (a^ii(p + s_i) / (2h) - min(b_f, 0)),
        β = (τ/h) (a^ii(p) / (2h) + max(b_f, 0)),

    so that the face flux times τ/h is F_i = α U[p + s_i] - β U[p]: two
    multiplies and one subtraction on contiguous slices.  In d = 2, when a12
    has a nonzero entry at that refresh, the centered cross term adds
    D[p] + D[p + s_i], D = G[q + s_o] - G[q - s_o], G = (τ/(8h²)) a12 U and
    s_o the other axis's stride; its buffers are allocated at the first
    refresh that needs them.

    ``step(u, out)`` writes u + Σ_i (F_i[p] - F_i[p - s_i]) into ``out`` and
    returns the mass that left the domain, -h^d Σ_i Σ (F_i at the last face
    - F_i at the first).  What one cell gains through a face its neighbour
    loses, so the interior update telescopes and the mass change equals the
    outflow up to roundoff.  The slices also cover faces in the padded
    border; their coefficients stay 0 and no cell or edge reads them.

    A zero cross term would change no bit: adding ±0 changes only a -0, and
    no flux is -0, since α, β >= +0 and u >= +0 after every clip (and in
    every grid ``FPGrid.from_density`` builds).
    """

    def __init__(self, d, n, h, tau):
        N, inner = n + 2, slice(1, -1)
        self.d, self.n, self.h, self.tau, self.cross, self.g = d, n, h, tau, False, None
        self.U, work = np.zeros((N,) * d), np.zeros(N**d)
        self.u_in = self.U[(inner,) * d]
        self.alpha, self.beta, fluxes = ([np.zeros((N,) * d) for _ in range(d)] for _ in range(3))
        strides = [N ** (d - 1 - i) for i in range(d)]
        S, U = sum(strides), self.U.reshape(-1)
        # per axis: the points from (0, 1, ..) to (n, .., n) along it, as flat slices p and p + s
        self.faces = [(slice(S - s, n * S + 1), slice(S, n * S + s + 1), S - s) for s in strides]
        # per axis: F, α, U[p + s], β, U[p] and a work array
        self.axes = [(F.reshape(-1)[p], alpha.reshape(-1)[p], U[up], beta.reshape(-1)[p], U[p],
                      work[: p.stop - p.start])
                     for F, alpha, beta, (p, up, _) in zip(fluxes, self.alpha, self.beta, self.faces)]
        self.cells = [(F[(inner,) * d], _along(F, i, slice(None, -2), inner)) for i, F in enumerate(fluxes)]
        self.edges = [(_along(F, i, n, inner), _along(F, i, 0, inner)) for i, F in enumerate(fluxes)]
        self.w_cells = work[: n**d].reshape((n,) * d)

    def _cross_buffers(self):
        """g = (τ/(8h²)) a12, G and D on the padded grid (d = 2), and per axis D, G[q ± s_o], D[p], D[p + s]."""
        self.g, self.G, D = (np.zeros(self.U.shape) for _ in range(3))
        G, D = self.G.reshape(-1), D.reshape(-1)
        self.cross_reads = [(D[p.start:up.stop], G[p.start + so:up.stop + so], G[p.start - so:up.stop - so],
                             D[p], D[up]) for p, up, so in self.faces]

    def refresh(self, a, b):
        """Fold a (n^d, d, d) and b (n^d, d) at the grid points into the face coefficients."""
        d, n, h, inner = self.d, self.n, self.h, slice(1, -1)
        a, b = a.reshape((n,) * d + (d, d)), b.reshape((n,) * d + (d,))
        tau_h, two_h = self.tau / h, 2.0 * h
        for i, (alpha, beta) in enumerate(zip(self.alpha, self.beta)):
            def hi(p):
                return _along(p, i, slice(1, None), inner)

            def lo(p):
                return _along(p, i, slice(None, -1), inner)

            apad, bpad = np.pad(a[..., i, i], 1), np.pad(b[..., i], 1, mode="edge")
            bf = 0.5 * (hi(bpad) + lo(bpad))
            lo(alpha)[...] = tau_h * (hi(apad) / two_h - np.minimum(bf, 0.0))
            lo(beta)[...] = tau_h * (lo(apad) / two_h + np.maximum(bf, 0.0))
        self.cross = d == 2 and bool(np.any(a[..., 0, 1]))
        if self.cross:
            if self.g is None:
                self._cross_buffers()
            self.g[inner, inner] = (self.tau / (8.0 * h * h)) * a[..., 0, 1]

    def __call__(self, u, out):
        self.u_in[...] = u
        if self.cross:
            np.multiply(self.g, self.U, out=self.G)
        for i, (F, alpha, u_hi, beta, u_lo, w) in enumerate(self.axes):
            np.multiply(alpha, u_hi, out=F)
            np.multiply(beta, u_lo, out=w)
            F -= w
            if self.cross:
                D, g_hi, g_lo, d_lo, d_hi = self.cross_reads[i]
                np.subtract(g_hi, g_lo, out=D)
                np.add(d_lo, d_hi, out=w)
                F += w
        (first_hi, first_lo), *other_cells = self.cells
        np.subtract(first_hi, first_lo, out=out)
        for F_hi, F_lo in other_cells:
            np.subtract(F_hi, F_lo, out=self.w_cells)
            out += self.w_cells
        out += u
        # summed from the first axis's term, not from 0, which would turn a -0.0 into +0.0
        outflow = [(last - first).sum() for last, first in self.edges]
        return -self.h**self.d * sum(outflow[1:], outflow[0])


def fp_solve(field, grid0, s, T, tau, n_frames=0):
    """Evolve the grid density from s to T; see the module docstring.

    ``frames`` holds the start and, with ``n_frames`` > 0, frame i = 1 ..
    ``n_frames`` after step round(i n_steps / n_frames), so exactly
    ``n_frames`` frames whenever n_frames <= n_steps; with 0, only the end.
    Raises ``ConfigError`` when τ violates the stability bound (checked by
    ``stable_coefficients`` at every coefficient refresh) and
    ``SolverFailureError`` when a step clips more than ``MAX_CLIP_PER_STEP``
    of negative mass.
    """
    n_steps = make_grid(s, T, tau) if T != s else 0
    grid = FPGrid(d=grid0.d, R=grid0.R, h=grid0.h, u=grid0.u.copy())
    if n_steps == 0:
        return FPSolution(
            grid=grid, s=s, T=T, tau=tau,
            mass_series=np.array([grid.mass()]),
            leak_series=np.zeros(0), clip_series=np.zeros(0),
            audit_residual=0.0, frames=[(s, grid.u.copy())],
        )

    pts = grid.points()
    time_dep = field.sigma_time_dependent or field.b_time_dependent
    d = grid.d
    step = _FaceStep(d, grid.u.shape[0], grid.h, tau)
    step.refresh(*stable_coefficients(field, s, pts, grid.h, tau))

    vol = grid.h**d
    mass_series = np.empty(n_steps)
    leak_series = np.empty(n_steps)
    clip_series = np.empty(n_steps)
    audit = 0.0
    frame_steps = {round(i * n_steps / n_frames) for i in range(1, n_frames + 1)}
    frames = [(s, grid.u.copy())]

    u, u_new = grid.u, np.empty_like(grid.u)
    mass_before = u.sum() * vol
    for k in range(n_steps):
        t = s + k * tau
        if time_dep and k > 0:
            step.refresh(*stable_coefficients(field, t, pts, grid.h, tau))
        boundary = step(u, u_new)
        mass_after = u_new.sum() * vol
        audit = max(audit, abs((mass_after - mass_before) + boundary))
        # with nothing negative the clip would change no bit: u_new = D + u is -0.0
        # only where u is, and u >= +0 (see ``_FaceStep``); -(an empty sum) is -0.0
        clean = u_new.min() >= 0.0
        clipped = -0.0 if clean else -float(u_new[u_new < 0].sum()) * vol
        if clipped > MAX_CLIP_PER_STEP:
            raise SolverFailureError(
                f"clipped negative mass {clipped:g} exceeds {MAX_CLIP_PER_STEP:g} at step {k}"
            )
        if not clean:
            np.maximum(u_new, 0.0, out=u_new)
            mass_after = u_new.sum() * vol
        u, u_new = u_new, u
        mass_before = mass_series[k] = mass_after
        leak_series[k] = boundary
        clip_series[k] = clipped
        if k + 1 in frame_steps:
            frames.append((t + tau, u.copy()))
    if not n_frames:
        frames.append((T, u.copy()))

    grid.u = u
    return FPSolution(
        grid=grid, s=s, T=T, tau=tau,
        mass_series=mass_series, leak_series=leak_series, clip_series=clip_series,
        audit_residual=audit, frames=frames,
    )


def write_solution_csv(sol, path):
    """Export saved frames as CSV rows (t, x coordinates, u), every value in ``.17g``.

    Axis coordinates and frame times are formatted once; u is formatted and
    written one grid row (last coordinate varying) at a time.
    """
    fmt = "{:.17g}".format
    d = sol.grid.d
    ax = [fmt(x) for x in sol.grid.axis.tolist()]
    # the leading coordinates of each grid row, in row order: "" in d = 1
    leads = ["".join(f"{x}," for x in xs) for xs in itertools.product(ax, repeat=d - 1)]
    with open(path, "w", newline="") as fh:
        fh.write("t,x,u\n" if d == 1 else "t,x1,x2,u\n")
        for t, u in sol.frames:
            ts = fmt(t)
            for lead, row in zip(leads, u.reshape(len(leads), -1)):
                head = f"{ts},{lead}"
                fh.write("".join([f"{head}{x},{fmt(v)}\n" for x, v in zip(ax, row.tolist())]))


# ---------------------------------------------------------------------------
# Monte-Carlo counterpart
# ---------------------------------------------------------------------------

def smooth_bump(center, width):
    """Smooth compactly supported test function exp(1 - 1/(1 - r^2)) on |r| < 1.

    Its ``__name__`` carries the center and width, e.g. ``bump(c=-2,w=1.5)``,
    so weak-error labels tell the test functions apart.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))

    def phi(X):
        X = np.asarray(X, dtype=float)
        r2 = ((X - center) ** 2).sum(axis=-1) / width**2
        out = np.zeros(r2.shape)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    coords = ",".join(f"{c:g}" for c in center)
    if center.size > 1:
        coords = f"({coords})"
    phi.__name__ = f"bump(c={coords},w={width:g})"
    return phi


def mc_measure(field, initials, phi, s, t, dt, seed, threads=1):
    """Monte-Carlo estimate of ∫ E[φ(X_{s,t}(x))] dμ_0(x) with batched stderr."""
    ens = simulate_ensemble(field, s, t, initials, dt, seed, threads=threads)
    return mean_estimate(phi(ens.xT))


@dataclass(frozen=True)
class WeakErrorReport:
    labels: tuple
    fp_values: tuple
    fp_errors: tuple
    mc_values: tuple           # Estimate per test function
    max_discrepancy: float

    def max_combined_bar(self):
        return max(fe + mc.stderr for fe, mc in zip(self.fp_errors, self.mc_values))

    def rows(self):
        return list(zip(self.labels, self.fp_values, self.fp_errors, self.mc_values))


def coarse_companion(h, tau):
    """Cell width and step (2 h, 4 τ) of the coarse companion solve behind ``weak_error``'s refinement spread."""
    return 2 * h, 4 * tau


def weak_error(fp, xT, phis, fp_coarse=None):
    """Max |<φ, u_fp> - MC| over a smooth test set, with both error bars.

    The MC value of each φ is the batched mean of φ at the flow endpoints
    ``xT`` (from ``mc_flows``, where each equals ``mc_measure`` of that φ bit
    for bit).  The PDE-side error bar per test function is the
    grid-refinement spread |<φ, u_h> - <φ, u_2h>| when a coarse companion
    solve is supplied.
    """
    fp_vals, fp_errs, mc_vals, labels = [], [], [], []
    for i, phi in enumerate(phis):
        v = fp.grid.moment(phi)
        fp_vals.append(v)
        fp_errs.append(abs(v - fp_coarse.grid.moment(phi)) if fp_coarse is not None else 0.0)
        mc_vals.append(mean_estimate(phi(xT)))
        labels.append(getattr(phi, "__name__", f"phi_{i}"))
    disc = max(abs(v - m.value) for v, m in zip(fp_vals, mc_vals))
    return WeakErrorReport(
        labels=tuple(labels),
        fp_values=tuple(fp_vals),
        fp_errors=tuple(fp_errs),
        mc_values=tuple(mc_vals),
        max_discrepancy=disc,
    )


def mc_flows(field, trajectories, starts, s, t, dt, seed, threads=1):
    """The endpoints of the weak-error flow and, beside it, of the factorization flow.

    The weak-error flow starts from ``trajectories`` γ_d points; the
    factorization flow from ``starts`` (None for no factorization flow), with
    a ``DensityAccumulator``.  Trajectory j of either flow reads the
    increments of trajectory index j, so both run in one ``simulate_ensemble``
    call and draw each row once: the larger start set is the run and the
    other a ``CompanionFlow`` beside it.  Every endpoint and density weight
    equals, bit for bit, that of a run of its starts alone.  Returns
    (weak endpoints, (starts, endpoints, density record)), or (weak
    endpoints, None) without ``starts``.
    """
    gauss = gaussian_points(seed, trajectories, field.d)
    if starts is None:
        return simulate_ensemble(field, s, t, gauss, dt, seed, threads=threads).xT, None
    rec = DensityAccumulator(dt)
    if starts.shape[0] >= trajectories:
        weak = CompanionFlow(field, gauss, dt)
        ens = simulate_ensemble(field, s, t, starts, dt, seed, threads=threads, accumulators=(rec, weak))
        return weak.xT, (starts, ens.xT, rec)
    factor = CompanionFlow(field, starts, dt, accumulators=(rec,))
    ens = simulate_ensemble(field, s, t, gauss, dt, seed, threads=threads, accumulators=(factor,))
    return ens.xT, (starts, factor.xT, rec)


# ---------------------------------------------------------------------------
# density factorization through the flow weights
# ---------------------------------------------------------------------------

class GridSampler1D:
    """Inverse-CDF sampler for a 1d grid density (cells centered at grid points)."""

    def __init__(self, grid):
        if grid.d != 1:
            raise ConfigError("grid sampling is 1d only")
        self.grid = grid
        p = grid.u * grid.h
        self.total = p.sum()
        self.cdf = np.cumsum(p) / self.total

    def sample(self, n, seed):
        gen = substream(seed, GRID_SAMPLER_STREAM)
        u1 = uniform_open(gen, n)
        u2 = uniform_open(gen, n)
        # the rounded CDF can end below the largest uniform, 1 - 2**-53: that draw takes the last cell
        idx = np.minimum(np.searchsorted(self.cdf, u1), self.cdf.size - 1)
        x = self.grid.axis[idx] + (u2 - 0.5) * self.grid.h
        return x[:, None]

    def log_density(self, x):
        """log of the (piecewise-linear) grid density at points x (n, 1)."""
        vals = np.interp(x[:, 0], self.grid.axis, self.grid.u, left=0.0, right=0.0)
        return np.log(np.maximum(vals, 1e-300))


@dataclass(frozen=True)
class FactorizationReport:
    l1_discrepancy: float
    n_valid_cells: int
    n_flagged_cells: int
    flagged_mass: float
    out_of_domain_fraction: float


def density_factorization(fp, sampler, x0, xT, record):
    """Compare the PDE density against the flow-weight reconstruction k·u0.

    The starts ``x0`` are drawn by ``sampler`` from μ0 (its grid density u0),
    pushed by the flow to ``xT`` with density record ``record`` (from
    ``mc_flows``).  The evolved density is reconstructed per grid cell from
    the accumulated weights: within cell B, the mean of 1/K^{μ0} read at
    push-forward points estimates μ0(B)/μ_t(B), so u_t(B) ≈ u0(B) /
    mean(ρ(y) K~ / ρ(x)).  Cells with fewer than ``MIN_CELL_COUNT`` samples
    are flagged and excluded, not silently averaged.
    """
    def log_gauss(x):
        return -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2.0 * math.pi)

    log_rho_x = sampler.log_density(x0) - log_gauss(x0)
    log_rho_y = sampler.log_density(xT) - log_gauss(xT)
    log_w_inv = record.log_ktilde + log_rho_y - log_rho_x

    grid = sampler.grid
    n_cells = grid.u.shape[0]
    idx = np.round((xT[:, 0] + grid.R) / grid.h).astype(int)
    in_domain = (idx >= 0) & (idx < n_cells)
    frac_out = 1.0 - in_domain.mean()

    w_inv = np.exp(log_w_inv[in_domain])
    cells = idx[in_domain]
    counts = np.bincount(cells, minlength=n_cells)
    sums = np.bincount(cells, weights=w_inv, minlength=n_cells)
    valid = counts >= MIN_CELL_COUNT

    estimate = np.zeros(n_cells)
    mean_inv = np.divide(sums, counts, out=np.ones(n_cells), where=counts > 0)
    np.divide(grid.u, mean_inv, out=estimate, where=valid & (mean_inv > 0))

    fp_u = fp.grid.u
    l1 = float(np.abs(estimate[valid] - fp_u[valid]).sum() * grid.h)
    flagged_mass = float(fp_u[~valid].sum() * grid.h)
    return FactorizationReport(
        l1_discrepancy=l1,
        n_valid_cells=int(valid.sum()),
        n_flagged_cells=int((~valid).sum()),
        flagged_mass=flagged_mass,
        out_of_domain_fraction=float(frac_out),
    )
