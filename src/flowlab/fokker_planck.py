"""Finite-difference Fokker-Planck solver and its Monte-Carlo counterpart.

The forward equation  ∂_t u = (1/2) Σ_ij ∂_i ∂_j (a^ij u) - Σ_i ∂_i (b^i u),
a = σσ*, is discretized in conservative flux form on a truncated cube
[-R, R]^d (d = 1 or 2): centered differences on the divergence-form
diffusion, first-order upwinding on the advection, explicit Euler in time,
absorbing boundary (ghost cells at zero).  Every term is a face flux, so the
interior update telescopes exactly and the per-step mass change equals the
recorded boundary flux up to float roundoff; truncation losses are reported,
never hidden.  Negative undershoots are clipped and accounted separately.

One step serves d = 1 and 2, one axis at a time; only the cross term of the
fluxes depends on d.  It is built once per coefficient refresh (once per
solve unless σ or b depends on time): the upwind split of the face
velocities, contiguous copies of the a^ii and, only in d = 2 when a12 has a
nonzero entry at that refresh, the cross term.  The zero-bordered padded
planes and face-flux buffers are allocated once per solve; every step fills
their interiors in place, in the operation order of the flux formula, so
each float equals that of the plain array expression (the step's
docstring says why its folded scalings and the skipped zero cross term
change no bit).  Grid points, initial densities and CSV frames likewise
share one layout (last coordinate fastest) in either dimension.

The PDE side is deliberately modest (d <= 2, explicit stepping with the
stability bound τ <= h^2 / (2 d max||a|| + h max|b|)); it exists as an
independent check of the flow ensembles, not as a production PDE code.
"""

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .density import mean_estimate, run_density_ensemble
from .errors import ConfigError, SolverFailureError
from .rng import GRID_SAMPLER_STREAM, substream, uniform_open
from .sde import make_grid, simulate_ensemble

__all__ = [
    "FPGrid",
    "FPSolution",
    "FactorizationReport",
    "GridSampler1D",
    "WeakErrorReport",
    "density_factorization",
    "diffusion_matrix",
    "fp_solve",
    "mc_measure",
    "smooth_bump",
    "stable_coefficients",
    "weak_error",
    "write_solution_csv",
]


def diffusion_matrix(field, t, X):
    """a(t, x) = σ(t, x) σ(t, x)* in R^{d x d}."""
    sig = np.asarray(field.sigma(t, X), dtype=float)
    return np.einsum("...am,...bm->...ab", sig, sig)


def _mesh(axis, d):
    """The n^d tensor points of ``axis`` as rows of an (n^d, d) array, last coordinate fastest."""
    return np.stack([g.ravel() for g in np.meshgrid(*[axis] * d, indexing="ij")], axis=-1)


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
        # np.arange(-R, R + h/2, h), not the ``axis`` property: the two differ in
        # the last bits (318 of 321 points on R = 8, h = 0.05), and every solve
        # starts from these values, so switching would change every FP output byte
        axis = np.arange(-R, R + h / 2, h)
        u = np.asarray(density(_mesh(axis, d)), dtype=float).reshape((axis.size,) * d)
        grid = cls(d=d, R=R, h=h, u=np.maximum(u, 0.0))
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
        return _mesh(self.axis, self.d)

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


def _upwind_split(bf):
    """max(bf, 0) and min(bf, 0): the face velocities that carry the cell below and above."""
    return np.maximum(bf, 0.0), np.minimum(bf, 0.0)


def _along(p, axis, index, rest=slice(None)):
    """View of ``p`` at ``index`` along ``axis`` and at ``rest`` along every other axis."""
    idx = [rest] * p.ndim
    idx[axis] = index
    return p[(*idx, ...)]


def _scratch(d, n):
    """Buffers of the step on an n^d grid, allocated once per solve.

    Zero-bordered (n + 2)^d planes hold u, G (a12 u, then a^ii u) and, in
    d = 2 only, the two cross derivatives; one face-flux array per axis and
    two work arrays hold n^(d-1) (n + 1) values each.  Steps write only
    interiors, so the borders stay the zero ghost cells.
    """
    planes = [np.zeros((n + 2,) * d) for _ in range(2 + d * (d - 1))]
    faces = [np.empty(tuple(n + (j == i) for j in range(d))) for i in range(d)]
    work = [np.empty(n ** (d - 1) * (n + 1)) for _ in range(2)]
    return planes, faces, work


def _build_step(a, b, h, tau, scratch):
    """The conservative step for a (n^d, d, d) and b (n^d, d) held fixed, d = 1 or 2.

    ``step(u, out)`` writes the stepped density into ``out`` and returns the
    mass that left the domain.  The face flux along each axis is
    (G+ - G-) / (2h) + 0.25 (c+ + c-) - (pos u- + neg u+), G = a^ii u and c
    the centered derivative of a12 u along the other axis, evaluated in that
    order in the buffers of ``scratch``.  The cell update sums the axes' flux
    differences, then scales by τ / h and adds u.

    These are the floats of (0.5 (G+ - G-)) / h + 0.5 (0.5 (c+ + c-)):
    halving a float and doubling h are exact, so both forms round one and
    the same real quotient, and 0.25 x is two exact halvings (while the
    halved values stay above the subnormal range, 2^-1022).  The cross term
    is built only in d = 2 and only when a12 has a nonzero entry at this
    refresh.  Its zeros would change no bit: u >= +0 after every clip, so G
    and each (G+ - G-) are +0 or nonzero, and adding ±0 leaves them as they
    are.
    """
    (upad, gpad, *cpads), faces, (w1, w2) = scratch
    d, n = b.shape[-1], b.shape[0]
    hi, lo, inner = slice(1, None), slice(None, -1), (slice(1, -1),) * d

    def face(p, i, index):
        """The padded plane p at ``index`` along axis i and at its interior along the others."""
        return _along(p, i, index, slice(1, -1))

    u_in, g_in = upad[inner], gpad[inner]
    a12 = np.ascontiguousarray(a[..., 0, 1]) if d == 2 and np.any(a[..., 0, 1]) else None
    # plane i: the centered derivative of G12 = a12 u along the other axis, for axis i's flux
    cross = [(c[inner], face(gpad, 1 - i, slice(2, None)), face(gpad, 1 - i, slice(None, -2)))
             for i, c in enumerate(cpads)] if a12 is not None else []
    # per axis: flux, a^ii, G+, G-, c+, c- (None without the cross term), pos, u-, neg, u+, work arrays
    axes = []
    for i, F in enumerate(faces):
        # face velocities: b^i edge-extended, averaged across each face and split upwind
        bpad = np.pad(b[..., i], 1, mode="edge")
        pos, neg = _upwind_split(0.5 * (face(bpad, i, hi) + face(bpad, i, lo)))
        c_hi, c_lo = (face(cpads[i], i, hi), face(cpads[i], i, lo)) if cross else (None, None)
        axes.append((F, np.ascontiguousarray(a[..., i, i]), face(gpad, i, hi), face(gpad, i, lo),
                     c_hi, c_lo, pos, face(upad, i, lo), neg, face(upad, i, hi),
                     w1.reshape(F.shape), w2.reshape(F.shape)))
    (first_hi, first_lo), *other_cells = [(_along(F, i, hi), _along(F, i, lo)) for i, F in enumerate(faces)]
    edges = [(_along(F, i, -1), _along(F, i, 0)) for i, F in enumerate(faces)]
    w_cells = w1[: n**d].reshape(u_in.shape)
    two_h = 2.0 * h
    lead = -tau * h ** (d - 1)

    def step(u, out):
        u_in[...] = u
        if cross:
            np.multiply(a12, u, out=g_in)
            for c_in, g_hi, g_lo in cross:
                np.subtract(g_hi, g_lo, out=c_in)
                np.divide(c_in, two_h, out=c_in)
        for F, a_ii, g_hi, g_lo, c_hi, c_lo, pos, u_lo, neg, u_hi, wa, wb in axes:
            np.multiply(a_ii, u, out=g_in)
            np.subtract(g_hi, g_lo, out=F)
            F /= two_h
            if c_hi is not None:
                np.add(c_hi, c_lo, out=wa)
                wa *= 0.25
                F += wa
            np.multiply(pos, u_lo, out=wa)
            np.multiply(neg, u_hi, out=wb)
            wa += wb
            F -= wa
        np.subtract(first_hi, first_lo, out=out)
        for F_hi, F_lo in other_cells:
            np.subtract(F_hi, F_lo, out=w_cells)
            out += w_cells
        out *= tau / h
        out += u
        # summed from the first axis's term, not from 0, which would turn a -0.0 into +0.0
        outflow = [(last - first).sum() for last, first in edges]
        return lead * sum(outflow[1:], outflow[0])

    return step


def fp_solve(field, grid0, s, T, tau, max_clip_per_step=1e-6, n_frames=0):
    """Evolve the grid density from s to T; see the module docstring.

    ``frames`` holds the start and, with ``n_frames`` > 0, frame i = 1 ..
    ``n_frames`` after step round(i n_steps / n_frames), so exactly
    ``n_frames`` frames whenever n_frames <= n_steps; with 0, only the end.
    Raises ``ConfigError`` when τ violates the stability bound (checked by
    ``stable_coefficients`` at every coefficient refresh) and
    ``SolverFailureError`` when a step clips more than ``max_clip_per_step``
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
    shape = grid.u.shape
    d = grid.d
    scratch = _scratch(d, shape[0])

    def build_step(t):
        """The step for the coefficients at t, once τ is checked against the stability bound there."""
        a, b = stable_coefficients(field, t, pts, grid.h, tau)
        return _build_step(a.reshape(shape + (d, d)), b.reshape(shape + (d,)), grid.h, tau, scratch)

    step = build_step(s)

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
            step = build_step(t)
        boundary = step(u, u_new)
        mass_after = u_new.sum() * vol
        audit = max(audit, abs((mass_after - mass_before) + boundary))
        clipped = -float(u_new[u_new < 0].sum()) * vol
        if clipped > max_clip_per_step:
            raise SolverFailureError(
                f"clipped negative mass {clipped:g} exceeds {max_clip_per_step:g} at step {k}"
            )
        np.maximum(u_new, 0.0, out=u_new)
        u, u_new = u_new, u
        mass_before = mass_series[k] = u.sum() * vol
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
    phi.support_radius = width
    phi.center = center
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


def weak_error(fp, field, initials, phis, s, t, dt, seed, threads=1, fp_coarse=None):
    """Max |<φ, u_fp> - MC| over a smooth test set, with both error bars.

    The PDE-side error bar per test function is the grid-refinement spread
    |<φ, u_h> - <φ, u_2h>| when a coarse companion solve is supplied.  The
    flow ensemble is simulated once and every φ is read off its endpoints,
    so each MC value equals ``mc_measure`` of that φ bit for bit.
    """
    ens = simulate_ensemble(field, s, t, initials, dt, seed, threads=threads)
    fp_vals, fp_errs, mc_vals, labels = [], [], [], []
    for i, phi in enumerate(phis):
        v = fp.grid.moment(phi)
        fp_vals.append(v)
        fp_errs.append(abs(v - fp_coarse.grid.moment(phi)) if fp_coarse is not None else 0.0)
        mc_vals.append(mean_estimate(phi(ens.xT)))
        labels.append(getattr(phi, "__name__", f"phi_{i}"))
    disc = max(abs(v - m.value) for v, m in zip(fp_vals, mc_vals))
    return WeakErrorReport(
        labels=tuple(labels),
        fp_values=tuple(fp_vals),
        fp_errors=tuple(fp_errs),
        mc_values=tuple(mc_vals),
        max_discrepancy=disc,
    )


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
        idx = np.searchsorted(self.cdf, u1)
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
    estimate: np.ndarray
    fp_values: np.ndarray


def density_factorization(field, u0_grid, fp, s, t, n_samples, dt, seed,
                          min_count=10, threads=1):
    """Compare the PDE density against the flow-weight reconstruction k·u0.

    Starts x_i ~ μ0 (the grid density u0), pushes them through the flow and
    reconstructs the evolved density per grid cell from the accumulated
    weights: within cell B, the mean of 1/K^{μ0} read at push-forward points
    estimates μ0(B)/μ_t(B), so u_t(B) ≈ u0(B) / mean(ρ(y) K~ / ρ(x)).  Cells
    with fewer than ``min_count`` samples are flagged and excluded, not
    silently averaged.
    """
    if u0_grid.d != 1:
        raise ConfigError("density factorization is implemented for d = 1")
    sampler = GridSampler1D(u0_grid)
    x0 = sampler.sample(n_samples, seed)
    ens, rec = run_density_ensemble(field, s, t, x0, dt, seed, threads=threads)

    def log_gauss(x):
        return -0.5 * x[:, 0] ** 2 - 0.5 * math.log(2.0 * math.pi)

    log_rho_x = sampler.log_density(x0) - log_gauss(x0)
    log_rho_y = sampler.log_density(ens.xT) - log_gauss(ens.xT)
    log_w_inv = rec.log_ktilde + log_rho_y - log_rho_x

    grid = u0_grid
    n_cells = grid.u.shape[0]
    idx = np.round((ens.xT[:, 0] + grid.R) / grid.h).astype(int)
    in_domain = (idx >= 0) & (idx < n_cells)
    frac_out = 1.0 - in_domain.mean()

    w_inv = np.exp(log_w_inv[in_domain])
    cells = idx[in_domain]
    counts = np.bincount(cells, minlength=n_cells)
    sums = np.bincount(cells, weights=w_inv, minlength=n_cells)
    valid = counts >= min_count

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
        estimate=estimate,
        fp_values=fp_u,
    )
