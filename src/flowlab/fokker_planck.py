"""Finite-difference Fokker-Planck solver and its Monte-Carlo counterpart.

The forward equation  ∂_t u = (1/2) Σ_ij ∂_i ∂_j (a^ij u) - Σ_i ∂_i (b^i u),
a = σσ*, is discretized in conservative flux form on a truncated cube
[-R, R]^d (d = 1 or 2): centered differences on the divergence-form
diffusion, first-order upwinding on the advection, explicit Euler in time,
absorbing boundary (ghost cells at zero).  Every term is a face flux, so the
interior update telescopes exactly and the per-step mass change equals the
recorded boundary flux up to float roundoff; truncation losses are reported,
never hidden.  Negative undershoots are clipped and accounted separately.

The PDE side is deliberately modest (d <= 2, explicit stepping with the
stability bound τ <= h^2 / (2 d max||a|| + h max|b|)); it exists as an
independent check of the flow ensembles, not as a production PDE code.
"""

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .density import Estimate, batch_statistic, run_density_ensemble
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
    "suggest_radius",
    "weak_error",
    "write_solution_csv",
]


def diffusion_matrix(field, t, X):
    """a(t, x) = σ(t, x) σ(t, x)* in R^{d x d}."""
    sig = np.asarray(field.sigma(t, X), dtype=float)
    return np.einsum("...am,...bm->...ab", sig, sig)


def suggest_radius(field, T, tail_mass=1e-8):
    """Truncation radius: γ_d tail below ``tail_mass`` plus drift excursion."""
    from scipy.special import ndtri

    r_gauss = -ndtri(tail_mass / (2.0 * field.d))
    return float(r_gauss + field.growth_const * T + math.sqrt(field.d))


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
        axis = np.arange(-R, R + h / 2, h)
        if d == 1:
            pts = axis[:, None]
            u = np.asarray(density(pts), dtype=float)
        else:
            gx, gy = np.meshgrid(axis, axis, indexing="ij")
            pts = np.stack([gx.ravel(), gy.ravel()], axis=-1)
            u = np.asarray(density(pts), dtype=float).reshape(gx.shape)
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
        ax = self.axis
        if self.d == 1:
            return ax[:, None]
        gx, gy = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=-1)

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


def _step_1d(u, a, b, h, tau):
    """One conservative step; returns (u_new, boundary_outflow)."""
    G = a * u
    # faces 0..N: ghost cells are zero
    Gpad = np.concatenate([[0.0], G, [0.0]])
    upad = np.concatenate([[0.0], u, [0.0]])
    bpad = np.concatenate([[b[0]], b, [b[-1]]])
    bf = 0.5 * (bpad[:-1] + bpad[1:])
    diff_flux = 0.5 * (Gpad[1:] - Gpad[:-1]) / h
    adv_flux = np.maximum(bf, 0.0) * upad[:-1] + np.minimum(bf, 0.0) * upad[1:]
    F = diff_flux - adv_flux
    u_new = u + (tau / h) * (F[1:] - F[:-1])
    boundary = -tau * (F[-1] - F[0])  # mass leaving the domain
    return u_new, boundary


def _step_2d(u, a, b, h, tau):
    a11, a12, a22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
    b1, b2 = b[..., 0], b[..., 1]
    G11, G12, G22 = a11 * u, a12 * u, a22 * u

    def pad(v, axis):
        shape = list(v.shape)
        shape[axis] = 1
        z = np.zeros(shape)
        return np.concatenate([z, v, z], axis=axis)

    def centered(v, axis):
        vp = pad(v, axis)
        if axis == 0:
            return (vp[2:, :] - vp[:-2, :]) / (2.0 * h)
        return (vp[:, 2:] - vp[:, :-2]) / (2.0 * h)

    def edge_extend(v, axis):
        if axis == 0:
            return np.concatenate([v[:1, :], v, v[-1:, :]], axis=0)
        return np.concatenate([v[:, :1], v, v[:, -1:]], axis=1)

    def face_flux(G_diag, cross_term, bvel, uv, axis):
        Gp = pad(G_diag, axis)
        up = pad(uv, axis)
        cp = pad(cross_term, axis)
        bp = edge_extend(bvel, axis)
        if axis == 0:
            diff = 0.5 * (Gp[1:, :] - Gp[:-1, :]) / h
            cross = 0.5 * (cp[1:, :] + cp[:-1, :])
            bf = 0.5 * (bp[1:, :] + bp[:-1, :])
            adv = np.maximum(bf, 0.0) * up[:-1, :] + np.minimum(bf, 0.0) * up[1:, :]
        else:
            diff = 0.5 * (Gp[:, 1:] - Gp[:, :-1]) / h
            cross = 0.5 * (cp[:, 1:] + cp[:, :-1])
            bf = 0.5 * (bp[:, 1:] + bp[:, :-1])
            adv = np.maximum(bf, 0.0) * up[:, :-1] + np.minimum(bf, 0.0) * up[:, 1:]
        return diff + 0.5 * cross - adv

    DyG12 = centered(G12, 1)
    DxG12 = centered(G12, 0)
    Fx = face_flux(G11, DyG12, b1, u, axis=0)
    Fy = face_flux(G22, DxG12, b2, u, axis=1)
    u_new = u + (tau / h) * ((Fx[1:, :] - Fx[:-1, :]) + (Fy[:, 1:] - Fy[:, :-1]))
    boundary = -tau * h * (
        (Fx[-1, :] - Fx[0, :]).sum() + (Fy[:, -1] - Fy[:, 0]).sum()
    )
    return u_new, boundary


def fp_solve(field, grid0, s, T, tau, max_clip_per_step=1e-6, n_frames=0):
    """Evolve the grid density from s to T; see the module docstring.

    Raises ``ConfigError`` when τ violates the stability bound (checked at
    every coefficient refresh) and ``SolverFailureError`` when a step clips
    more than ``max_clip_per_step`` of negative mass.
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

    def coeffs(t):
        """a and b on the grid at t, once τ is checked against the stability bound there."""
        a = diffusion_matrix(field, t, pts)
        b = np.asarray(field.b(t, pts), dtype=float)
        bound = _stability_bound(a, b, grid.h)
        if tau > bound * (1 + 1e-12):
            raise ConfigError(f"tau={tau:g} violates the stability bound {bound:g} at t={t:g}")
        if grid.d == 1:
            return a.reshape(-1), b.reshape(-1)
        return a.reshape(shape + (2, 2)), b.reshape(shape + (2,))

    a_cur, b_cur = coeffs(s)

    vol = grid.h**grid.d
    mass_series = np.empty(n_steps)
    leak_series = np.empty(n_steps)
    clip_series = np.empty(n_steps)
    audit = 0.0
    frame_every = max(1, n_steps // n_frames) if n_frames else 0
    frames = [(s, grid.u.copy())]

    u = grid.u
    for k in range(n_steps):
        t = s + k * tau
        if time_dep and k > 0:
            a_cur, b_cur = coeffs(t)
        mass_before = u.sum() * vol
        if grid.d == 1:
            u_new, boundary = _step_1d(u, a_cur, b_cur, grid.h, tau)
        else:
            u_new, boundary = _step_2d(u, a_cur, b_cur, grid.h, tau)
        mass_after = u_new.sum() * vol
        audit = max(audit, abs((mass_after - mass_before) + boundary))
        clipped = -float(u_new[u_new < 0].sum()) * vol
        if clipped > max_clip_per_step:
            raise SolverFailureError(
                f"clipped negative mass {clipped:g} exceeds {max_clip_per_step:g} at step {k}"
            )
        np.maximum(u_new, 0.0, out=u_new)
        u = u_new
        mass_series[k] = u.sum() * vol
        leak_series[k] = boundary
        clip_series[k] = clipped
        if frame_every and ((k + 1) % frame_every == 0 or k == n_steps - 1):
            frames.append((t + tau, u.copy()))
    if not frame_every:
        frames.append((T, u.copy()))

    grid.u = u
    return FPSolution(
        grid=grid, s=s, T=T, tau=tau,
        mass_series=mass_series, leak_series=leak_series, clip_series=clip_series,
        audit_residual=audit, frames=frames,
    )


def write_solution_csv(sol, path):
    """Export saved frames as CSV rows (t, x coordinates, u)."""
    ax = sol.grid.axis
    with open(path, "w", newline="") as fh:
        if sol.grid.d == 1:
            fh.write("t,x,u\n")
            for t, u in sol.frames:
                for x, v in zip(ax, u):
                    fh.write(f"{t:.17g},{x:.17g},{v:.17g}\n")
        else:
            fh.write("t,x1,x2,u\n")
            for t, u in sol.frames:
                for i, x1 in enumerate(ax):
                    for j, x2 in enumerate(ax):
                        fh.write(f"{t:.17g},{x1:.17g},{x2:.17g},{u[i, j]:.17g}\n")


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


def _pushforward_mean(phi, xT):
    """Batched-stderr estimate of the mean of φ over the endpoints ``xT``."""
    return batch_statistic(np.asarray(phi(xT), dtype=float), lambda v: float(np.mean(v)))


def mc_measure(field, initials, phi, s, t, dt, seed, replicas=1, threads=1):
    """Monte-Carlo estimate of ∫ E[φ(X_{s,t}(x))] dμ_0(x) with batched stderr."""
    ens = simulate_ensemble(field, s, t, initials, dt, seed, replicas=replicas, threads=threads)
    return _pushforward_mean(phi, ens.xT)


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


def weak_error(fp, field, initials, phis, s, t, dt, seed, replicas=1, threads=1, fp_coarse=None):
    """Max |<φ, u_fp> - MC| over a smooth test set, with both error bars.

    The PDE-side error bar per test function is the grid-refinement spread
    |<φ, u_h> - <φ, u_2h>| when a coarse companion solve is supplied.  The
    flow ensemble is simulated once and every φ is read off its endpoints,
    so each MC value equals ``mc_measure`` of that φ bit for bit.
    """
    ens = simulate_ensemble(field, s, t, initials, dt, seed, replicas=replicas, threads=threads)
    fp_vals, fp_errs, mc_vals, labels = [], [], [], []
    for i, phi in enumerate(phis):
        v = fp.grid.moment(phi)
        fp_vals.append(v)
        fp_errs.append(abs(v - fp_coarse.grid.moment(phi)) if fp_coarse is not None else 0.0)
        mc_vals.append(_pushforward_mean(phi, ens.xT))
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
