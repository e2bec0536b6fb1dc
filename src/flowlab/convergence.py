"""Empirical limit-theorem studies.

Two experiments: the occupation-measure (Krylov-type) functional and its
stability on thin space-time sets, and the convergence of solutions under
coefficient regularization, where every level n shares the trajectory's
Brownian increments (common-noise coupling on one probability space) and is
compared pathwise against the finest level.  Each study is an accumulator
on one ``simulate_ensemble`` run; the coupling's run is the finest level's
flow, beside which its accumulator steps the others.
"""

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import RegularizationLevel, regularize
from .density import Estimate, mean_estimate
from .errors import ConfigError
from .sde import _euler_step, make_grid, simulate_ensemble

__all__ = [
    "CouplingReport",
    "KrylovAccumulator",
    "KrylovReport",
    "SpaceTimeBox",
    "coupling_convergence",
    "krylov_ratio",
    "krylov_ratios",
]


# ---------------------------------------------------------------------------
# occupation functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceTimeBox:
    """Indicator of [t0, t1] x Π [lo_i, hi_i], with an exact L^{d+1} norm."""

    t0: float
    t1: float
    lo: tuple
    hi: tuple

    def __call__(self, t, X):
        X = np.asarray(X, dtype=float)
        inside = np.full(X.shape[:-1], self.t0 <= t <= self.t1)
        for i, (a, b) in enumerate(zip(self.lo, self.hi)):
            inside &= (X[..., i] >= a) & (X[..., i] <= b)
        return inside.astype(float)

    @property
    def volume(self):
        vol = self.t1 - self.t0
        for a, b in zip(self.lo, self.hi):
            vol *= b - a
        return vol

    def norm_d1(self, d):
        return self.volume ** (1.0 / (d + 1))


class KrylovAccumulator:
    """Streaming left-point accumulation of ∫ e^{-λt} f(t, X_t) dt."""

    def __init__(self, f, lam, dt):
        self.f = f
        self.lam = lam
        self.dt = dt
        self.values = None

    def alloc(self, n_traj, zeros):
        self.values = zeros(n_traj)

    def step(self, sl, k, t, X, dW, ev, X_next):
        self.values[sl] += math.exp(-self.lam * t) * np.asarray(self.f(t, X), dtype=float) * self.dt


@dataclass(frozen=True)
class KrylovReport:
    functional: Estimate
    norm: float
    ratio: float


def krylov_ratio(field, f, lam, s, T, x0, dt, seed, n_traj, threads=1, f_norm=None):
    """Monte-Carlo occupation functional, its L^{d+1} norm and their ratio.

    The ratio is an empirical lower bound on the constant in the occupation
    estimate; no value of that constant is certified.  ``f_norm`` must be
    supplied for general integrands; ``SpaceTimeBox`` carries its own.
    """
    return krylov_ratios(field, [f], lam, s, T, x0, dt, seed, n_traj, threads=threads,
                         f_norms=None if f_norm is None else [f_norm])[0]


def krylov_ratios(field, fs, lam, s, T, x0, dt, seed, n_traj, threads=1, f_norms=None):
    """``krylov_ratio`` for every integrand in ``fs`` over one shared ensemble.

    The flow is simulated once with one ``KrylovAccumulator`` per integrand,
    so each report equals ``krylov_ratio`` of that integrand bit for bit.
    ``f_norms`` gives one norm per integrand; without it every integrand must
    be a ``SpaceTimeBox``, which carries its own.
    """
    if f_norms is None:
        if not all(isinstance(f, SpaceTimeBox) for f in fs):
            raise ConfigError("krylov_ratio needs f_norm (or a SpaceTimeBox integrand)")
        f_norms = [f.norm_d1(field.d) for f in fs]
    if len(f_norms) != len(fs):
        raise ConfigError(f"{len(fs)} integrands but {len(f_norms)} norms")
    accs = [KrylovAccumulator(f, lam, dt) for f in fs]
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    simulate_ensemble(
        field, s, T, x0, dt, seed,
        replicas=n_traj, threads=threads, accumulators=accs,
    )
    reports = []
    for acc, norm in zip(accs, f_norms):
        functional = mean_estimate(acc.values)
        ratio = functional.value / norm if norm > 0 else 0.0
        reports.append(KrylovReport(functional=functional, norm=norm, ratio=ratio))
    return reports


# ---------------------------------------------------------------------------
# coupling of regularization levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouplingReport:
    levels: tuple
    n_ref: int
    seed: int
    deviations: tuple        # Estimate of E sup_t |X^n - X^{ref}| per level
    monotone_steps: int      # count of strict decreases between consecutive levels
    final_over_first: float

    def rows(self):
        return list(zip(self.levels, self.deviations))


class _CouplingAccumulator:
    """Regularization levels stepped beside the reference flow under its increments.

    Per trajectory it carries the level states across steps (levels x n_traj
    x d, so each level's rows of a chunk are contiguous; started at the
    reference's start) and keeps the running sup of |X^n - X^{ref}| per level.
    """

    def __init__(self, fields, d, dt):
        self.fields = fields
        self.d = d
        self.dt = dt

    def alloc(self, n_traj, zeros):
        self.Y = zeros((len(self.fields), n_traj, self.d))
        self.sup_dev = zeros((len(self.fields), n_traj))

    def step(self, sl, k, t, X, dW, ev, X_next):
        Y = self.Y[:, sl]
        if k == 0:
            Y[:] = X
        for li, fl in enumerate(self.fields):
            Y[li] = _euler_step(fl, k, t, Y[li], dW, self.dt)[1]
        dev = self.sup_dev[:, sl]
        np.maximum(dev, np.linalg.norm(Y - X_next, axis=-1), out=dev)


def coupling_convergence(
    field, n_list, n_ref, s, T, initials, dt, seed, quad,
    replicas=1, threads=1,
):
    """Pathwise deviation of regularization levels from the finest level.

    All levels of one trajectory share the same Brownian increments (one
    counter range per trajectory index), realizing the limit statement on a
    single probability space; the finest level stands in for the true
    solution.  The reference level is the flow ``simulate_ensemble`` runs
    and the other levels are stepped beside it by an accumulator.  Returns
    per-level E sup_{t<=T} |X^n_t - X^{ref}_t|.  The reference steps first:
    when it and a level explode at the same step, the ``ExplosionError``
    names the reference's rows.
    """
    levels = sorted(n_list)
    if levels and levels[-1] > n_ref:
        raise ConfigError("reference level must be the finest")
    make_grid(s, T, dt)  # a coupling needs at least one step
    *fields, ref = [regularize(field, RegularizationLevel(n), quad) for n in levels + [n_ref]]
    acc = _CouplingAccumulator(fields, field.d, dt)
    simulate_ensemble(ref, s, T, initials, dt, seed, replicas=replicas, threads=threads,
                      accumulators=(acc,))

    deviations = tuple(mean_estimate(dev) for dev in acc.sup_dev)
    values = [e.value for e in deviations]
    monotone = sum(1 for a, b in zip(values[:-1], values[1:]) if b < a)
    ratio = values[-1] / values[0] if values and values[0] > 0 else 0.0
    return CouplingReport(
        levels=tuple(levels),
        n_ref=n_ref,
        seed=seed,
        deviations=deviations,
        monotone_steps=monotone,
        final_over_first=ratio,
    )
