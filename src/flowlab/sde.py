"""Euler-Maruyama flow simulation with deterministic substreams.

Each trajectory owns a counter-based random substream keyed by
``(seed, trajectory index)``, so ensembles are bitwise reproducible for a
fixed ``(seed, dt, grid)`` at any worker count.

One package-private driver is the only place where chunks, threads and
trajectory noise are handled: ``_run_chunks`` partitions trajectories into
chunks whose boundaries depend only on the problem size, draws each chunk's
increments in one block (bit for bit the per-trajectory substreams, see
:mod:`flowlab.rng`) and runs the caller's body on it, serially or on a thread
pool; bodies write into disjoint slices of preallocated arrays, and per-chunk
results come back in chunk order for the caller to reduce.  ``_euler`` is the
only Euler step and the only place coefficients are evaluated along a path:
one ``CoefficientField.evaluate`` per field per step, whose σ and b step the
state and whose bundle the step's observer reads.  It advances one state per
field under shared increments and guards every path against explosion.
``simulate_ensemble`` and the regularization coupling are the two callers of
``_run_chunks``.  Every path functional (the density weight, the occupation
functional, the stochastic integrals, the modulus of continuity) is an
accumulator streamed through ``simulate_ensemble``.

The scheme is plain Euler-Maruyama with left-endpoint coefficient evaluation
(the Ito convention), which is the discretization matching the density
accumulation in :mod:`flowlab.density`.  Higher-order schemes are deliberately
not offered: the drift may be discontinuous.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExplosionError
from .rng import brownian_increments, gaussian_points

__all__ = [
    "FlowEnsemble",
    "empirical_modulus",
    "make_grid",
    "simulate_ensemble",
]

EXPLOSION_RADIUS = 1e8
_CHUNK_BUDGET = 1 << 22  # floats of increment storage per chunk


def make_grid(s, T, dt):
    """Number of uniform steps covering [s, T]; dt must divide the horizon."""
    if dt <= 0 or T <= s:
        raise ConfigError("need dt > 0 and T > s")
    n_steps = int(round((T - s) / dt))
    if n_steps < 1 or abs(s + n_steps * dt - T) > 1e-9 * max(1.0, T - s):
        raise ConfigError(f"dt={dt} does not divide the horizon [{s}, {T}]")
    return n_steps


@dataclass
class FlowEnsemble:
    """Trajectories of the flow from a set of starts under replicated noise."""

    field_name: str
    s: float
    T: float
    dt: float
    seed: int
    x0: np.ndarray            # (n_traj, d), replicas already expanded
    xT: np.ndarray            # (n_traj, d)
    n_initials: int
    replicas: int

    @property
    def n_traj(self):
        return self.x0.shape[0]

    @property
    def n_steps(self):
        return int(round((self.T - self.s) / self.dt))


def _chunk_edges(n_traj, n_steps, m):
    size = max(64, min(8192, _CHUNK_BUDGET // max(n_steps * m, 1)))
    edges = list(range(0, n_traj, size)) + [n_traj]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _run_chunks(n_traj, n_steps, m, dt, seed, body, threads=1):
    """Run ``body(lo, hi, inc)`` on every trajectory chunk; results in chunk order.

    ``inc`` holds the increments of substreams lo .. hi-1, drawn in one
    ``brownian_increments`` call per chunk.  Chunks run on a pool of
    ``threads`` workers when there is more than one chunk.  A chunk whose
    body raises ``ExplosionError`` stops there while the others run to the
    end; then one error names the earliest step and every exploded index.
    """
    failures = []

    def run(edge):
        lo, hi = edge
        try:
            return body(lo, hi, brownian_increments(seed, range(lo, hi), n_steps, m, dt))
        except ExplosionError as exc:
            failures.append((exc.step, [lo + i for i in exc.indices]))

    chunks = _chunk_edges(n_traj, n_steps, m)
    if threads > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = [run(c) for c in chunks]
    if failures:
        step = min(f[0] for f in failures)
        indices = sorted(i for f in failures for i in f[1])
        raise ExplosionError(
            f"{len(indices)} trajectories exploded (earliest step {step})",
            step=step,
            indices=indices,
        )
    return results


def _euler(fields, X, inc, s, dt, n_steps, on_step=None):
    """Advance one state per field from X under the shared increments ``inc``.

    Step k evaluates each field once, ev = ``evaluate(t_k, X)``, and maps X to
    X + ev.sigma dW_k + ev.b dt with t_k = s + k dt and dW_k = inc[:, k], for
    k in 0 .. n_steps-1.  ``on_step(k, t_k, before, evs, after)`` then sees
    the left-point states, their bundles and the stepped states, one per
    field.  A non-finite state or one beyond ``EXPLOSION_RADIUS`` raises
    ``ExplosionError`` with the step and the exploded rows.  Returns the final
    states.
    """
    states = [X] * len(fields)
    for k in range(n_steps):
        t = s + k * dt
        dW = inc[:, k, :]
        evs, new = [], []
        for fl, Y in zip(fields, states):
            ev = fl.evaluate(t, Y)
            Y = Y + np.einsum("nam,nm->na", ev.sigma, dW) + ev.b * dt
            # one whole-array test per step; NaN fails the comparison too
            if not np.abs(Y).max() <= EXPLOSION_RADIUS:
                bad = ~np.isfinite(Y).all(axis=1) | (np.abs(Y).max(axis=1) > EXPLOSION_RADIUS)
                rows = np.where(bad)[0].tolist()
                raise ExplosionError(
                    f"{len(rows)} trajectories exploded at step {k + 1}", step=k + 1, indices=rows
                )
            evs.append(ev)
            new.append(Y)
        if on_step is not None:
            on_step(k, t, states, evs, new)
        states = new
    return states


def _resolve_initials(initials, d, seed):
    """Initial points: explicit array or ('gaussian', count)."""
    if isinstance(initials, tuple) and initials[0] == "gaussian":
        return gaussian_points(seed, initials[1], d)
    arr = np.asarray(initials, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[1] != d:
        raise ConfigError(f"initial points have dimension {arr.shape[1]}, field has {d}")
    return arr


def simulate_ensemble(field, s, T, initials, dt, seed, replicas=1, threads=1, accumulators=()):
    """Run the flow for every (initial point, noise replica) pair.

    ``initials`` is an (n0, d) array or ``("gaussian", n0)`` for γ_d starts
    drawn from a reserved substream.  Trajectory j uses initial point
    ``j // replicas`` and Brownian substream index j.

    ``accumulators`` stream path functionals: each has ``alloc(n_traj)``,
    called once before the run, and ``step(sl, k, t, X, dW, ev, X_next)``,
    called at every step k of every chunk with the chunk's trajectory slice
    ``sl``, t = s + k dt, the left-point states X, the increments dW of that
    step, the step's coefficient bundle ``ev`` = ``field.evaluate(t, X)``
    (see ``CoefficientValues``) and the stepped states X_next.  An
    accumulator keeps its per-trajectory results in arrays it allocates and
    writes only the entries of the trajectories in ``sl``, so chunks on
    different threads never touch the same entry; callers read those arrays
    after the run.

    ``T == s`` yields the degenerate ensemble (endpoints equal the starts,
    accumulators see no steps); otherwise dt must divide [s, T] (``make_grid``).
    """
    n_steps = make_grid(s, T, dt) if T != s else 0
    x_init = _resolve_initials(initials, field.d, seed)
    n0 = x_init.shape[0]
    n_traj = n0 * replicas
    x0 = np.repeat(x_init, replicas, axis=0)
    xT = np.empty_like(x0)
    for acc in accumulators:
        acc.alloc(n_traj)

    def body(lo, hi, inc):
        sl = slice(lo, hi)

        def record(k, t, before, evs, after):
            for acc in accumulators:
                acc.step(sl, k, t, before[0], inc[:, k, :], evs[0], after[0])

        xT[sl] = _euler([field], x0[sl], inc, s, dt, n_steps, record)[0]

    _run_chunks(n_traj, n_steps, field.m, dt, seed, body, threads)
    return FlowEnsemble(
        field_name=field.name,
        s=s,
        T=T,
        dt=dt,
        seed=seed,
        x0=x0,
        xT=xT,
        n_initials=n0,
        replicas=replicas,
    )


class _ModulusAccumulator:
    """Running per-coordinate max and min of the states over windows anchored at s.

    Window i holds the states X_0 .. X_{k_i} for ascending step counts k_i:
    n_traj x windows x d x 2 floats, where the states themselves would take
    n_traj x (n_steps + 1) x d.
    """

    def __init__(self, window_steps, d):
        self.window_steps = window_steps
        self.d = d

    def alloc(self, n_traj):
        self.hi = np.empty((n_traj, len(self.window_steps), self.d))
        self.lo = np.empty_like(self.hi)

    def step(self, sl, k, t, X, dW, ev, X_next):
        hi, lo = self.hi[sl], self.lo[sl]
        if k == 0:
            hi[:] = X[:, None, :]
            lo[:] = X[:, None, :]
        first = np.searchsorted(self.window_steps, k + 1)  # windows still open at X_{k+1}
        np.maximum(hi[:, first:], X_next[:, None, :], out=hi[:, first:])
        np.minimum(lo[:, first:], X_next[:, None, :], out=lo[:, first:])


def empirical_modulus(field, s, window_lengths, initials, dt, seed, replicas=1, threads=1):
    """Fourth-moment modulus of continuity over windows anchored at s.

    For each window length l the statistic is E[sup_{u,v in [s, s+l]}
    |X_u - X_v|^4], with the sup realized through per-coordinate running
    ranges (exact in d = 1), accumulated along an ensemble on [s, s + max l]
    (``simulate_ensemble`` with the other arguments).  Returns (lengths,
    moments, fitted exponent) of the log-log regression of the moment
    against the window length.
    """
    lengths = np.asarray(sorted(window_lengths), dtype=float)
    steps = [int(round(ell / dt)) for ell in lengths]
    if steps[0] < 1:
        raise ConfigError(f"window length {lengths[0]} is shorter than dt")
    acc = _ModulusAccumulator(steps, field.d)
    ens = simulate_ensemble(field, s, s + steps[-1] * dt, initials, dt, seed,
                            replicas=replicas, threads=threads, accumulators=(acc,))
    if ens.n_traj < 1000:
        raise ConfigError("empirical_modulus needs at least 10^3 trajectories")
    moments = np.array([
        np.mean(np.linalg.norm(acc.hi[:, i] - acc.lo[:, i], axis=-1) ** 4) for i in range(len(steps))
    ])
    if np.any(moments <= 0):
        return lengths, moments, 0.0
    exponent = float(np.polyfit(np.log(lengths), np.log(moments), 1)[0])
    return lengths, moments, exponent
