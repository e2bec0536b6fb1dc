"""Euler-Maruyama flow simulation with counter-addressed noise.

Each trajectory owns a fixed range of Philox counters under the key
``[seed, 0]``, set by its index (see :mod:`flowlab.rng`), so ensembles are
bitwise reproducible for a fixed ``(seed, dt, grid)`` at any worker count.

One package-private driver is the only place where chunks, workers and
trajectory noise are handled: ``_run_chunks`` fixes the worker count,
partitions trajectories into equal chunks (a multiple of the worker count,
none past the increment budget), draws each chunk's increments in one block
(each row bit for bit that trajectory's increments drawn alone) and runs
the caller's body on it.  No output depends on the cut: every trajectory's
arithmetic is its own, the coefficient maps included (``ou_smooth`` and
``ou_smooth_grad`` sum each point's quadrature nodes in one order, whatever
points share the call), so each path's endpoint and density weight are the
same bits at any chunk size and ``--threads``.  With more than one worker
the chunks are dealt out in shares: this process runs the first and forked
child processes run the others with the same body, writing into arrays on
anonymous shared memory (``_shared_zeros``); with one worker, or without
``os.fork``, the same loop runs inline.  Bodies write into disjoint slices of those arrays, and
per-chunk results come back in chunk order for the caller to reduce.
``_euler_step`` is the only Euler update and the only place coefficients
are evaluated along a path: one ``CoefficientField.evaluate`` per step,
whose σ and b step the state and whose bundle the accumulators read; it
guards every path against explosion.  ``simulate_ensemble`` is the only
caller of ``_run_chunks`` and its chunk body the only loop over steps.  At
each step it copies that step's increments out of the chunk's block into
one C-contiguous, read-only (rows, m) slab, which the Euler step and every
accumulator read.  Every path functional (the density weight, the
occupation functional, the Stratonovich cross-check, the coupling of
regularization levels) is an accumulator streamed through
``simulate_ensemble``.

The scheme is plain Euler-Maruyama with left-endpoint coefficient evaluation
(the Ito convention), which is the discretization matching the density
accumulation in :mod:`flowlab.density`.  Higher-order schemes are deliberately
not offered: the drift may be discontinuous.
"""

import contextlib
import math
import mmap
import os
import pickle
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExplosionError
from .rng import brownian_increments, gaussian_points

__all__ = [
    "FlowEnsemble",
    "make_grid",
    "simulate_ensemble",
]

EXPLOSION_RADIUS = 1e8
_CHUNK_BUDGET = 1 << 22  # floats of increment storage per chunk
# a 64-row chunk of one-dimensional increments at this many steps holds 2 GiB
MAX_STEPS = 1 << 22


def make_grid(s, T, dt):
    """Number of uniform steps covering [s, T]; dt must divide the horizon
    in at most ``MAX_STEPS`` steps."""
    if not (dt > 0 and T > s and math.isfinite((T - s) / dt)):
        raise ConfigError("need dt > 0, T > s and a finite step count (T - s) / dt")
    n_steps = int(round((T - s) / dt))
    if n_steps > MAX_STEPS:
        raise ConfigError(f"dt={dt} gives {(T - s) / dt:.6g} steps on [{s}, {T}], more than {MAX_STEPS}")
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


def _chunk_cap(n_steps, m):
    """Most rows a chunk holds: the increment budget's share, at least 64, at most 8192."""
    return max(64, min(8192, _CHUNK_BUDGET // max(n_steps * m, 1)))


def _chunk_edges(n_traj, n_steps, m, workers=1):
    """Chunks of equal size (to one row), as many as a multiple of ``workers``.

    No chunk holds more rows than ``_chunk_cap``, so the chunks dealt
    round-robin give every worker the same number of rows to within one per
    chunk.
    """
    cap = _chunk_cap(n_steps, m)
    count = max(1, -(-n_traj // cap))           # chunks at the budget
    count = -(-count // workers) * workers      # rounded up to a multiple of workers
    edges = [i * n_traj // count for i in range(count + 1)]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def _shared_zeros(shape):
    """Zero floats on anonymous shared memory: a forked worker's writes reach this process."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(8 * count, 1))  # mmap refuses length 0
    return np.frombuffer(buf, count=count).reshape(shape)


def _on_shared_memory(arr):
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(getattr(base, "obj", None), mmap.mmap)


def _alloc(acc, n_traj):
    """``acc.alloc(n_traj, _shared_zeros)``; every array it assigns must come from that allocator.

    An array made elsewhere would stay private to the worker process that
    writes it, and this process would read its zeros, so it raises here,
    before any chunk runs and at any worker count.
    """
    before = dict(vars(acc))
    acc.alloc(n_traj, _shared_zeros)
    for name, value in vars(acc).items():
        if isinstance(value, np.ndarray) and value is not before.get(name) \
                and not _on_shared_memory(value):
            raise TypeError(
                f"{type(acc).__name__}.alloc made {name!r} outside the run's zeros allocator; "
                "a forked worker's writes to it would be lost"
            )


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker process, chained as its cause."""

    def __str__(self):
        return "\n" + self.args[0]


def _portable(exc):
    """exc if it survives pickling, else a RuntimeError carrying its type name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _flush():
    for stream in (sys.stdout, sys.stderr):
        with contextlib.suppress(Exception):
            stream.flush()


def _run_shares(run, shares):
    """``[run(share) for share in shares]``: the first share here, each other in a forked child.

    ``run`` returns (results, failures, error) with error None or (chunk,
    exception, "").  A child sends that triple through a pipe, pickled, with
    an exception that unpickles and its formatted traceback in place of "",
    then leaves with ``os._exit``.  A share whose fork fails runs here.
    Every child is reaped before this returns or raises, and killed first if
    it has not reported.
    """
    _flush()  # a child must not write out this process's buffered output again
    children, local = {}, [shares[0]]  # children: pid -> read end of its pipe
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                local.append(share)
                continue
            if pid == 0:
                status = 1
                try:
                    os.close(r)
                    results, failures, error = run(share)
                    if error is not None:
                        i, exc, _ = error
                        error = (i, _portable(exc), "".join(traceback.format_exception(exc)))
                    payload = pickle.dumps((results, failures, error))
                    with os.fdopen(w, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    _flush()
                    os._exit(status)
            os.close(w)
            children[pid] = os.fdopen(r, "rb")
        outcomes = [run(share) for share in local]
        for pid in list(children):
            data = children[pid].read()
            os.waitpid(pid, 0)
            children.pop(pid).close()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without a result")
            outcomes.append(pickle.loads(data))
        return outcomes
    finally:
        for pid, pipe in children.items():
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_chunks(n_traj, n_steps, m, dt, seed, body, threads=1):
    """Run ``body(lo, hi, inc)`` on every trajectory chunk; results in chunk order.

    ``inc`` holds the increments of trajectories lo .. hi-1, drawn in one
    ``brownian_increments`` call per chunk.  The worker count, min(threads,
    usable CPUs, chunks at the budget), is fixed first, so an ensemble of one
    budget chunk runs inline; the chunks are cut for it (``_chunk_edges``) and
    dealt round-robin into one share per worker, run by ``_run_shares``, so a
    body writes its output into arrays from ``_shared_zeros`` and returns
    only small, picklable results.  A chunk whose body raises
    ``ExplosionError`` stops there while the others run to the end; then one
    error names the earliest step and every exploded index.  Any other
    exception stops its share; the one of the lowest chunk is raised, which
    is the one a serial run raises.
    """
    at_budget = len(_chunk_edges(n_traj, n_steps, m))
    workers = max(1, min(threads, at_budget, _usable_cpus())) if hasattr(os, "fork") else 1
    chunks = _chunk_edges(n_traj, n_steps, m, workers)

    def run(share):
        results, failures = {}, []
        for i in share:
            lo, hi = chunks[i]
            try:
                results[i] = body(lo, hi, brownian_increments(seed, range(lo, hi), n_steps, m, dt))
            except ExplosionError as exc:
                failures.append((exc.step, [lo + j for j in exc.indices]))
            except Exception as exc:
                return results, failures, (i, exc, "")
        return results, failures, None

    outcomes = _run_shares(run, [range(w, len(chunks), workers) for w in range(workers)])
    errors = [error for _, _, error in outcomes if error is not None]
    if errors:
        _, exc, worker_tb = min(errors, key=lambda e: e[0])
        if worker_tb:
            exc.__cause__ = _WorkerTraceback(worker_tb)
        raise exc
    failures = [f for _, fails, _ in outcomes for f in fails]
    if failures:
        step = min(f[0] for f in failures)
        indices = sorted(i for f in failures for i in f[1])
        raise ExplosionError(
            f"{len(indices)} trajectories exploded (earliest step {step})",
            step=step,
            indices=indices,
        )
    results = {i: r for res, _, _ in outcomes for i, r in res.items()}
    return [results[i] for i in range(len(chunks))]


def _euler_step(field, k, t, X, dW, dt):
    """Step k of the Euler scheme from the left-point states X at time t.

    Returns (ev, X_next) with ev = ``field.evaluate(t, X)`` and X_next =
    X + ev.sigma dW + ev.b dt.  A non-finite stepped state or one beyond
    ``EXPLOSION_RADIUS`` raises ``ExplosionError`` with step k + 1 and the
    exploded rows of X.
    """
    ev = field.evaluate(t, X)
    X_next = X + np.einsum("nam,nm->na", ev.sigma, dW) + ev.b * dt
    # one whole-array test per step; NaN fails the comparison too
    if not np.abs(X_next).max() <= EXPLOSION_RADIUS:
        bad = ~np.isfinite(X_next).all(axis=1) | (np.abs(X_next).max(axis=1) > EXPLOSION_RADIUS)
        rows = np.where(bad)[0].tolist()
        raise ExplosionError(
            f"{len(rows)} trajectories exploded at step {k + 1}", step=k + 1, indices=rows
        )
    return ev, X_next


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
    drawn from a reserved stream.  Trajectory j uses initial point
    ``j // replicas`` and the Brownian increments of trajectory index j.

    Each chunk is one loop over the steps: step k makes one ``_euler_step``
    and then calls every accumulator.  ``accumulators`` stream path
    functionals: each has ``alloc(n_traj, zeros)``, called once before the
    run, and ``step(sl, k, t, X, dW, ev, X_next)``, called at every step k of
    every chunk with the chunk's trajectory slice ``sl``, t = s + k dt, the
    left-point states X, the increments dW of that step (a C-contiguous,
    read-only (rows, m) slab, the one the Euler step read), the step's
    coefficient bundle ``ev`` = ``field.evaluate(t, X)`` (see
    ``CoefficientValues``) and the stepped states X_next.  An accumulator
    keeps its per-trajectory results (and any state it carries across steps)
    in arrays it allocates in ``alloc`` with ``zeros(shape)`` (the run's
    shared-memory allocator; an array made otherwise raises ``TypeError``)
    and writes only the entries of the trajectories in ``sl``, so chunks in
    different worker processes never touch the same entry; callers read
    those arrays after the run.

    ``T == s`` yields the degenerate ensemble (endpoints equal the starts,
    accumulators see no steps); otherwise dt must divide [s, T] (``make_grid``).
    """
    n_steps = make_grid(s, T, dt) if T != s else 0
    x_init = _resolve_initials(initials, field.d, seed)
    n0 = x_init.shape[0]
    n_traj = n0 * replicas
    x0 = np.repeat(x_init, replicas, axis=0)
    xT = _shared_zeros(x0.shape)
    for acc in accumulators:
        _alloc(acc, n_traj)

    def body(lo, hi, inc):
        sl = slice(lo, hi)
        X = x0[sl]
        for k in range(n_steps):
            t = s + k * dt
            dW = inc[:, k, :].copy()  # one contiguous slab that every consumer reads
            dW.flags.writeable = False
            ev, X_next = _euler_step(field, k, t, X, dW, dt)
            for acc in accumulators:
                acc.step(sl, k, t, X, dW, ev, X_next)
            X = X_next
        xT[sl] = X

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
