"""In-memory span tracer and the per-layer metrics derived from it.

``Tracer.install`` wraps public flowlab functions at every binding callers
look them up through: module attributes (``flowlab.sde.brownian_increments``
and each module that imported the name), class attributes for methods, and
function defaults such as ``coupling_convergence(regularizer=regularize)``.
``uninstall`` puts every original object back.

Each wrapped call records a span ``(id, name, start, end, parent, thread)``
on a per-thread parent stack.  A span opened on a pool thread whose stack is
empty takes the main thread's innermost open span as its parent: that is the
call blocked on the pool.  Counters are per thread too, so chunks running on
pool threads lose no update.  Nothing is written until the run ends.
"""

import functools
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

RESERVED_STREAM = 1 << 62  # flowlab.rng: stream indices from here on are not trajectories


# ---------------------------------------------------------------------------
# counters attached to wrapped calls: hook(args, kwargs, result, exc) -> pairs
# ---------------------------------------------------------------------------

def _count_generator(args, kwargs, result, exc):
    index = kwargs.get("index", args[1] if len(args) > 1 else 0)
    yield "rng.generators", 1
    if index >= RESERVED_STREAM:
        yield "rng.reserved_generators", 1


def _count_variates(args, kwargs, result, exc):
    size = kwargs.get("size", args[1] if len(args) > 1 else 1)
    yield "rng.variates", math.prod(size) if isinstance(size, tuple) else int(size)


def _count_ensemble(args, kwargs, result, exc):
    if exc is not None:
        yield "sde.exploded", len(getattr(exc, "indices", ()))
        return
    yield "sde.ensembles", 1
    yield "sde.trajectories", result.n_traj
    yield "sde.traj_steps", result.n_traj * result.n_steps


def _count_coupling(args, kwargs, result, exc):
    # the coupling runs its own Euler loop over every level: count it as one
    # ensemble of the Euler-stepping layer, with trajectories x steps x levels
    from flowlab.convergence import coupling_convergence
    from flowlab.sde import make_grid

    if exc is not None:
        return
    bound = inspect.signature(coupling_convergence).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    initials = a["initials"]
    if isinstance(initials, tuple) and initials[0] == "gaussian":
        n0 = initials[1]
    else:
        n0 = len(initials) if getattr(initials, "ndim", 2) > 1 else 1
    n_traj = n0 * a["replicas"]
    levels = len(a["n_list"]) + 1
    yield "sde.ensembles", 1
    yield "sde.trajectories", n_traj
    yield "sde.traj_steps", n_traj * make_grid(a["s"], a["T"], a["dt"]) * levels


def _count_evals(args, kwargs, result, exc):
    # ou_smooth(f, eps, x, quad): one integrand value per node and point
    if exc is None:
        points = math.prod(np.shape(args[2])[:-1])
        yield "gaussian.ou_smooth.evals", args[3].nodes.shape[0] * points


def _count_bound(args, kwargs, result, exc):
    from flowlab.errors import BoundUnavailableError

    if isinstance(exc, BoundUnavailableError):
        yield "density.bound.unavailable", 1


def _count_cells(args, kwargs, result, exc):
    if exc is None:
        yield "fokker_planck.fp_solve.cell_steps", result.grid.u.size * len(result.leak_series)


def _count_bytes(args, kwargs, result, exc):
    if exc is None:
        yield "report.bytes", os.path.getsize(args[-1])


# (span name or None for a counter only, module, attribute path, hook)
TARGETS = (
    ("rng", "flowlab.rng", "brownian_increments", None),
    ("rng", "flowlab.rng", "gaussian_points", None),
    ("rng", "flowlab.fokker_planck", "GridSampler1D.sample", None),
    (None, "flowlab.rng", "substream", _count_generator),
    (None, "flowlab.rng", "uniform_open", _count_variates),
    ("sde", "flowlab.sde", "simulate_ensemble", _count_ensemble),
    ("convergence.coupling", "flowlab.convergence", "coupling_convergence", _count_coupling),
    ("convergence.krylov", "flowlab.convergence", "krylov_ratio", None),
    ("coefficients.regularize", "flowlab.coefficients", "regularize", None),
    ("gaussian.ou_smooth", "flowlab.gaussian", "ou_smooth", _count_evals),
    ("gaussian.ou_smooth_grad", "flowlab.gaussian", "ou_smooth_grad", None),
    ("density.accumulate", "flowlab.density", "DensityAccumulator.step", None),
    ("density.stats", "flowlab.density", "batch_statistic", None),
    ("density.bound", "flowlab.density", "theorem_bound_rhs", _count_bound),
    ("density.bound", "flowlab.density", "budget_constants", _count_bound),
    ("fokker_planck.fp_solve", "flowlab.fokker_planck", "fp_solve", _count_cells),
    ("fokker_planck.weak_error", "flowlab.fokker_planck", "weak_error", None),
    ("fokker_planck.mc_measure", "flowlab.fokker_planck", "mc_measure", None),
    ("fokker_planck.factorization", "flowlab.fokker_planck", "density_factorization", None),
    ("report", "flowlab.report", "write_rows_csv", _count_bytes),
    ("report", "flowlab.report", "write_table_csv", _count_bytes),
    ("report", "flowlab.report", "write_summary_json", _count_bytes),
    ("report", "flowlab.fokker_planck", "write_solution_csv", _count_bytes),
    ("oracle_gate", "flowlab.oracle_gate", "oracle_suite", None),
    ("config.parse", "flowlab.config", "parse_config", None),
)


def _flowlab_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flowlab" or name.startswith("flowlab."))]


def bindings(target):
    """Every place a flowlab caller can look ``target`` up through.

    Yields ``(owner, attribute)`` for module and class attributes and
    ``(function, None)`` for functions holding ``target`` as a default.
    """
    seen = set()
    for mod in _flowlab_modules():
        for name, val in list(vars(mod).items()):
            if val is target:
                yield mod, name
            if getattr(val, "__module__", None) != mod.__name__ or id(val) in seen:
                continue
            seen.add(id(val))
            if isinstance(val, type):
                for attr, member in vars(val).items():
                    if member is target:
                        yield val, attr
            elif isinstance(val, types.FunctionType):
                val = inspect.unwrap(val)  # a function wrapped earlier keeps its defaults
                if any(d is target for d in (val.__defaults__ or ())):
                    yield val, None


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack = []
        self.spans = []
        self.counts = Counter()


class Tracer:
    """Wraps the TARGETS, records spans and counts, and restores on exit."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count()
        self._main = self._state()
        self._undo = []

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.state = st
        return st

    def _open(self, st):
        if st.stack:
            parent = st.stack[-1]
        else:
            main_stack = self._main.stack
            parent = main_stack[-1] if (st is not self._main and main_stack) else None
        sid = next(self._ids)
        st.stack.append(sid)
        return sid, parent

    def _close(self, st, sid, name, start, parent):
        end = perf_counter()
        st.stack.pop()
        st.spans.append((sid, name, start, end, parent, st.index))

    @contextmanager
    def span(self, name):
        """Record one span around a block."""
        st = self._state()
        sid, parent = self._open(st)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(st, sid, name, start, parent)

    def wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            if name is not None:
                sid, parent = tracer._open(st)
                start = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                if name is not None:
                    tracer._close(st, sid, name, start, parent)
                if hook is not None:
                    for key, n in hook(args, kwargs, result, exc):
                        st.counts[key] += n

        return wrapper

    def install(self):
        try:
            for name, module, path, hook in TARGETS:
                self._patch(name, importlib.import_module(module), path, hook)
        except BaseException:
            self.uninstall()  # a target that moved must not leave half the bindings wrapped
            raise
        return self

    def _patch(self, name, owner, path, hook):
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, hook)
        for holder, key in list(bindings(original)):
            if key is None:
                self._undo.append((holder, None, holder.__defaults__))
                holder.__defaults__ = tuple(wrapper if d is original else d
                                            for d in holder.__defaults__)
            else:
                self._undo.append((holder, key, original))
                setattr(holder, key, wrapper)

    def uninstall(self):
        while self._undo:
            holder, key, value = self._undo.pop()
            if key is None:
                holder.__defaults__ = value
            else:
                setattr(holder, key, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def spans(self):
        return [s for st in self._states for s in st.spans]

    @property
    def counts(self):
        total = Counter()
        for st in self._states:
            total.update(st.counts)
        return total


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def covered(start, end, intervals):
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def aggregate(spans):
    """Per span name: busy time, self time and call count.

    Busy time sums the spans that have no ancestor of the same name, so a
    layer calling itself is not counted twice; on several threads it is
    thread-seconds and can exceed wall time.  Self time is each span's
    duration minus the part of it its child spans cover.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    busy, self_s, calls = defaultdict(float), defaultdict(float), Counter()
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        self_s[name] += (end - start) - covered(start, end, children[sid])
        while parent is not None and by_id[parent][1] != name:
            parent = by_id[parent][4]
        if parent is None:
            busy[name] += end - start
    return busy, self_s, calls


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced pass, by metric name."""
    busy, self_s, calls = aggregate(spans)
    counts = Counter(counts)
    m = {
        "rng.busy_s": busy["rng"],
        "rng.generators": counts["rng.generators"],
        "rng.variates": counts["rng.variates"],
        "rng.variates_per_s": _rate(counts["rng.variates"], busy["rng"]),
        "sde.busy_s": busy["sde"],
        "sde.self_s": self_s["sde"],
        "sde.ensembles": counts["sde.ensembles"],
        "sde.traj_steps": counts["sde.traj_steps"],
        "sde.exploded": counts["sde.exploded"],
        "gaussian.ou_smooth.calls": calls["gaussian.ou_smooth"],
        "gaussian.ou_smooth.busy_s": busy["gaussian.ou_smooth"],
        "gaussian.ou_smooth.evals": counts["gaussian.ou_smooth.evals"],
        "gaussian.ou_smooth_grad.calls": calls["gaussian.ou_smooth_grad"],
        "gaussian.ou_smooth_grad.busy_s": busy["gaussian.ou_smooth_grad"],
        "coefficients.regularize.busy_s": busy["coefficients.regularize"],
        "density.accumulate.busy_s": busy["density.accumulate"],
        "density.accumulate.calls": calls["density.accumulate"],
        "density.stats.busy_s": busy["density.stats"],
        "density.bound.busy_s": busy["density.bound"],
        "density.bound.unavailable": counts["density.bound.unavailable"],
        "convergence.coupling.busy_s": busy["convergence.coupling"],
        "convergence.coupling.self_s": self_s["convergence.coupling"],
        "convergence.krylov.busy_s": busy["convergence.krylov"],
        "fokker_planck.weak_error.busy_s": busy["fokker_planck.weak_error"],
        "fokker_planck.mc_measure.calls": calls["fokker_planck.mc_measure"],
        "fokker_planck.factorization.busy_s": busy["fokker_planck.factorization"],
        "fokker_planck.fp_solve.busy_s": busy["fokker_planck.fp_solve"],
        "fokker_planck.fp_solve.cell_steps": counts["fokker_planck.fp_solve.cell_steps"],
        "fokker_planck.fp_solve.cell_steps_per_s": _rate(
            counts["fokker_planck.fp_solve.cell_steps"], busy["fokker_planck.fp_solve"]),
        "report.write_s": busy["report"],
        "report.bytes": counts["report.bytes"],
        "config.parse_s": busy["config.parse"],
        "oracle_gate.busy_s": busy["oracle_gate"],
    }
    for name, seconds in busy.items():
        if name.startswith("experiments."):
            m[f"{name}.wall_s"] = seconds
    return m


def unit_of(name):
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s", "higher"
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith(".bytes"):
        return "bytes", "lower"
    return "count", "lower"
